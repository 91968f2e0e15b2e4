"""Weighted sum-rate user association across macro clusters.

The association value f(G) of a set of (user, pico) tuples is the sum over
macros of the optimal cluster WSR given unit budgets; users may stay
unassociated. f is normalized, non-negative and submodular over the
feasible sets (and generally non-monotone once minimum rates bind), so the
solver is a greedy stage followed by local search over swap, deletion and
addition moves, rerun on the complement ground set, best of the two kept.
Local search scores moves as intervals: on clusters without rate limits
from the closed form, on the others from the cluster LP's dual bound at
the allocator's prices, and evaluates through the cache only the moves
whose interval could hold the winner.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from .net_model import (
    AllocationFractions,
    Association,
    InfeasibleError,
    NetworkInstance,
    Pair,
    TooLargeError,
    VerificationError,
    build_ground_set,
    compute_user_rates,
)
from .wsr_alloc import (
    RES_TOL,
    ClusterProblem,
    PicoMemo,
    allocate_cluster,
    pico_row,
    rate_values,
    solo_values,
    verify_kkt_wsr,
)


_pico_id = attrgetter("b")   # a cluster entry's pico


class SetFunctionCache:
    """Per-macro WSR values of the instance's ground set.

    A tuple is named by its position in the ground set, which
    build_ground_set sorts by (user, pico), so positions sort like the
    pairs. The association value decomposes across macros, so candidate
    moves only re-evaluate the one or two clusters they touch: macro_value
    values a macro's slice S as it is or edited (S - o, S + t, S - o + t).
    Every tuple's value alone in its cluster is computed once here and read
    back (a hit); any larger cluster is evaluated on each call (a miss).
    Clusters whose users all have zero minimum and no maximum rate admit a
    closed-form optimum (full pico budget to the best weighted pico rate,
    full macro budget to the best weighted macro rate), whose inputs, the
    weighted peak rates of every ground-set tuple, are also computed once
    here. Other clusters go to allocate_cluster as a ClusterProblem made
    from the users' rows (wsr_alloc.pico_row, made per position as needed)
    without ClusterProblem.build's checks: build_ground_set admits only
    positive peak rates, and callers pass distinct users. Per-pico entries
    come from this cache's PicoMemo, the only cache of cluster work. Each
    macro's last slice is kept as its ClusterProblem, so an edit of it
    bisects the kept entries by pico id and looks up only the picos of o
    and t.
    """

    def __init__(self, inst: NetworkInstance):
        self.inst = inst
        self.ground_set = build_ground_set(inst)
        self.hits = self.misses = 0
        self.pico_memo = PicoMemo()

        pairs = self.ground_set
        # per position: the tuple's user (index into inst.users), macro
        # (index into inst.macros) and pico slot under that macro
        self.user_at = np.array([inst._uidx[u] for u, _ in pairs], dtype=np.intp)
        mpos = {m: j for j, m in enumerate(inst.macros)}
        slot = {b: j for m in inst.macros for j, b in enumerate(inst.picos_of[m])}
        self.macro_at = np.array([mpos[inst.pico_macro[b]] for _, b in pairs], dtype=np.intp)
        self.slot = np.array([slot[b] for _, b in pairs], dtype=np.intp)
        mi = np.array([inst._tidx[m] for m in inst.macros], dtype=np.intp)[self.macro_at]
        bi = np.array([inst._tidx[b] for _, b in pairs], dtype=np.intp)
        self.r_macro = inst.rates[self.user_at, mi]
        self.r_pico = inst.rates[self.user_at, bi]
        # users with zero minimum and no maximum rate
        self.free_user = (inst.rate_min == 0.0) & np.isinf(inst.rate_max)
        self.all_free = bool(self.free_user.all())
        # w_u r(u, m) and w_u r(u, b): the products the closed form
        # maximizes, bit for bit; per position it reads them with the slot
        # and whether the user is free
        w = inst.weights[self.user_at]
        self.wr_macro = w * self.r_macro
        self.wr_pico = w * self.r_pico
        free = self.free_user[self.user_at]
        self._closed = list(zip(self.wr_macro.tolist(), self.wr_pico.tolist(),
                                self.slot.tolist()))
        self._free = free.tolist()
        self._forms: dict[int, tuple] = {}   # per macro: its kept slice and cluster
        rmin, rmax = inst.rate_min[self.user_at], inst.rate_max[self.user_at]
        # each tuple's value alone in its cluster (NaN: infeasible): the
        # closed form for free users, allocate_cluster's float operations
        # for uncapped users with positive weighted rates, and
        # allocate_cluster itself for the rest
        self.single = self.wr_macro + self.wr_pico
        lim = np.flatnonzero(~free)
        self.single[lim] = solo_values(w[lim], self.r_macro[lim], self.r_pico[lim], rmin[lim])
        plain = (rmax == math.inf) & (self.wr_macro > 0) & (self.wr_pico > 0)
        for k in np.flatnonzero(~free & ~plain).tolist():
            try:
                self.single[k] = allocate_cluster(self._prepare((k,))).value
            except InfeasibleError:
                self.single[k] = math.nan

    def _row(self, t: int) -> tuple:
        """Position t's wsr_alloc.pico_row, made on each call from the
        allocator path only: clusters that take the closed form need none."""
        return pico_row(self.inst, self.r_macro.item(t), self.r_pico.item(t),
                        self.inst.users[self.user_at.item(t)])

    def macro_value(self, sl: tuple[int, ...], out: Optional[int] = None,
                    inc: Optional[int] = None) -> Optional[float]:
        """Optimal cluster WSR of one macro's slice sl (sorted ground-set
        positions of distinct users) without its position `out` and with
        position `inc`, a tuple of the same macro whose user the rest does
        not serve; None if infeasible. On the allocator path it edits sl's
        kept cluster: only the picos of out and inc are looked up."""
        n = len(sl) - (out is not None) + (inc is not None)
        if n < 2:
            if not n:
                return 0.0
            self.hits += 1
            v = self.single.item(inc if inc is not None else next(p for p in sl if p != out))
            return None if math.isnan(v) else v
        self.misses += 1
        free = self._free
        if self.all_free or (inc is None or free[inc]) and all(free[p] for p in sl if p != out):
            ts = sl if out is None else [p for p in sl if p != out]
            if inc is not None:
                ts = sorted([*ts, inc])
            closed = self._closed
            best_macro = 0.0
            best_pico: dict[int, float] = {}
            for t in ts:
                wm, wv, q = closed[t]
                if wm > best_macro:
                    best_macro = wm
                if wv > best_pico.get(q, 0.0):
                    best_pico[q] = wv
            return best_macro + sum(best_pico.values())

        cl = self._prepare(sl)
        views, gs, memo = cl.views, self.ground_set, self.pico_memo
        if out is not None:
            u, b = gs[out]
            q = bisect.bisect_left(views, b, key=_pico_id)
            r = [x for x in views[q].rows if x[1] != u]
            if inc is not None and gs[inc][1] == b:   # a swap inside one pico: one lookup
                bisect.insort(r, self._row(inc))
                inc = None
            views = views[:q] + ((memo.get(b, r, 1.0),) if r else ()) + views[q + 1:]
        if inc is not None:
            b = gs[inc][1]
            q = bisect.bisect_left(views, b, key=_pico_id)
            here = q < len(views) and views[q].b == b
            r = list(views[q].rows) if here else []
            bisect.insort(r, self._row(inc))
            views = views[:q] + (memo.get(b, r, 1.0),) + views[q + here:]
        try:
            return allocate_cluster(ClusterProblem(self.inst, cl.macro, 1.0, views)).value
        except InfeasibleError:
            return None

    def _prepare(self, sl: tuple[int, ...]) -> ClusterProblem:
        """The kept cluster of one macro's slice (sorted positions), its
        entries from the memo. Built from scratch only when the slice is not
        the one kept for its macro."""
        gs = self.ground_set
        m = self.inst.pico_macro[gs[sl[0]][1]]
        kept = self._forms.get(m)
        if kept is not None and kept[0] == sl:
            return kept[1]
        by_pico: dict[int, list[tuple]] = {}
        for t in sl:
            by_pico.setdefault(gs[t][1], []).append(self._row(t))
        memo = self.pico_memo
        cl = ClusterProblem(self.inst, m, 1.0, tuple(
            [memo.get(b, sorted(by_pico[b]), 1.0) for b in sorted(by_pico)]))
        self._forms[m] = (sl, cl)
        return cl


def check_admission_control(inst: NetworkInstance) -> bool:
    """True iff each macro could serve twice every candidate user's minimum
    rate from half its own budget; guarantees every ground-set subset with
    distinct users is feasible."""
    rows: dict[int, set[int]] = {m: set() for m in inst.macros}
    for u, b in build_ground_set(inst):
        rows[inst.pico_macro[b]].add(inst._uidx[u])
    rmin = inst.rate_min.tolist()
    for m in inst.macros:
        rm = inst.rates[:, inst._tidx[m]].tolist()
        load = 0.0
        for i in sorted(rows[m]):   # a ground-set tuple under m: rm[i] > 0
            load += 2.0 * rmin[i] / rm[i]
        if load > 1.0 + 1e-12:
            return False
    return True


def _certified_value(inst: NetworkInstance, m: int, pairs: Sequence[Pair]) -> Optional[float]:
    """Weighted sum rate of allocate_cluster's point for macro m's pairs,
    certified optimal by verify_kkt_wsr at the same allocation's prices
    (VerificationError if it fails); None if infeasible."""
    pico_users: dict[int, list[int]] = {}
    for u, b in pairs:
        pico_users.setdefault(b, []).append(u)
    cl = ClusterProblem.build(inst, m, pico_users)
    try:
        alloc = allocate_cluster(cl)
    except InfeasibleError:
        return None
    issues = verify_kkt_wsr(cl, alloc.fractions, alloc)
    if issues:
        raise VerificationError(f"macro {m}: " + "; ".join(issues))
    rates = compute_user_rates(inst, alloc.fractions)
    return sum(inst.weights.item(inst._uidx[u]) * rates[u] for u, _ in pairs)


def brute_force_wsr_assoc(
    inst: NetworkInstance, cap: int = 200_000
) -> tuple[frozenset[Pair], float]:
    """Exhaustive WSR association search over all feasible tuple sets,
    partial associations included. Every distinct cluster value carries a
    duality certificate (_certified_value), so the optimum is proven, not
    assumed. Raises TooLargeError past `cap` candidate sets."""
    options: dict[int, list[Optional[Pair]]] = {u: [None] for u in inst.users}
    for u, b in build_ground_set(inst):
        options[u].append((u, b))
    count = math.prod(len(o) for o in options.values())
    if count > cap:
        raise TooLargeError(f"{count} candidate associations exceed cap {cap}")

    values: dict[tuple, Optional[float]] = {}   # (macro, its pairs) -> value
    best_val, best = 0.0, frozenset()
    for combo in itertools.product(*options.values()):
        chosen = [t for t in combo if t is not None]   # in user order
        by_macro: dict[int, list[Pair]] = {}
        for u, b in chosen:
            by_macro.setdefault(inst.pico_macro[b], []).append((u, b))
        total = 0.0
        for key in sorted((m, tuple(pairs)) for m, pairs in by_macro.items()):
            if key not in values:
                values[key] = _certified_value(inst, *key)
            if values[key] is None:
                break
            total += values[key]
        else:
            if total > best_val + 1e-12:
                best_val, best = total, frozenset(chosen)
    return best, best_val


# -- greedy + local search -----------------------------------------------------


@dataclass
class LocalSearchResult:
    association: Association
    pairs: frozenset[Pair]
    value: float
    greedy_pairs: frozenset[Pair]
    greedy_value: float
    fractions: AllocationFractions   # the clusters' optimal shares, realizing value
    trace: list[tuple[str, float, float]] = field(default_factory=list)
    capped: bool = False     # a run ended at max_iter with a move left


class _RunState:
    """Current set, value and per-macro decomposition during one run, by
    ground-set position: per macro index its slice (sorted positions) and
    value, per user index the position serving it (-1: unserved)."""

    def __init__(self, cache: SetFunctionCache):
        self.cache = cache
        self.user_at = cache.user_at.tolist()
        self.macro_at = cache.macro_at.tolist()
        n_macros = len(cache.inst.macros)
        self.slices: list[tuple[int, ...]] = [()] * n_macros
        self.values = [0.0] * n_macros
        self.owner = [-1] * len(cache.inst.users)
        self.total = 0.0

    def pairs(self) -> frozenset[Pair]:
        gs = self.cache.ground_set
        return frozenset(gs[t] for t in self.owner if t >= 0)

    def apply(self, out: Optional[int], inc: Optional[int]) -> None:
        for t, leaving in ((out, True), (inc, False)):
            if t is None:
                continue
            m = self.macro_at[t]
            sl = self.slices[m]
            if leaving:
                new = self.cache.macro_value(sl, out=t)
                sl = tuple(p for p in sl if p != t)
                self.owner[self.user_at[t]] = -1
            else:
                new = self.cache.macro_value(sl, inc=t)
                sl = tuple(sorted(sl + (t,)))
                self.owner[self.user_at[t]] = t
            assert new is not None, "accepted move left an infeasible cluster"
            self.total += new - self.values[m]
            self.slices[m] = sl
            self.values[m] = new


def _greedy_stage(state: _RunState, omega: Sequence[int]) -> None:
    """Lazy greedy from the empty set: repeatedly add the feasible tuple with
    the best positive marginal value. Stale heap gains are upper bounds by
    submodularity, so an entry recomputed against the current set and still
    on top is exact."""
    cache, owner, user_at, macro_at = state.cache, state.owner, state.user_at, state.macro_at
    version = [0] * len(state.values)
    # from the empty set, a tuple's gain is its value alone (NaN: infeasible)
    heap = [(-g, t, 0) for g, t in zip(cache.single[omega].tolist(), omega) if g > 0]
    heapq.heapify(heap)   # entries are distinct, so the pop order is fixed
    while heap:
        _, t, ver = heapq.heappop(heap)
        if owner[user_at[t]] >= 0:
            continue
        m = macro_at[t]
        if ver != version[m]:
            v = cache.macro_value(state.slices[m], inc=t)
            if v is None:
                continue
            gain = v - state.values[m]
            if gain > 0:
                heapq.heappush(heap, (-gain, t, version[m]))
            continue
        state.apply(None, t)
        version[m] += 1


# Unit roundoff of IEEE double precision.
_U = 2.0 ** -53


def _screen(value, wm_s, wb_s, q_s, wm_t, wb_t, q_t, n_slots):
    """Closed-form move gains on one free macro, each with an error bound.

    The current slice has cache value `value` and members with weighted
    macro rates wm_s, weighted pico rates wb_s and pico slots q_s; the
    candidates have wm_t, wb_t and q_t. Returns (add, add_err, swap,
    swap_err): the gain of adding each candidate and of swapping it for
    each slice member (shape candidates x members). The gain the cache
    yields, new value minus `value`, lies within err of the estimate as
    long as sums of the weighted rates are finite, which `instance_errors`
    checks for every instance the command line solves.

    Error bound. A closed-form value is V = M + sum_j P_j over the macro
    maximum M and the pico maxima P_j (k <= n = members + 1 terms, all
    non-negative floats), summed in float in some order, so the computed
    value is within gamma_{n+1} V of the exact sum, where gamma_j =
    j u / (1 - j u) and u = 2^-53 (this also covers compensated float
    sums). The estimate sums the exact changes of M and of the one or two
    affected P_j, each a difference of floats, whose absolute values add
    up to T >= |V_new - V_old|; it is within gamma_4 T of the exact change.
    The gain is the float difference of the two cache values. Together:
    |gain - estimate| <= gamma_{n+1} (V_new + V_old) + u |gain| + gamma_4 T
    <= u ((2n + 2) V_old + (n + 6) T) (1 + O(n u)), since V_new <= V_old + T.
    The stated bound err = (2n + 8) u (value + T) exceeds that with room for
    the O(n u) factors and for rounding in err itself.
    """
    k = len(wm_s)
    # macro maximum with its runner-up, per pico slot likewise
    m1 = m2 = 0.0
    j1 = -1
    p1 = [0.0] * n_slots
    p2 = [0.0] * n_slots
    a1 = [-1] * n_slots
    for j, (wm, wb, q) in enumerate(zip(wm_s.tolist(), wb_s.tolist(), q_s.tolist())):
        if wm > m1:
            m1, m2, j1 = wm, m1, j
        elif wm > m2:
            m2 = wm
        if wb > p1[q]:
            p1[q], p2[q], a1[q] = wb, p1[q], j
        elif wb > p2[q]:
            p2[q] = wb
    scale = (2 * (k + 1) + 8) * _U
    p1a = np.array(p1)
    pt = p1a[q_t]
    d_pico = np.maximum(pt, wb_t) - pt
    add = (np.maximum(wm_t, m1) - m1) + d_pico
    add_err = scale * (value + add)

    js = np.arange(k)
    m_wo = np.where(js == j1, m2, m1)                   # macro max without member j
    ps = p1a[q_s]
    p_wo = np.where(np.array(a1)[q_s] == js, np.array(p2)[q_s], ps)
    same = q_t[:, None] == q_s[None, :]
    t1 = np.maximum(m_wo[None, :], wm_t[:, None]) - m1
    t2 = np.where(same, np.maximum(p_wo[None, :], wb_t[:, None]), p_wo[None, :]) - ps
    t3 = np.where(same, 0.0, d_pico[:, None])
    swap = (t1 + t2) + t3
    swap_err = scale * (value + (np.abs(t1) + np.abs(t2) + np.abs(t3)))
    return add, add_err, swap, swap_err


def _nan_up(x):
    """Upper bounds with NaN (from overflow) read as inf: nothing settled."""
    return np.where(np.isnan(x), np.inf, x)


def _magnitude(lam_m, lam_b, phi, w, r1, rb):
    """Per user: an upper bound on the size of the terms it brings to the
    dual bound and to the allocator's value (see _margin)."""
    with np.errstate(all="ignore"):
        return (w + lam_m / r1 + lam_b / rb) * (1.0 + r1 + rb) + np.abs(phi)


def _margin(n: int, size):
    """Certified slack of the dual bound on a cluster of at most n users
    whose terms have total magnitude `size`.

    Error bound. For prices lam_m, lam_b >= 0, weak duality gives f(S') <=
    g = lam_m + sum_b lam_b + sum_u phi_u in exact arithmetic, over the
    picos and users of S' (rate_values). The gain the cache yields, the
    allocator's value of S' minus value(S), can exceed the computed
    g - value(S) only through two things. (i) The allocator's RES_TOL
    slack: its start may overrun a pico budget, and its need check the
    macro budget, by RES_TOL, and so may a user's shares overrun phi's unit
    box; that is worth at most RES_TOL (lam_m + sum_b lam_b + sum_u
    (|w r1 - lam_m| + |w rb - lam_b|)). `_capped` snaps a rate up to rmax
    from within RES_TOL max(1, rmax), worth w RES_TOL max(1, rmax), and
    rmax <= r1 + rb + RES_TOL max(1, rmax) wherever it binds. (ii)
    Rounding: the allocator's rates drift from theta r1 + gamma rb by a few
    ulps per move of the user's own macro or pico share, its n users take
    at most 4n moves, and moving the point back into phi's polygon costs
    the drift times (w + lam_m / r1 + lam_b / rb)(r1 + rb); its value is a
    float sum of n terms. The bound sums at most 2n + 2 terms, each phi
    from a few rounded operations on inputs of that size, and the gain is
    one more rounded subtraction. With size >= |value(S)| + lam_m + sum_b
    lam_b + sum_u _magnitude, (i) is at most 2 RES_TOL size and (ii) at
    most (6n + 12) u size (1 + O(n u)), which the margin (2 RES_TOL +
    (8n + 16) u) size exceeds with room.
    """
    return (2.0 * RES_TOL + (8 * n + 16) * _U) * size


@dataclass
class _Dual:
    """A macro's slice S at its allocator prices: the macro price lam_m and
    per pico slot its price `lam` (0 where S has no user); per member in
    slice order its slot, its phi, and `cut`, the price its leaving frees
    (its pico's, when it is alone there). gap = bound(S) - value(S), and
    size is the magnitude _margin scales with."""

    lam_m: float
    lam: np.ndarray
    slot: np.ndarray
    phi: np.ndarray
    cut: np.ndarray
    gap: float
    size: float


class _Moves:
    """Move gains of one local-search run, kept across scans.

    Its arrays run over the ground-set positions; `omega` marks the run's
    candidates. Each candidate t outside the current set keeps two parts
    that depend only on its macro's slice and on whether t's user is
    served: A, the gain of adding t (user unserved or served at another
    macro), and S, the best gain of a same-macro swap (user unserved: t
    replaces a current tuple, the first in drop order among equal gains,
    kept in s_out; user served at t's macro: its tuple moves to t). Each
    current tuple keeps its delete gain, through the cache. Per scan, a move
    of an unserved user also pairs A with the best delete outside t's
    macro, and a move of a user served at another macro pairs A with the
    delete of its tuple. An accepted move changes at most two macros and
    two users, so only their parts are rescored, as intervals [lo, hi]: on
    free macros from the closed form by `_screen`; elsewhere hi is the
    cluster LP's dual bound at the allocator's prices of the current slice
    (plus `_margin`) and lo is -inf. A part is exact when its interval has
    closed (lo == hi): an estimate stays open, since `_screen`'s error term
    is positive wherever the gain can be. An open part is made exact through
    the cache only when its hi reaches the best exact gain and the
    acceptance threshold and exceeds 0, in order of decreasing hi. Gains are
    the same float expressions as a full rescan and the winner is the least
    key (-gain, kind rank, position), so the chosen move is the same.
    """

    def __init__(self, state: _RunState, omega: Sequence[int]):
        self.state = state
        cache = state.cache
        inst = cache.inst
        n = len(cache.ground_set)
        self.omega = np.zeros(n, dtype=bool)
        self.omega[omega] = True
        self.cu = cache.user_at      # index into inst.users
        self.cm = cache.macro_at     # index into inst.macros
        # each user's tuples are one run of positions: user i's start at first[i]
        self.first = np.searchsorted(self.cu, np.arange(len(inst.users) + 1))
        # w, r_macro, r_pico, rmin, rmax per position: the data phi reads
        self.data = (inst.weights[self.cu], cache.r_macro, cache.r_pico,
                     inst.rate_min[self.cu], inst.rate_max[self.cu])
        self.picos = [inst.picos_of[m] for m in inst.macros]
        self.members = [np.flatnonzero(self.omega & (self.cm == j))
                        for j in range(len(inst.macros))]
        self.free = [bool(cache.free_user[self.cu[ix]].all()) for ix in self.members]

        self.a_lo = np.full(n, -math.inf)
        self.a_hi = np.full(n, -math.inf)
        self.s_lo = np.full(n, -math.inf)
        self.s_hi = np.full(n, -math.inf)
        self.s_out: list[Optional[int]] = [None] * n
        self.drop = np.full(n, -math.inf)          # each current tuple's delete gain
        self.order: list[list[int]] = [[] for _ in inst.macros]   # current tuples, drop order
        self.duals: dict[int, _Dual] = {}          # macros with rate limits
        self.dirty = {j for j, ix in enumerate(self.members) if ix.size}
        self.moved: set[int] = set()

    # -- keeping the parts up to date -------------------------------------------

    def moved_pairs(self, out: Optional[int], inc: Optional[int]) -> None:
        for t in (out, inc):
            if t is not None:
                self.dirty.add(self.state.macro_at[t])
                self.moved.add(self.state.user_at[t])

    def _refresh(self) -> None:
        state, cache = self.state, self.state.cache
        for m in sorted(self.dirty):
            sl = state.slices[m]
            gains = []
            for o in sl:
                v = cache.macro_value(sl, out=o)
                assert v is not None
                gains.append(v - state.values[m])
            self.drop[list(sl)] = gains
            self.order[m] = [o for _, o in sorted(zip([-g for g in gains], sl))]
            if not self.free[m]:
                self.duals[m] = self._prices(m)
            self._score(m, self.members[m])
        for u in sorted(self.moved):
            mine = np.arange(self.first[u], self.first[u + 1])
            mine = mine[self.omega[mine]]
            for m in sorted(set(self.cm[mine].tolist()) - self.dirty):
                self._score(m, mine[self.cm[mine] == m])
        self.dirty.clear()
        self.moved.clear()

    def _prices(self, m: int) -> _Dual:
        state, cache = self.state, self.state.cache
        sl = state.slices[m]
        pos = np.array(sl, dtype=np.intp)
        slot = cache.slot[pos]
        lam = np.zeros(len(self.picos[m]))
        lam_m = 0.0
        if sl:
            alloc = allocate_cluster(cache._prepare(sl))
            lam_m = alloc.macro_price
            lam[slot] = [alloc.pico_prices[self.picos[m][q]] for q in slot.tolist()]
        count = np.bincount(slot, minlength=lam.size)
        data = tuple(x[pos] for x in self.data)
        phi = rate_values(lam_m, lam[slot], *data)
        value = state.values[m]
        gap = (lam_m + lam.sum() + phi.sum()) - value
        size = abs(value) + lam_m + lam.sum() + _magnitude(lam_m, lam[slot], phi, *data[:3]).sum()
        return _Dual(
            lam_m=lam_m, lam=lam, slot=slot, phi=phi,
            cut=np.where(count[slot] == 1, lam[slot], 0.0),
            gap=gap if math.isfinite(gap) else math.inf, size=size,
        )

    def _score(self, m: int, ix: np.ndarray) -> None:
        ix = ix[~self.cur[ix]]
        if not ix.size:
            return
        if not self.free[m]:
            self._bound(m, ix)
            return
        state, cache = self.state, self.state.cache
        sp = np.array(state.slices[m], dtype=np.intp)
        add, add_err, swap, swap_err = _screen(
            state.values[m],
            cache.wr_macro[sp], cache.wr_pico[sp], cache.slot[sp],
            cache.wr_macro[ix], cache.wr_pico[ix], cache.slot[ix],
            len(self.picos[m]),
        )
        self.a_lo[ix] = add - add_err
        self.a_hi[ix] = add + add_err
        self._swap_parts(m, ix, swap - swap_err, swap + swap_err)

    def _swap_parts(self, m: int, ix: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        """S parts of candidates ix from per-member swap intervals (rows ix,
        columns the slice): the best member for an unserved user, the user's
        own tuple for one served at m."""
        sl = self.state.slices[m]
        own = self.served[ix]
        unserved = own < 0
        if sl:
            self.s_lo[ix[unserved]] = lo[unserved].max(axis=1)
            self.s_hi[ix[unserved]] = hi[unserved].max(axis=1)
        else:
            self.s_lo[ix[unserved]] = self.s_hi[ix[unserved]] = -math.inf
        rows = np.flatnonzero(own == m)
        if rows.size:
            cols = np.searchsorted(sl, self.owner_of[ix[rows]])
            self.s_lo[ix[rows]] = lo[rows, cols]
            self.s_hi[ix[rows]] = hi[rows, cols]

    def _bound(self, m: int, ix: np.ndarray) -> None:
        """Parts of candidates ix on a macro with rate limits: [-inf, dual
        bound + margin]. A candidate on a pico the slice leaves empty prices
        it at 0: alone at unit budget, lam + phi(lam) has subgradient
        1 - gamma >= 0 in its pico price lam, so 0 minimizes it."""
        d = self.duals[m]
        data = tuple(x[ix] for x in self.data)
        slot = self.state.cache.slot[ix]
        lam = d.lam[slot]
        phi = rate_values(d.lam_m, lam, *data)
        c = d.gap + phi
        margin = _margin(len(d.phi) + 1, d.size + _magnitude(d.lam_m, lam, phi, *data[:3]))
        self.a_lo[ix] = -math.inf
        self.a_hi[ix] = _nan_up(c + margin)
        # a member's leaving takes its phi off the bound, and the price it
        # frees unless the candidate joins its pico
        leave = -d.phi - np.where(d.slot != slot[:, None], d.cut, 0.0)
        swap = _nan_up((c[:, None] + leave) + margin[:, None])
        self._swap_parts(m, ix, np.full_like(swap, -math.inf), swap)

    def _exact_add(self, i: int) -> None:
        state = self.state
        m = state.macro_at[i]
        av = state.cache.macro_value(state.slices[m], inc=i)
        self.a_lo[i] = self.a_hi[i] = av - state.values[m] if av is not None else -math.inf

    def _exact_swap(self, i: int) -> None:
        """Candidate i's S part through the cache, with the keys a full
        rescan evaluates: an unserved user's tuple replaces each current
        tuple in drop order, the first kept among equal gains."""
        state, cache = self.state, self.state.cache
        m = state.macro_at[i]
        sl = state.slices[m]
        own = state.owner[state.user_at[i]]
        if own < 0:
            best, out = -math.inf, None
            for o in self.order[m]:
                v = cache.macro_value(sl, o, i)
                if v is not None and v - state.values[m] > best:
                    best, out = v - state.values[m], o
        else:
            v = cache.macro_value(sl, own, i)
            best = v - state.values[m] if v is not None else -math.inf
            out = own
        self.s_lo[i] = self.s_hi[i] = best
        self.s_out[i] = out

    # -- one scan -----------------------------------------------------------------

    def best_move(self, threshold: float):
        """The move a full rescan accepts, as (kind, gain, out, inc), or None
        when its best gain is below the threshold or not positive."""
        # per position: the position serving its user (-1: none), whether it
        # is that position, and the serving macro
        owner = np.array(self.state.owner, dtype=np.intp)
        self.owner_of = owner[self.cu]
        self.cur = self.owner_of == np.arange(self.cu.size)
        self.served = np.where(self.owner_of >= 0, self.cm[self.owner_of], -1)
        self._refresh()
        heads = sorted((-self.drop.item(o[0]), o[0]) for o in self.order if o)
        top_del = -heads[0][0] if heads else -math.inf
        top_macro = self.state.macro_at[heads[0][1]] if heads else -1
        second = -heads[1][0] if len(heads) > 1 else -math.inf
        # best delete outside each candidate's macro, for swaps of unserved users
        outside = np.where(self.cm == top_macro, second, top_del)

        own = self.served
        open_ = self.omega & ~self.cur
        unserved = open_ & (own < 0)
        here = open_ & (own == self.cm)
        there = open_ & ~unserved & ~here
        own_drop = np.where(own >= 0, self.drop[self.owner_of], -math.inf)
        delete = np.where(self.cur, own_drop, -math.inf)   # a current tuple: its delete

        def parts(a, s):
            """A's and S's move gains per candidate (-inf where a part has no move)."""
            pa = np.where(unserved, np.maximum(a, a + outside),
                          np.where(there, a + own_drop, -math.inf))
            return pa, np.where(unserved | here, s, -math.inf)

        a_hi, s_hi = parts(self.a_hi, self.s_hi)
        best_hi = max(delete.max(initial=-math.inf), a_hi.max(initial=-math.inf),
                      s_hi.max(initial=-math.inf))
        if not (best_hi >= threshold and best_hi > 0.0):
            return None
        a_lo, s_lo = parts(self.a_lo, self.s_lo)
        best_lo = max(delete.max(initial=-math.inf), a_lo.max(initial=-math.inf),
                      s_lo.max(initial=-math.inf))
        # an open part (lo != hi) that could win: (-hi, part: 0 add / 1 swap, position)
        pending: list[tuple[float, int, int]] = []
        for kind, hi, open_part in ((0, a_hi, self.a_lo != self.a_hi),
                                    (1, s_hi, self.s_lo != self.s_hi)):
            ix = np.flatnonzero(open_part & (hi >= best_lo) & (hi >= threshold) & (hi > 0.0))
            pending += zip((-hi[ix]).tolist(), [kind] * ix.size, ix.tolist())
        for neg_hi, kind, i in sorted(pending):
            if -neg_hi < best_lo:
                break   # every later part is bounded below the best exact gain
            if kind == 0:
                self._exact_add(i)
                a = self.a_lo[i]
                got = max(a, a + outside[i]) if unserved[i] else a + own_drop[i]
            else:
                self._exact_swap(i)
                got = self.s_lo[i]
            best_lo = max(best_lo, got)

        # every move that could win is exact: its gain is lo. The winner is
        # the least (-gain, kind rank, position): a current tuple's delete
        # (rank 0), else a candidate's best move, a swap (1) when one
        # attains the gain and an add (2) otherwise
        a_lo, s_lo = parts(self.a_lo, self.s_lo)
        lo = np.maximum(np.maximum(delete, a_lo), s_lo)
        via_outside = self.a_lo + outside == lo
        rank = np.where(self.cur, 0, np.where(
            unserved & ~via_outside & (self.s_lo != lo), 2, 1))
        tied = np.flatnonzero(lo == lo.max())   # in position order
        i = int(tied[rank[tied].argmin()])
        best = float(lo[i])
        if best < threshold or best <= 0.0:
            return None
        if self.cur[i]:
            return "del", best, i, None
        if own[i] < 0 and rank[i] == 2:
            return "add", best, None, i
        if own[i] >= 0:
            return "swap", best, int(self.owner_of[i]), i
        # the swap outside i's macro comes first on a tie
        out = heads[int(self.cm[i] == top_macro)][1] if via_outside[i] else self.s_out[i]
        return "swap", best, out, i


def _local_search(
    state: _RunState,
    omega: Sequence[int],
    delta: float,
    max_iter: int,
    trace: list[tuple[str, float, float]],
) -> bool:
    """Best-improvement local search over delete, swap and add moves; stops
    when the best gain falls below delta times the current value. Returns
    whether it stopped at max_iter moves with an improving move left."""
    moves = _Moves(state, omega)
    for _ in range(max_iter):
        threshold = delta * state.total
        found = moves.best_move(threshold)
        if found is None:
            return False
        kind, gain, out, inc = found
        state.apply(out, inc)
        moves.moved_pairs(out, inc)
        trace.append((kind, gain, threshold))
    return moves.best_move(delta * state.total) is not None


def _single_run(
    cache: SetFunctionCache,
    omega: Sequence[int],
    delta: float,
    max_iter: int,
) -> tuple[_RunState, float, frozenset[Pair], list[tuple[str, float, float]], bool]:
    state = _RunState(cache)
    _greedy_stage(state, omega)
    greedy_value = state.total
    greedy_pairs = state.pairs()
    trace: list[tuple[str, float, float]] = []
    capped = _local_search(state, omega, delta, max_iter, trace)
    # the running total is a sum of deltas; it must match a fresh sum
    fresh = math.fsum(state.values)
    if not math.isclose(state.total, fresh, rel_tol=1e-9):
        raise AssertionError(f"running total {state.total!r} drifted from {fresh!r}")
    return state, greedy_value, greedy_pairs, trace, capped


def local_search_associate(
    inst: NetworkInstance,
    *,
    epsilon: float = 0.5,
    max_iter: Optional[int] = None,
) -> LocalSearchResult:
    """Greedy-seeded local search for the WSR association problem.

    Runs greedy plus local search on the full ground set, then again on the
    complement of the first result, and returns the better of the two; the
    local-search acceptance threshold scales with epsilon / |ground set|^4,
    and each run makes at most max_iter moves (None: 50 * |ground set|).
    """
    cache = SetFunctionCache(inst)
    gs = cache.ground_set
    delta = epsilon / float(max(len(gs), 1) ** 4)
    max_iter = 50 * len(gs) if max_iter is None else max_iter

    first, greedy_value, greedy_pairs, trace1, capped1 = _single_run(
        cache, list(range(len(gs))), delta, max_iter
    )
    taken = set(first.owner)
    rest = [t for t in range(len(gs)) if t not in taken]
    second, _, _, trace2, capped2 = _single_run(cache, rest, delta, max_iter)
    winner = first if first.total >= second.total else second

    assoc = {u: None for u in inst.users}
    for u, b in sorted(winner.pairs()):
        assoc[u] = (inst.pico_macro[b], b)
    fractions = AllocationFractions()
    for sl in winner.slices:
        if sl:
            fractions.merge(allocate_cluster(cache._prepare(sl)).fractions)
    return LocalSearchResult(
        association=Association(pairs=assoc),
        pairs=winner.pairs(),
        value=winner.total,
        greedy_pairs=greedy_pairs,
        greedy_value=greedy_value,
        fractions=fractions,
        trace=trace1 + trace2,
        capped=capped1 or capped2,
    )
