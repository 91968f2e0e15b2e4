"""Weighted sum-rate resource allocation inside one macro cluster.

A cluster is one macro TP plus the picos under it that currently serve
users; every user is attached to exactly one pico and may additionally be
served by the macro. Budgets are fractions of each TP's resource (time or
bandwidth share) available to the cluster.

A cluster (ClusterProblem) is the macro, its budget and one per-pico entry
per non-empty pico, in pico-id order, each with its users' rows and data,
least-macro start point and minimum macro need, and its segment stream once
traced. ClusterProblem.build validates a cluster given by user ids and
builds its entries; the WSR set function, changing one or two picos of a
cluster at a time, replaces those entries with ones from a PicoMemo, which
shares them by (pico, ordered users, pico budget) between the clusters of
one instance. An entry never changes once built: allocate_cluster replays
each stream on a clone of its start, up to the macro the merge grants it.

The solver exploits the problem's LP structure: once every user's minimum
rate is covered with the least possible macro resource, the marginal value
of additional macro resource is a piecewise-constant, non-increasing slope
curve per pico. Distributing the macro budget greedily over the merged
slope segments is optimal, and the traced segments double as a certificate
that lets callers evaluate the optimal value at any budget in one pass.
The slope where the macro budget runs out is the macro budget's optimal
dual price; with it, each pico's price is a one-dimensional convex
minimization, and the prices bound the value of any nearby cluster (weak
duality): local search settles moves by them, verify_kkt_wsr certifies points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import itemgetter, mul
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .net_model import (
    AllocationFractions,
    InfeasibleError,
    NetworkInstance,
    order_cluster,
)

# Absolute tolerance on resource amounts (budgets live in [0, 1]).
RES_TOL = 1e-12


@dataclass
class SlopeCurve:
    """Piecewise-constant marginal value of one resource budget.

    The underlying optimal value is concave piecewise-linear in the budget:
    value_at(z) = base_value + integral of the slope from start to z.
    Slopes are positive and non-increasing; the curve ends where no further
    resource helps (all users capped), after which the value stays flat.
    """

    start: float
    base_value: float
    widths: list[float] = field(default_factory=list)
    slopes: list[float] = field(default_factory=list)

    def value_at(self, z: float) -> float:
        if z < self.start - RES_TOL:
            raise ValueError("abscissa below curve domain")
        val = self.base_value
        left = max(z - self.start, 0.0)
        for w, s in zip(self.widths, self.slopes):
            take = min(left, w)
            val += s * take
            left -= take
            if left <= 0.0:
                break
        return val


# -- per-pico machinery ----------------------------------------------------


class _Pico:
    """One pico's users' rows (pico_row) and data in label order, its
    least-macro allocation `start` with `need`, `base` (w * rmin plus slack
    gain) and `value` (w * rate), and its segment stream, traced on a clone
    of start. `merge` holds the stream's segments (zero-width events stay
    out of the merged curve and its price) as (merge key, slope, width), the
    key minus the running minimum slope. All depend only on (pico, ordered
    users, pico budget), the key PicoMemo shares them by, and none of them
    is mutated once made: replay works on a clone of start."""

    __slots__ = ("b", "rows", "uid", "w", "r1", "rb", "rmin", "rmax", "budget",
                 "start", "need", "base", "value", "stream", "merge")

    def __init__(self, b: int, rows: Sequence[tuple], budget: float):
        self.b, self.rows = b, rows
        _, self.uid, self.w, self.r1, self.rb, self.rmin, self.rmax = zip(*rows)
        self.budget = budget
        self.start, self.need, gain = _initial_state(self)
        self.base = sum(map(mul, self.w, self.rmin)) + gain
        self.value = sum(map(mul, self.w, self.start.rate))
        self.stream = _trace_segments(self, self.start.clone(), 1.0 - self.need)
        self.merge = []
        low = math.inf
        for s, w, _, _ in self.stream:
            if s is not None:
                low = min(low, s)
                self.merge.append((-low, s, w))

    def replay(self, left: float) -> tuple["_State", float]:
        """The allocation after `left` > 0 macro beyond the need, and its value:
        the stream replayed on a clone of start, events whole and each
        segment up to what is left. Segments are wider than RES_TOL, so each
        one reached is applied."""
        st = self.start.clone()
        for slope, width, i, ib in self.stream:
            if slope is None:
                _apply_event(self, st, (slope, i, ib), width)
                continue
            t = min(width, left)
            _apply_move(self, st, (slope, i, ib), t)
            left -= t
            if t != width or left <= RES_TOL:
                break
        return st, sum(map(mul, self.w, st.rate))


def pico_row(inst: NetworkInstance, r1: float, rb: float, u: int) -> tuple:
    """User u's row as _Pico reads it, at macro rate r1 and pico rate rb:
    (-rb / r1, u, w, r1, rb, rmin, rmax). Sorting one pico's rows puts them
    in label order."""
    i = inst._uidx[u]
    return (-rb / r1, u, inst.weights.item(i), r1, rb, inst.rate_min.item(i),
            inst.rate_max.item(i))


_user = itemgetter(1)   # a row's user id


class PicoMemo:
    """Per-pico entries of one instance's clusters, keyed by (pico, ordered
    users, pico budget); it keeps every entry it builds."""

    def __init__(self):
        self._entries: dict[tuple, _Pico] = {}
        self.hits = self.misses = 0

    def get(self, b: int, rows: Sequence[tuple], budget: float) -> _Pico:
        """The entry of pico b at `budget` whose users' rows are `rows`, in
        label order."""
        key = (b, tuple(map(_user, rows)), budget)
        p = self._entries.get(key)
        if p is not None:
            self.hits += 1
            return p
        self.misses += 1
        p = self._entries[key] = _Pico(b, rows, budget)
        return p


class ClusterProblem(NamedTuple):
    """One macro cluster as allocate_cluster reads it: the macro, its budget
    and one entry per non-empty pico, in pico-id order, each listing its
    users in label order (decreasing pico/macro peak-rate ratio, the order in
    which pico resource substitutes macro resource most efficiently). Its
    users must be distinct and have positive peak rates; build checks that."""

    inst: NetworkInstance
    macro: int
    macro_budget: float
    views: tuple[_Pico, ...]

    @staticmethod
    def build(
        inst: NetworkInstance,
        macro: int,
        pico_users: Mapping[int, Sequence[int]],
        macro_budget: float = 1.0,
        pico_budgets: Optional[Mapping[int, float]] = None,
    ) -> "ClusterProblem":
        views = []
        for b, rows in order_cluster(inst, macro, pico_users, partial(pico_row, inst)).items():
            g = 1.0 if pico_budgets is None else float(pico_budgets[b])
            if not 0.0 <= g <= 1.0:
                raise ValueError(f"pico budget for {b} outside [0, 1]")
            views.append(_Pico(b, rows, g))
        if not 0.0 <= macro_budget <= 1.0:
            raise ValueError("macro budget outside [0, 1]")
        return ClusterProblem(inst, macro, float(macro_budget), tuple(views))

    @property
    def pico_users(self) -> dict[int, tuple[int, ...]]:
        return {p.b: p.uid for p in self.views}

    @property
    def pico_budgets(self) -> dict[int, float]:
        return {p.b: p.budget for p in self.views}


class _State:
    """Mutable allocation for one pico while tracing the slope curve."""

    __slots__ = ("theta", "gamma", "rate")

    def __init__(self, n: int, rmin: Sequence[float]):
        self.theta = [0.0] * n
        self.gamma = [0.0] * n
        self.rate = list(rmin)

    def clone(self) -> "_State":
        c = _State.__new__(_State)
        c.theta = list(self.theta)
        c.gamma = list(self.gamma)
        c.rate = list(self.rate)
        return c


def _initial_state(p: _Pico) -> tuple[_State, float, float]:
    """Allocation at the least-macro point.

    Returns (state, macro_need, slack_gain) where slack_gain is the weighted
    rate won by distributing leftover pico budget once all minima are met.
    """
    n = len(p.uid)
    st = _State(n, p.rmin)
    acc = 0.0
    covered = -1
    for i in range(n):
        nxt = acc + p.rmin[i] / p.rb[i]
        if nxt <= p.budget + RES_TOL:
            acc = nxt
            covered = i
        else:
            break
    for i in range(covered + 1):
        st.gamma[i] = p.rmin[i] / p.rb[i]
    if covered < n - 1:
        # pico budget exhausted on the low-label prefix; macro covers the rest
        leftover = max(p.budget - acc, 0.0)
        i1 = covered + 1
        st.gamma[i1] = leftover
        st.theta[i1] = max(p.rmin[i1] - leftover * p.rb[i1], 0.0) / p.r1[i1]
        for j in range(i1 + 1, n):
            st.theta[j] = p.rmin[j] / p.r1[j]
        need = st.theta[i1] + sum(st.theta[i1 + 1:])
        return st, need, 0.0

    # all minima fit in the pico budget; hand out the slack greedily
    slack = max(p.budget - acc, 0.0)
    gain = 0.0
    order = sorted(range(n), key=lambda i: (-p.w[i] * p.rb[i], p.uid[i]))
    for i in order:
        if slack <= RES_TOL:
            break
        room = (p.rmax[i] - st.rate[i]) / p.rb[i]
        take = min(slack, room)
        st.gamma[i] += take
        st.rate[i] += take * p.rb[i]
        gain += p.w[i] * take * p.rb[i]
        slack -= take
    return st, 0.0, gain


def _boundary(p: _Pico, st: _State) -> Optional[int]:
    """Largest label currently holding pico resource (exchange medium)."""
    for i in range(len(p.uid) - 1, -1, -1):
        if st.gamma[i] > RES_TOL:
            return i


def _capped(p: _Pico, st: _State, i: int) -> bool:
    mx = p.rmax[i]
    if math.isinf(mx):
        return False
    return mx - st.rate[i] <= RES_TOL * max(1.0, mx)


def _best_move(p: _Pico, st: _State) -> Optional[tuple[float, int, Optional[int]]]:
    """Highest marginal gain per unit macro: (slope, receiver, boundary|None).

    Receivers above the boundary label take macro directly; receivers below
    it take pico resource freed by substituting macro at the boundary user.
    """
    ib = _boundary(p, st)
    best: Optional[tuple[float, int, Optional[int]]] = None
    for i in range(len(p.uid)):
        if _capped(p, st, i):
            continue
        if ib is not None and i < ib:
            s = p.w[i] * p.rb[i] * p.r1[ib] / p.rb[ib]
            move: tuple[float, int, Optional[int]] = (s, i, ib)
        else:
            s = p.w[i] * p.r1[i]
            move = (s, i, None)
        if s <= 0.0:
            continue
        if best is None or s > best[0] or (s == best[0] and p.uid[i] < p.uid[best[1]]):
            best = move
    return best


def _move_width(p: _Pico, st: _State, move: tuple[float, int, Optional[int]]) -> float:
    """Macro amount until this move's slope changes (cap hit or drain)."""
    _, i, ib = move
    if ib is None:
        return (p.rmax[i] - st.rate[i]) / p.r1[i]
    q = p.r1[ib] / p.rb[ib]  # pico freed per unit macro
    drain = st.gamma[ib] / q
    if math.isinf(p.rmax[i]):
        return drain
    cap = (p.rmax[i] - st.rate[i]) / (q * p.rb[i])
    return min(cap, drain)


def _apply_move(
    p: _Pico, st: _State, move: tuple[float, int, Optional[int]], t: float
) -> None:
    _, i, ib = move
    if ib is None:
        st.theta[i] += t
        st.rate[i] += t * p.r1[i]
    else:
        q = p.r1[ib] / p.rb[ib]
        st.theta[ib] += t
        st.gamma[ib] = max(st.gamma[ib] - t * q, 0.0)
        st.gamma[i] += t * q
        st.rate[i] += t * q * p.rb[i]
    if _capped(p, st, i):
        st.rate[i] = p.rmax[i]  # snap to the cap so the user leaves the pool


def _apply_event(p: _Pico, st: _State, move: tuple, t: float) -> None:
    """A zero-width event (a cap or a drain within RES_TOL macro): apply it
    and clear what is left on a drained boundary."""
    _apply_move(p, st, move, t)
    if move[2] is not None and st.gamma[move[2]] <= RES_TOL:
        st.gamma[move[2]] = 0.0


def _trace_segments(
    p: _Pico, st: _State, z_limit: float
) -> list[tuple[Optional[float], float, int, Optional[int]]]:
    """Walk the greedy moves up to z_limit macro units.

    Returns, in trace order, (slope, width, receiver, boundary|None) per
    constant-slope segment and (None, t, receiver, boundary|None) per
    zero-width event, applied with macro t; mutates st to the allocation
    after spending the full width.
    """
    segs: list[tuple[Optional[float], float, int, Optional[int]]] = []
    spent = 0.0
    while z_limit - spent > RES_TOL:
        move = _best_move(p, st)
        if move is None:
            break
        width = _move_width(p, st, move)
        if width <= RES_TOL:
            t = width if math.isfinite(width) else 0.0
            _apply_event(p, st, move, t)
            segs.append((None, t, move[1], move[2]))
            continue
        take = min(width, z_limit - spent)
        _apply_move(p, st, move, take)
        slope, i, ib = move
        segs.append((slope, take, i, ib))
        spent += take
    return segs


# -- cluster-level allocation ------------------------------------------------


_first = itemgetter(0)   # a merge entry's key


@dataclass
class ClusterAllocation:
    """Result of allocate_cluster; `fractions` is built from `ends` on first read."""

    value: float
    curve: SlopeCurve            # merged over all picos, function of macro budget
    macro: int = field(repr=False, compare=False)
    ends: list[tuple[_Pico, _State]] = field(repr=False, compare=False)
    macro_price: float = field(repr=False, compare=False)   # slope where the budget ends

    @cached_property
    def pico_prices(self) -> dict[int, float]:
        """Each pico's budget price, optimal given macro_price: together they
        make the dual bound equal `value` (strong duality)."""
        return {
            p.b: pico_price(self.macro_price, p.budget,
                            *map(np.array, (p.w, p.r1, p.rb, p.rmin, p.rmax)))
            for p, _ in self.ends
        }

    @cached_property
    def fractions(self) -> AllocationFractions:
        out = AllocationFractions()
        for p, st in self.ends:
            for i, u in enumerate(p.uid):
                if st.theta[i] > 0.0:
                    out.theta[(u, self.macro)] = st.theta[i]
                if st.gamma[i] > 0.0:
                    out.gamma[(u, p.b)] = st.gamma[i]
        return out


def allocate_cluster(cl: ClusterProblem) -> ClusterAllocation:
    """Optimal split of the macro budget across the cluster's picos.

    Greedy over the merged per-pico slope curves: repeatedly feed the pico
    whose current slope segment is steepest (ties to the smallest pico id)
    until the budget beyond the minimum needs is exhausted.
    """
    # the merge feeds the steepest head first, ties to the lowest pico index;
    # a stable sort of the segments in (pico index, position) order by merge
    # key gives its order, also where a stream's slope rises: a head the
    # merge holds back behind a flatter one of its own stream waits on that
    # slope, its key
    views = cl.views
    total_need = base = price = 0.0
    order = []
    for k, p in enumerate(views):
        total_need += p.need
        base += p.base
        for key, slope, width in p.merge:
            order.append((key, k, slope, width))
    if total_need > cl.macro_budget + RES_TOL:
        raise InfeasibleError(
            f"macro budget {cl.macro_budget} below total minimum need {total_need}"
        )
    order.sort(key=_first)
    if order:   # no budget beyond the need: the slope of the first unit past it
        price = order[0][2]

    widths: list[float] = []
    slopes: list[float] = []
    taken = [0.0] * len(views)
    budget_left = max(cl.macro_budget - total_need, 0.0)
    domain_left = max(1.0 - total_need, 0.0)
    for _, k, slope, width in order:
        if domain_left <= RES_TOL:
            break
        take = min(width, domain_left)
        widths.append(take)
        slopes.append(slope)
        if budget_left > RES_TOL:
            spend = min(take, budget_left)
            taken[k] += spend
            budget_left -= spend
            price = slope
        domain_left -= take

    # replay each pico's own segments up to its granted width
    ends = []
    value = 0.0
    for p, left in zip(views, taken):
        if left == 0.0:   # no macro beyond the need: the start point stands
            st = p.start
            value += p.value
        else:
            st, v = p.replay(left)
            value += v
        ends.append((p, st))
    if budget_left > RES_TOL:   # the curve ends first: more macro adds nothing
        price = 0.0
    return ClusterAllocation(value, SlopeCurve(total_need, base, widths, slopes), cl.macro, ends,
                             price)


def solo_values(w, r1, rb, rmin) -> np.ndarray:
    """allocate_cluster's value, in its float operations, of each user alone
    in its cluster at unit budgets (NaN: infeasible), for users with no rate
    cap and w * r1 > 0: the pico covers the minimum rate and the slack, or
    the macro the rest of the minimum; the macro left over goes to the user."""
    with np.errstate(all="ignore"):
        a = rmin / rb
        slack = np.maximum(1.0 - a, 0.0)
        start = np.where(slack > RES_TOL, rmin + slack * rb, rmin)
        need = np.maximum(rmin - rb, 0.0) / r1
        z = 1.0 - need
        late = np.where(np.maximum(z, 0.0) > RES_TOL, rmin + z * r1, rmin)
        late = np.where(need > 1.0 + RES_TOL, np.nan, w * late)
        return np.where(a <= 1.0 + RES_TOL, w * (start + r1), late)


# -- dual prices -----------------------------------------------------------------


def rate_values(lam_m, lam_b, w, r1, rb, rmin, rmax):
    """phi: the most one user adds to the Lagrangian at macro price lam_m and
    pico price lam_b, the maximum of (w r1 - lam_m) theta + (w rb - lam_b)
    gamma over theta, gamma in [0, 1] with rmin <= theta r1 + gamma rb <=
    rmax. Broadcasts over numpy arrays.

    The maximum sits at a vertex of that polygon: (1, 0) or (0, 1) when its
    rate lies in [rmin, rmax], or where a rate bound meets the box, filled
    macro first or pico first and clipped to the box (which also yields
    (0, 0) and (1, 1)). Every candidate lies in the polygon when the user is
    feasible alone, so no vertex is missed and none is added.
    """
    with np.errstate(all="ignore"):
        a = w * r1 - lam_m
        c = w * rb - lam_b
        best = np.maximum(np.where((rmin <= r1) & (r1 <= rmax), a, -np.inf),
                          np.where((rmin <= rb) & (rb <= rmax), c, -np.inf))
        for rho in (rmin, rmax):
            macro_first = (np.minimum(rho / r1, 1.0),
                           np.minimum(np.maximum(rho - r1, 0.0) / rb, 1.0))
            pico_first = (np.minimum(np.maximum(rho - rb, 0.0) / r1, 1.0),
                          np.minimum(rho / rb, 1.0))
            for th, ga in (macro_first, pico_first):
                best = np.maximum(best, a * th + c * ga)
    return best


def _breakpoints(lam_m, w, r1, rb) -> np.ndarray:
    """0 and each user's pico prices where phi changes slope, shape (3, n):
    where its pico coefficient w rb - lam changes sign, and where its pico
    and macro rates cost alike (lam = lam_m rb / r1). Any price >= 0 keeps
    the bound valid, so one that overflows is replaced by 0."""
    with np.errstate(all="ignore"):
        lams = np.stack([np.zeros_like(w), w * rb, lam_m * rb / r1])
    return np.where(np.isfinite(lams), lams, 0.0)


def pico_price(lam_m, budget, w, r1, rb, rmin, rmax) -> float:
    """The pico price minimizing budget * lam + sum of its users' phi at macro
    price lam_m. That sum is convex and piecewise linear in lam, so its
    minimum lies at one of the users' breakpoints. It is often flat there
    (a user holding the whole pico); the largest minimizer is taken, which
    keeps the bound at this cluster and bounds adds to the pico tightest."""
    lams = np.sort(_breakpoints(lam_m, w, r1, rb).ravel())[::-1]
    with np.errstate(all="ignore"):
        total = budget * lams + rate_values(lam_m, lams[:, None], w, r1, rb, rmin, rmax).sum(axis=1)
    return float(lams[np.argmin(np.where(np.isnan(total), np.inf, total))])


# -- optimality certificate --------------------------------------------------


def verify_kkt_wsr(
    cl: ClusterProblem, fractions: AllocationFractions, alloc: Optional[ClusterAllocation] = None
) -> list[str]:
    """Certify a point of the cluster optimal by LP duality; returns
    messages, none when it passes.

    The point must be feasible (shares >= 0 and within their budgets, rates
    within their limits) and its weighted sum rate must reach, within tol,
    the Lagrangian bound lam_m macro_budget + sum_b lam_b budget_b + sum_u
    phi_u (rate_values). For any prices >= 0 the bound is at least the
    optimum (weak duality), so a point that passes is optimal whatever the
    prices are. The allocator's prices may therefore certify its own output:
    a bad price only raises the bound, a false alarm, never a false pass.
    The prices are `alloc`'s when given, else allocate_cluster(cl)'s.
    """
    tol = 1e-7   # absolute on shares and budgets, relative on rates and the gap
    m, views = cl.macro, cl.views
    on = [(u, p.b) for p in views for u in p.uid]
    w, r1, rb, rmin, rmax = (np.array([x for p in views for x in getattr(p, a)], dtype=float)
                             for a in ("w", "r1", "rb", "rmin", "rmax"))
    th = np.array([fractions.theta.get((u, m), 0.0) for u, _ in on])
    ga = np.array([fractions.gamma.get(t, 0.0) for t in on])
    rate = th * r1 + ga * rb
    bad = [f"user {u}: negative share"
           for (u, _), s in zip(on, np.minimum(th, ga).tolist()) if not s >= -tol]
    spent = [("macro", th, cl.macro_budget)] + [
        (f"pico {p.b}", ga[[c == p.b for _, c in on]], p.budget) for p in views]
    bad += [f"{tp}: shares sum to {x.sum():.6g} over the budget {g:.6g}"
            for tp, x, g in spent if not x.sum() <= g + tol]
    bad += [f"user {u}: rate {r:.6g} outside [{lo:.6g}, {hi:.6g}]"
            for (u, _), r, lo, hi in zip(on, rate.tolist(), rmin.tolist(), rmax.tolist())
            if not lo - tol * max(1.0, lo) <= r <= hi + tol * max(1.0, hi)]
    if bad:
        return bad
    if alloc is None:
        try:
            alloc = allocate_cluster(cl)
        except InfeasibleError as e:
            return [f"infeasible cluster: {e}"]
    lam = alloc.pico_prices
    phi = rate_values(alloc.macro_price, np.array([lam[b] for _, b in on]), w, r1, rb, rmin, rmax)
    bound = (alloc.macro_price * cl.macro_budget
             + sum(lam[p.b] * p.budget for p in views) + phi.sum())
    value = float(w @ rate)
    if not value >= bound - tol * max(1.0, abs(bound)):
        return [f"weighted sum rate {value:.6g} is below the dual bound {bound:.6g}"]
    return []
