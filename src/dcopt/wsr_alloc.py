"""Weighted sum-rate resource allocation inside one macro cluster.

A cluster is one macro TP plus the picos under it that currently serve
users; every user is attached to exactly one pico and may additionally be
served by the macro. Budgets are fractions of each TP's resource (time or
bandwidth share) available to the cluster.

The solver exploits the problem's LP structure: once every user's minimum
rate is covered with the least possible macro resource, the marginal value
of additional macro resource is a piecewise-constant, non-increasing slope
curve per pico. Distributing the macro budget greedily over the merged
slope segments is optimal, and the traced segments double as a certificate
that lets callers evaluate the optimal value at any budget in one pass.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .net_model import (
    AllocationFractions,
    InfeasibleError,
    NetworkInstance,
)

# Absolute tolerance on resource amounts (budgets live in [0, 1]).
RES_TOL = 1e-12


@dataclass(frozen=True)
class ClusterProblem:
    """One macro cluster: serving pico per user, budgets per TP.

    pico_users lists each pico's users ordered by decreasing pico/macro
    peak-rate ratio (the order in which pico resource substitutes macro
    resource most efficiently). Construct via ClusterProblem.build.
    """

    inst: NetworkInstance
    macro: int
    pico_users: Mapping[int, tuple[int, ...]]
    macro_budget: float
    pico_budgets: Mapping[int, float]

    @staticmethod
    def build(
        inst: NetworkInstance,
        macro: int,
        pico_users: Mapping[int, Sequence[int]],
        macro_budget: float = 1.0,
        pico_budgets: Optional[Mapping[int, float]] = None,
    ) -> "ClusterProblem":
        if macro not in inst.picos_of:
            raise ValueError(f"unknown macro {macro}")
        seen: set[int] = set()
        ordered: dict[int, tuple[int, ...]] = {}
        budgets: dict[int, float] = {}
        rate, row, tm = inst.rates.item, inst._uidx, inst._tidx[macro]
        for b in sorted(pico_users):
            users = list(pico_users[b])
            if not users:
                continue
            if b not in inst.picos_of[macro]:
                raise ValueError(f"pico {b} not under macro {macro}")
            tb = inst._tidx[b]
            keyed = []
            for u in users:
                if u in seen:
                    raise ValueError(f"user {u} attached to two picos")
                seen.add(u)
                r1, rb = rate(row[u], tm), rate(row[u], tb)
                if not (r1 > 0 and rb > 0):
                    raise ValueError(f"user {u} needs positive peak rates")
                keyed.append((-rb / r1, u))
            keyed.sort()
            ordered[b] = tuple([u for _, u in keyed])
            g = 1.0 if pico_budgets is None else float(pico_budgets[b])
            if not 0.0 <= g <= 1.0:
                raise ValueError(f"pico budget for {b} outside [0, 1]")
            budgets[b] = g
        if not 0.0 <= macro_budget <= 1.0:
            raise ValueError("macro budget outside [0, 1]")
        return ClusterProblem(
            inst=inst,
            macro=macro,
            pico_users=ordered,
            macro_budget=float(macro_budget),
            pico_budgets=budgets,
        )

    @property
    def users(self) -> tuple[int, ...]:
        return tuple(u for b in sorted(self.pico_users) for u in self.pico_users[b])


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
    """One pico's users in label order, its least-macro allocation `start`
    (never mutated) with `need`, `base` (w * rmin plus slack gain) and
    `value` (w * rate), and its segment stream once traced. All depend only
    on (pico, ordered users, pico budget), the key PicoMemo shares them by."""

    __slots__ = ("uid", "w", "r1", "rb", "rmin", "rmax", "budget",
                 "start", "need", "base", "value", "stream")

    def __init__(self, cl: ClusterProblem, b: int):
        inst = cl.inst
        self.uid = cl.pico_users[b]
        rows = [inst._uidx[u] for u in self.uid]
        rate, tm, tb = inst.rates.item, inst._tidx[cl.macro], inst._tidx[b]
        self.w = tuple(map(inst.weights.item, rows))
        self.r1 = tuple([rate(i, tm) for i in rows])
        self.rb = tuple([rate(i, tb) for i in rows])
        self.rmin = tuple(map(inst.rate_min.item, rows))
        self.rmax = tuple(map(inst.rate_max.item, rows))
        self.budget = cl.pico_budgets[b]
        self.start, self.need, gain = _initial_state(self)
        self.base = sum(w * r for w, r in zip(self.w, self.rmin)) + gain
        self.value = sum(w * r for w, r in zip(self.w, self.start.rate))
        self.stream: Optional[tuple] = None


PICO_CAP = 128  # per-pico entries a PicoMemo keeps


class PicoMemo:
    """LRU of allocate_cluster's per-pico entries for one instance, keyed by
    (pico, ordered users, pico budget) and bounded by PICO_CAP."""

    def __init__(self, inst: NetworkInstance):
        self.inst = inst
        self._entries: OrderedDict[tuple, _Pico] = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def get(self, cl: ClusterProblem, b: int) -> _Pico:
        key = (b, cl.pico_users[b], cl.pico_budgets[b])
        p = self._entries.get(key)
        if p is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return p
        self.misses += 1
        p = self._entries[key] = _Pico(cl, b)
        if len(self._entries) > PICO_CAP:
            self._entries.popitem(last=False)
            self.evictions += 1
        return p


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
    if covered < n - 1:
        # pico budget exhausted on the low-label prefix; macro covers the rest
        for i in range(covered + 1):
            st.gamma[i] = p.rmin[i] / p.rb[i]
        leftover = max(p.budget - acc, 0.0)
        i1 = covered + 1
        st.gamma[i1] = leftover
        st.theta[i1] = max(p.rmin[i1] - leftover * p.rb[i1], 0.0) / p.r1[i1]
        for j in range(i1 + 1, n):
            st.theta[j] = p.rmin[j] / p.r1[j]
        need = st.theta[i1] + sum(st.theta[i1 + 1:])
        return st, need, 0.0

    # all minima fit in the pico budget; hand out the slack greedily
    for i in range(n):
        st.gamma[i] = p.rmin[i] / p.rb[i]
    slack = max(p.budget - acc, 0.0)
    gain = 0.0
    order = sorted(range(n), key=lambda i: (-p.w[i] * p.rb[i], p.uid[i]))
    for i in order:
        if slack <= RES_TOL:
            break
        room = (p.rmax[i] - st.rate[i]) / p.rb[i]
        take = min(slack, room)
        if take <= 0.0:
            continue
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
    return None


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
        if math.isinf(p.rmax[i]):
            return math.inf
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
    if not math.isinf(p.rmax[i]) and _capped(p, st, i):
        st.rate[i] = p.rmax[i]  # snap to the cap so the user leaves the pool


def _trace_segments(
    p: _Pico, st: _State, z_limit: float
) -> list[tuple[float, float, int, Optional[int]]]:
    """Walk the greedy moves up to z_limit macro units.

    Returns (slope, width, receiver, boundary|None) per constant-slope
    segment; mutates st to the allocation after spending the full width.
    """
    segs: list[tuple[float, float, int, Optional[int]]] = []
    spent = 0.0
    while z_limit - spent > RES_TOL:
        move = _best_move(p, st)
        if move is None:
            break
        width = _move_width(p, st, move)
        if width <= RES_TOL:
            # zero-width event: finalize it and rescan
            _apply_move(p, st, move, width if math.isfinite(width) else 0.0)
            if move[2] is not None and st.gamma[move[2]] <= RES_TOL:
                st.gamma[move[2]] = 0.0
            continue
        take = min(width, z_limit - spent)
        _apply_move(p, st, move, take)
        slope, i, ib = move
        segs.append((slope, take, i, ib))
        spent += take
    return segs


# -- cluster-level allocation ------------------------------------------------


@dataclass
class ClusterAllocation:
    """Result of allocate_cluster; `fractions` is built from `ends` on first read."""

    value: float
    curve: SlopeCurve            # merged over all picos, function of macro budget
    macro_shares: dict[int, float]
    macro: int = field(repr=False, compare=False)
    ends: list[tuple[int, _Pico, _State]] = field(repr=False, compare=False)

    @cached_property
    def fractions(self) -> AllocationFractions:
        out = AllocationFractions()
        for b, p, st in self.ends:
            for i, u in enumerate(p.uid):
                if st.theta[i] > 0.0:
                    out.theta[(u, self.macro)] = st.theta[i]
                if st.gamma[i] > 0.0:
                    out.gamma[(u, b)] = st.gamma[i]
        return out


def allocate_cluster(cl: ClusterProblem, memo: Optional[PicoMemo] = None) -> ClusterAllocation:
    """Optimal split of the macro budget across the cluster's picos.

    Greedy over the merged per-pico slope curves: repeatedly feed the pico
    whose current slope segment is steepest (ties to the smallest pico id)
    until the budget beyond the minimum needs is exhausted. Per-pico work
    comes from `memo`, a fresh one when None; a memo serves one instance.
    """
    if memo is None:
        memo = PicoMemo(cl.inst)
    elif memo.inst is not cl.inst:
        raise ValueError("memo belongs to another instance")
    picos = sorted(cl.pico_users)
    views = [memo.get(cl, b) for b in picos]
    total_need = sum([p.need for p in views])
    if total_need > cl.macro_budget + RES_TOL:
        raise InfeasibleError(
            f"macro budget {cl.macro_budget} below total minimum need {total_need}"
        )

    # full per-pico segment streams, traced once per entry on a clone of its start
    for p in views:
        if p.stream is None:
            p.stream = tuple(_trace_segments(p, p.start.clone(), 1.0 - p.need))
    streams = [p.stream for p in views]

    merged = SlopeCurve(start=total_need, base_value=sum([p.base for p in views]))
    heads = [0] * len(views)
    taken = [0.0] * len(views)
    budget_left = max(cl.macro_budget - total_need, 0.0)
    domain_left = max(1.0 - total_need, 0.0)
    while domain_left > RES_TOL:
        pick = -1
        for k, s in enumerate(streams):
            if heads[k] < len(s) and (pick < 0 or s[heads[k]][0] > top):
                pick, top = k, s[heads[k]][0]
        if pick < 0:
            break
        slope, width, _, _ = streams[pick][heads[pick]]
        take = min(width, domain_left)
        merged.widths.append(take)
        merged.slopes.append(slope)
        if budget_left > RES_TOL:
            spend = min(take, budget_left)
            taken[pick] += spend
            budget_left -= spend
        domain_left -= take
        heads[pick] += 1

    # replay each pico's own segments up to its granted width
    ends = []
    shares: dict[int, float] = {}
    value = 0.0
    for b, p, left in zip(picos, views, taken):
        shares[b] = p.need + left
        st = p.start
        if left == 0.0:   # no macro beyond the need: the start point stands
            value += p.value
        else:
            st = st.clone()
            for slope, width, i, ib in p.stream:
                t = min(width, left)
                if t > 0.0:
                    _apply_move(p, st, (slope, i, ib), t)
                    left -= t
                if left <= RES_TOL:
                    break
            value += sum(w * r for w, r in zip(p.w, st.rate))
        ends.append((b, p, st))
    return ClusterAllocation(
        value=value, curve=merged, macro_shares=shares, macro=cl.macro, ends=ends
    )


# -- optimality conditions ----------------------------------------------------


def verify_kkt_wsr(
    cl: ClusterProblem,
    fractions: AllocationFractions,
    tol: float = 1e-7,
) -> list[str]:
    """Check the exchange-based optimality conditions on a candidate point.

    Returns human-readable violation messages (empty list when the point
    passes). The conditions are necessary for optimality: no pairwise
    resource exchange between users or TPs may raise the weighted sum rate.
    """
    inst = cl.inst
    m = cl.macro
    users = list(cl.users)
    pico_of = {u: b for b in cl.pico_users for u in cl.pico_users[b]}
    th = {u: fractions.theta.get((u, m), 0.0) for u in users}
    ga = {u: fractions.gamma.get((u, pico_of[u]), 0.0) for u in users}
    rate = {
        u: th[u] * inst.rate(u, m) + ga[u] * inst.rate(u, pico_of[u]) for u in users
    }
    w = {u: inst.weight(u) for u in users}
    r1 = {u: inst.rate(u, m) for u in users}
    rb = {u: inst.rate(u, pico_of[u]) for u in users}
    ratio = {u: rb[u] / r1[u] for u in users}
    pos = 1e-9

    def above_min(u: int) -> bool:
        return rate[u] > inst.rmin(u) + tol * max(1.0, inst.rmin(u))

    def below_max(u: int) -> bool:
        mx = inst.rmax(u)
        return math.isinf(mx) or rate[u] < mx - tol * max(1.0, mx)

    bad: list[str] = []

    # macro resource must not sit on a low-ratio user while a higher-ratio
    # peer of the same pico still holds pico resource
    for b, us in sorted(cl.pico_users.items()):
        for k in us:
            for j in us:
                if ratio[k] > ratio[j] * (1 + 1e-12) and th[k] > pos and ga[j] > pos:
                    bad.append(
                        f"pico {b}: user {k} takes macro while lower-ratio "
                        f"user {j} holds pico resource"
                    )

    # slack ordering: resource above the minimum must flow to the heaviest
    # weighted peak rate first
    for b, us in sorted(cl.pico_users.items()):
        for k in us:
            for j in us:
                if (
                    w[k] * rb[k] > w[j] * rb[j] * (1 + tol)
                    and ga[j] > pos
                    and above_min(j)
                    and below_max(k)
                ):
                    bad.append(
                        f"pico {b}: slack pico resource on user {j} while "
                        f"user {k} has a larger weighted pico rate and room"
                    )
    for k in users:
        for j in users:
            if (
                w[k] * r1[k] > w[j] * r1[j] * (1 + tol)
                and th[j] > pos
                and above_min(j)
                and below_max(k)
            ):
                bad.append(
                    f"macro: slack resource on user {j} while user {k} has "
                    f"a larger weighted macro rate and room"
                )

    # cross-TP exchange bounds on the pico/macro rate ratio
    for b, us in sorted(cl.pico_users.items()):
        for k in us:
            if ga[k] > pos:
                donors = [
                    w[j] * r1[j]
                    for j in users
                    if j != k and th[j] > pos and above_min(j)
                ]
                takers = [w[j] * rb[j] for j in us if j != k and below_max(j)]
                if donors and takers:
                    lhs = ratio[k]
                    rhs = max(takers) / min(donors)
                    if lhs < rhs * (1 - tol) - tol:
                        bad.append(
                            f"pico {b}: user {k} holds pico resource but its "
                            f"rate ratio {lhs:.6g} is below the exchange "
                            f"bound {rhs:.6g}"
                        )
            if th[k] > pos:
                donors = [
                    w[j] * rb[j] for j in us if j != k and ga[j] > pos and above_min(j)
                ]
                takers = [w[j] * r1[j] for j in users if j != k and below_max(j)]
                if donors and takers:
                    lhs = ratio[k]
                    rhs = min(donors) / max(takers)
                    if lhs > rhs * (1 + tol) + tol:
                        bad.append(
                            f"pico {b}: user {k} holds macro resource but its "
                            f"rate ratio {lhs:.6g} is above the exchange "
                            f"bound {rhs:.6g}"
                        )
    return bad
