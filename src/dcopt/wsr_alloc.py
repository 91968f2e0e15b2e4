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
from dataclasses import dataclass, field
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
        for b in sorted(pico_users):
            users = list(pico_users[b])
            if not users:
                continue
            if b not in inst.picos_of[macro]:
                raise ValueError(f"pico {b} not under macro {macro}")
            for u in users:
                if u in seen:
                    raise ValueError(f"user {u} attached to two picos")
                seen.add(u)
                if inst.rate(u, macro) <= 0 or inst.rate(u, b) <= 0:
                    raise ValueError(f"user {u} needs positive peak rates")
            users.sort(key=lambda u: (-inst.rate(u, b) / inst.rate(u, macro), u))
            ordered[b] = tuple(users)
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

    @property
    def end(self) -> float:
        return self.start + sum(self.widths)

    def breakpoints(self) -> list[float]:
        pts = [self.start]
        for w in self.widths:
            pts.append(pts[-1] + w)
        return pts

    def slope_at(self, z: float) -> float:
        """Right-continuous slope; zero beyond the last segment."""
        if z < self.start - RES_TOL:
            raise ValueError("abscissa below curve domain")
        pos = self.start
        for w, s in zip(self.widths, self.slopes):
            if z < pos + w - RES_TOL:
                return s
            pos += w
        return 0.0

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

    def check(self) -> None:
        """Assert structural invariants (used by tests)."""
        assert all(w > 0 for w in self.widths), "non-positive segment width"
        assert all(s > 0 for s in self.slopes), "non-positive slope"
        for a, b in zip(self.slopes, self.slopes[1:]):
            assert b <= a + 1e-9 * max(1.0, abs(a)), "slopes must not increase"


# -- per-pico machinery ----------------------------------------------------


class _Pico:
    """Flat per-pico view of the cluster data, label order preserved."""

    __slots__ = ("pico", "uid", "w", "r1", "rb", "rmin", "rmax", "budget")

    def __init__(self, cl: ClusterProblem, b: int, gamma_b: Optional[float]):
        inst = cl.inst
        self.pico = b
        self.uid = list(cl.pico_users[b])
        self.w = [inst.weight(u) for u in self.uid]
        self.r1 = [inst.rate(u, cl.macro) for u in self.uid]
        self.rb = [inst.rate(u, b) for u in self.uid]
        self.rmin = [inst.rmin(u) for u in self.uid]
        self.rmax = [inst.rmax(u) for u in self.uid]
        self.budget = cl.pico_budgets[b] if gamma_b is None else float(gamma_b)

    def __len__(self) -> int:
        return len(self.uid)


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


def _min_macro_need(p: _Pico, gamma_b: float) -> float:
    """Least macro resource meeting all minimum rates given pico budget."""
    acc = 0.0
    covered = -1  # last label whose minimum the pico can fully cover
    for i in range(len(p)):
        nxt = acc + p.rmin[i] / p.rb[i]
        if nxt <= gamma_b + RES_TOL:
            acc = nxt
            covered = i
        else:
            break
    if covered == len(p) - 1:
        return 0.0
    leftover = max(gamma_b - acc, 0.0)
    i1 = covered + 1
    need = max(p.rmin[i1] - leftover * p.rb[i1], 0.0) / p.r1[i1]
    for j in range(i1 + 1, len(p)):
        need += p.rmin[j] / p.r1[j]
    return need


def _min_pico_need(p: _Pico, z_b: float) -> float:
    """Least pico resource meeting all minimum rates given macro share z_b."""
    acc = 0.0
    covered = len(p)  # first label (from the top) whose minimum macro covers
    for i in range(len(p) - 1, -1, -1):
        nxt = acc + p.rmin[i] / p.r1[i]
        if nxt <= z_b + RES_TOL:
            acc = nxt
            covered = i
        else:
            break
    if covered == 0:
        return 0.0
    leftover = max(z_b - acc, 0.0)
    i1 = covered - 1
    need = max(p.rmin[i1] - leftover * p.r1[i1], 0.0) / p.rb[i1]
    for j in range(i1):
        need += p.rmin[j] / p.rb[j]
    return need


def _initial_state(p: _Pico) -> tuple[_State, float, float]:
    """Allocation at the least-macro point.

    Returns (state, macro_need, slack_gain) where slack_gain is the weighted
    rate won by distributing leftover pico budget once all minima are met.
    """
    n = len(p)
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
    for i in range(len(p) - 1, -1, -1):
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
    for i in range(len(p)):
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


def _pico_view(cl: ClusterProblem, b: int, gamma_b: Optional[float]) -> _Pico:
    if b not in cl.pico_users:
        raise ValueError(f"pico {b} not in cluster")
    return _Pico(cl, b, gamma_b)


# -- public per-pico operations ---------------------------------------------


def min_macro_need(cl: ClusterProblem, b: int, gamma_b: Optional[float] = None) -> float:
    """Least macro share that satisfies pico b's minimum rates."""
    p = _pico_view(cl, b, gamma_b)
    return _min_macro_need(p, p.budget)


def min_pico_need(cl: ClusterProblem, b: int, z_b: float) -> float:
    """Least pico budget that satisfies pico b's minimum rates given macro share z_b."""
    return _min_pico_need(_pico_view(cl, b, None), z_b)


def slack_value(cl: ClusterProblem, b: int, gamma_b: Optional[float] = None) -> float:
    """Weighted rate gained from leftover pico budget at the least-macro point."""
    p = _pico_view(cl, b, gamma_b)
    _, _, gain = _initial_state(p)
    return gain


def pico_slope_curve(
    cl: ClusterProblem, b: int, gamma_b: Optional[float] = None
) -> SlopeCurve:
    """Marginal-value curve of macro share for pico b over [need, 1]."""
    p = _pico_view(cl, b, gamma_b)
    st, need, gain = _initial_state(p)
    base = sum(w * r for w, r in zip(p.w, p.rmin)) + gain
    curve = SlopeCurve(start=need, base_value=base)
    for slope, width, _, _ in _trace_segments(p, st, 1.0 - need):
        curve.widths.append(width)
        curve.slopes.append(slope)
    return curve


def solve_single_pico(
    cl: ClusterProblem,
    b: int,
    z_b: float,
    gamma_b: Optional[float] = None,
) -> tuple[float, AllocationFractions]:
    """Optimal weighted sum rate for pico b alone given macro share z_b."""
    p = _pico_view(cl, b, gamma_b)
    st, need, gain = _initial_state(p)
    if z_b < need - RES_TOL:
        raise InfeasibleError(
            f"macro share {z_b} below minimum need {need} for pico {b}"
        )
    value = sum(w * r for w, r in zip(p.w, p.rmin)) + gain
    for slope, width, _, _ in _trace_segments(p, st, z_b - need):
        value += slope * width
    fr = AllocationFractions()
    for i, u in enumerate(p.uid):
        if st.theta[i] > 0.0:
            fr.theta[(u, cl.macro)] = st.theta[i]
        if st.gamma[i] > 0.0:
            fr.gamma[(u, b)] = st.gamma[i]
    return value, fr


def feasibility_check(cl: ClusterProblem) -> bool:
    """True iff the macro budget covers the summed per-pico minimum needs."""
    total = 0.0
    for b in sorted(cl.pico_users):
        p = _pico_view(cl, b, None)
        total += _min_macro_need(p, p.budget)
    return total <= cl.macro_budget + RES_TOL


# -- cluster-level allocation ------------------------------------------------


@dataclass
class ClusterAllocation:
    """Result of allocate_cluster."""

    value: float
    fractions: AllocationFractions
    curve: SlopeCurve            # merged over all picos, function of macro budget
    macro_shares: dict[int, float]


def allocate_cluster(cl: ClusterProblem) -> ClusterAllocation:
    """Optimal split of the macro budget across the cluster's picos.

    Greedy over the merged per-pico slope curves: repeatedly feed the pico
    whose current slope segment is steepest (ties to the smallest pico id)
    until the budget beyond the minimum needs is exhausted.
    """
    picos = sorted(cl.pico_users)
    views = {b: _pico_view(cl, b, None) for b in picos}
    inits = {b: _initial_state(views[b]) for b in picos}
    total_need = sum(inits[b][1] for b in picos)
    if total_need > cl.macro_budget + RES_TOL:
        raise InfeasibleError(
            f"macro budget {cl.macro_budget} below total minimum need {total_need}"
        )

    # full per-pico segment streams, traced on scratch copies of the state
    streams: dict[int, list[tuple[float, float, int, Optional[int]]]] = {}
    for b in picos:
        st, need, _ = inits[b]
        streams[b] = _trace_segments(views[b], st.clone(), 1.0 - need)

    merged = SlopeCurve(
        start=total_need,
        base_value=sum(
            sum(w * r for w, r in zip(views[b].w, views[b].rmin)) + inits[b][2]
            for b in picos
        ),
    )
    remaining = max(cl.macro_budget - total_need, 0.0)
    heads = {b: 0 for b in picos}
    taken = {b: 0.0 for b in picos}
    budget_left = remaining
    domain_left = max(1.0 - total_need, 0.0)
    while domain_left > RES_TOL:
        pick = None
        for b in picos:
            if heads[b] >= len(streams[b]):
                continue
            s = streams[b][heads[b]][0]
            if pick is None or s > streams[pick][heads[pick]][0]:
                pick = b
        if pick is None:
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

    # replay each pico's own segments up to its granted width to get fractions
    fractions = AllocationFractions()
    shares: dict[int, float] = {}
    value = 0.0
    for b in picos:
        st, need, gain = inits[b]
        p = views[b]
        left = taken[b]
        for slope, width, i, ib in streams[b]:
            t = min(width, left)
            if t > 0.0:
                _apply_move(p, st, (slope, i, ib), t)
                left -= t
            if left <= RES_TOL:
                break
        shares[b] = need + taken[b]
        value += sum(w * r for w, r in zip(p.w, st.rate))
        for i, u in enumerate(p.uid):
            if st.theta[i] > 0.0:
                fractions.theta[(u, cl.macro)] = st.theta[i]
            if st.gamma[i] > 0.0:
                fractions.gamma[(u, b)] = st.gamma[i]
    return ClusterAllocation(
        value=value, fractions=fractions, curve=merged, macro_shares=shares
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
