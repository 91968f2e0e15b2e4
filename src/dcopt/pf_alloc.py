"""Proportionally fair resource allocation inside one macro cluster.

Maximizes the sum of log rates over the macro's resource and each serving
pico's resource. The dual of the problem collapses to a single scalar: the
macro's resource price. For each pico, the users sort by their macro/pico
peak-rate ratio; as the price rises, users migrate from the macro toward
their pico in ladder order, and the pico's macro-resource demand is a
closed-form piecewise expression of the price. The optimal price is the
unique root of the macro budget equation: a binary search over the ladder
breakpoints finds the piece that holds it, and on that piece the root has a
closed form. A point is certified optimal by its duality gap.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .net_model import AllocationFractions, NetworkInstance, order_cluster


@dataclass(frozen=True)
class PfClusterProblem:
    """One macro cluster for PF allocation: serving pico fixed per user.

    For each pico, users are held in increasing order of
    rate(user, macro) / rate(user, pico); that ladder determines who leaves
    the macro first as macro resource gets scarce. A pico user without a
    macro link (macro rate 0) heads its ladder at ratio 0: it never takes
    macro resource.
    """

    inst: NetworkInstance
    macro: int
    pico_users: Mapping[int, tuple[int, ...]]   # ladder order per pico
    ladders: Mapping[int, tuple[float, ...]]    # matching ratio values
    macro_only: tuple[int, ...] = ()            # users with no pico leg

    @staticmethod
    def build(
        inst: NetworkInstance,
        macro: int,
        pico_users: Mapping[int, Sequence[int]],
        macro_only: Sequence[int] = (),
    ) -> "PfClusterProblem":
        keyed = order_cluster(inst, macro, pico_users, lambda r1, rb, u: (r1 / rb, u),
                              macro_only, pico_needs_macro=False)
        ordered = {b: tuple([u for _, u in k]) for b, k in keyed.items()}
        ladders = {b: tuple([mu for mu, _ in k]) for b, k in keyed.items()}
        if not ordered and not macro_only:
            raise ValueError("empty cluster")
        return PfClusterProblem(
            inst=inst,
            macro=macro,
            pico_users=ordered,
            ladders=ladders,
            macro_only=tuple(sorted(macro_only)),
        )

    @property
    def users(self) -> tuple[int, ...]:
        pico = tuple(u for b in sorted(self.pico_users) for u in self.pico_users[b])
        return pico + self.macro_only


def _classify(mu: Sequence[float], lam: float) -> tuple[str, int]:
    """Locate the price on one pico's piecewise structure.

    Returns ("B", m) when exactly m-1 users sit fully on the pico sharing
    its resource equally, or ("A", m) when the m-th ladder user straddles
    both TPs. The pieces A1, B2, A2, ..., An, Bn+1 of a positive price end at
    the non-decreasing (m-1)·mu_m, m·mu_m; a price on an end is in a "B" piece.
    """
    ends = [c for m, x in enumerate(mu, start=1) for c in ((m - 1) * x, m * x)]
    k = bisect.bisect_left(ends, lam)   # ends[k - 1] < lam <= ends[k]
    if k % 2 and lam == ends[k]:
        k += 1   # the end m·mu_m opens B_m+1
    return ("A", (k + 1) // 2) if k % 2 else ("B", k // 2 + 1)


def h_of_lambda(cluster: PfClusterProblem, lam: float, b: int) -> float:
    """Pico b's resource-weighted demand offset at macro price lam.

    The macro resource consumed by pico b's users is N_b / lam minus this
    quantity; it is continuous and piecewise elementary in lam.
    """
    mu = cluster.ladders[b]
    kind, m = _classify(mu, lam)
    if kind == "A":
        return 1.0 / mu[m - 1]
    return (m - 1) / lam


def _legs(cluster: PfClusterProblem, fractions: AllocationFractions) -> list[tuple]:
    """Per user of the cluster in `users` order: its pico (None for a
    macro-only user), its macro and pico shares and the two peak rates (pico
    share and rate 0 without a pico leg). th * r1 + ga * rb is then the rate
    compute_user_rates gives, bit for bit."""
    inst, macro = cluster.inst, cluster.macro
    peak, row, tm = inst.rates.item, inst._uidx, inst._tidx[macro]
    on = [(u, b) for b in sorted(cluster.pico_users) for u in cluster.pico_users[b]]
    return [(b, fractions.theta.get((u, macro), 0.0), fractions.gamma.get((u, b), 0.0),
             peak(row[u], tm), 0.0 if b is None else peak(row[u], inst._tidx[b]))
            for u, b in on + [(u, None) for u in cluster.macro_only]]


@dataclass
class PfDualSolution:
    """Optimal macro price with recovered shares and their objective, the
    sum of log rates the shares give."""

    lambda_hat: float
    objective: float
    fractions: AllocationFractions
    residual: float


def pf_bisection(cluster: PfClusterProblem) -> PfDualSolution:
    """Solve the cluster PF problem via the scalar dual.

    The macro load falls as the price rises, and between consecutive ladder
    breakpoints j*mu_j and (j+1)*mu_j every pico stays in one regime. A
    binary search over the sorted breakpoints finds the first one where the
    load is at most the budget. On the piece below it (on the breakpoint's
    own closed piece when the load there is exactly the budget) the root of
    the budget equation (total macro load = 1) has a closed form, solved once.
    When no user links the macro (every ladder ratio is 0, no macro-only
    user), the macro budget stays unused and its price is 0.
    """
    picos = sorted(cluster.pico_users)

    def phi(lam: float) -> float:   # macro load at price lam, minus the budget
        total = len(cluster.macro_only) / lam
        for b in picos:
            total += len(cluster.pico_users[b]) / lam - h_of_lambda(cluster, lam, b)
        return total - 1.0

    cuts = sorted({c for b in picos for j, mu in enumerate(cluster.ladders[b])
                   for c in (j * mu, (j + 1) * mu) if c > 0.0})
    lo, hi = 0, len(cuts)
    while lo < hi:
        mid = (lo + hi) // 2
        if phi(cuts[mid]) <= 0.0:
            hi = mid
        else:
            lo = mid + 1
    if lo < len(cuts) and phi(cuts[lo]) == 0.0:
        probe = cuts[lo]   # the root is a breakpoint: take its closed piece
    else:
        left = cuts[lo - 1] if lo else 0.0
        # beyond the last breakpoint any larger price will do, 1 when there is none
        probe = 0.5 * (left + cuts[lo]) if lo < len(cuts) else (2.0 * left or 1.0)
    regimes = {b: _classify(cluster.ladders[b], probe) for b in picos}
    num = float(len(cluster.users))
    den = 1.0
    for b in picos:
        kind, m = regimes[b]
        if kind == "B":
            num -= m - 1
        else:
            den += 1.0 / cluster.ladders[b][m - 1]
    # no breakpoint and no macro-only user: no one takes the macro at any
    # positive price, so each pico's users share it and the macro idles
    idle = not cuts and not cluster.macro_only
    lam = math.inf if idle else num / den

    regimes = {b: _classify(cluster.ladders[b], lam) for b in picos}
    fractions = AllocationFractions()
    macro = cluster.macro
    for b in picos:
        kind, m = regimes[b]
        mu = cluster.ladders[b]
        users = cluster.pico_users[b]
        if kind == "A":
            for j, u in enumerate(users, start=1):
                if j < m:
                    fractions.gamma[(u, b)] = mu[m - 1] / lam
                elif j == m:
                    th = m / lam - 1.0 / mu[m - 1]
                    ga = 1.0 - (m - 1) * mu[m - 1] / lam
                    if th > 0.0:
                        fractions.theta[(u, macro)] = th
                    if ga > 0.0:
                        fractions.gamma[(u, b)] = ga
                else:
                    fractions.theta[(u, macro)] = 1.0 / lam
        else:
            for j, u in enumerate(users, start=1):
                if j <= m - 1:
                    fractions.gamma[(u, b)] = 1.0 / (m - 1)
                else:
                    fractions.theta[(u, macro)] = 1.0 / lam
    for u in cluster.macro_only:
        fractions.theta[(u, macro)] = 1.0 / lam

    legs = _legs(cluster, fractions)
    return PfDualSolution(
        lambda_hat=0.0 if idle else lam,
        objective=sum(math.log(th * r1 + ga * rb) for _, th, ga, r1, rb in legs),
        fractions=fractions,
        residual=0.0 if idle else abs(phi(lam)),
    )


# -- optimality certificate --------------------------------------------------


@dataclass
class PfKktReport:
    max_residual: float


def verify_kkt_pf(
    cluster: PfClusterProblem, fractions: AllocationFractions
) -> PfKktReport:
    """Certify a point of the cluster optimal by weak duality: max_residual
    is its duality gap, infinite for an infeasible point.

    The point is feasible when no share is negative, the macro's shares and
    each pico's sum to at most 1 + 1e-9, and every rate is positive. The
    gap is D - sum_u log rate_u, where D = lam + sum_b beta_b + sum_u (log
    max(r1_u / lam, rb_u / beta_b) - 1) is the dual function at prices read
    from the point: lam = max r1 / rate over the cluster and beta_b = max
    rb / rate over pico b's users (a zero peak rate adds 0 to a max). For
    any positive prices D is at least the optimum, so a point whose gap is
    small is optimal whatever the prices; at the optimum these prices are
    its multipliers and the gap is 0.
    """
    legs, macro = _legs(cluster, fractions), cluster.macro
    rates = [th * r1 + ga * rb for _, th, ga, r1, rb in legs]
    spent: dict[Optional[int], float] = {}
    price: dict[Optional[int], float] = {}   # lam at the macro, beta_b at pico b
    for (b, th, ga, r1, rb), r in zip(legs, rates):
        if not (th >= 0.0 and ga >= 0.0 and r > 0.0):
            return PfKktReport(math.inf)
        for tp, share, peak in ((macro, th, r1), (b, ga, rb)):
            spent[tp] = spent.get(tp, 0.0) + share
            price[tp] = max(price.get(tp, 0.0), peak / r)
    if not all(s <= 1.0 + 1e-9 for s in spent.values()):
        return PfKktReport(math.inf)
    gap = sum(price.values())
    for (b, _, _, r1, rb), r in zip(legs, rates):
        best = max(x / price[tp] for tp, x in ((macro, r1), (b, rb)) if x > 0.0)
        gap += math.log(best / r) - 1.0
    return PfKktReport(gap)
