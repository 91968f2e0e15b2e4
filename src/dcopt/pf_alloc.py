"""Proportionally fair resource allocation inside one macro cluster.

Maximizes the sum of log rates over the macro's resource and each serving
pico's resource. The dual of the problem collapses to a single scalar: the
macro's resource price. For each pico, the users sort by their macro/pico
peak-rate ratio; as the price rises, users migrate from the macro toward
their pico in ladder order, and both the pico's macro-resource demand and
the attained log utility are closed-form piecewise expressions of the
price. The optimal price is the unique root of the macro budget equation:
a binary search over the ladder breakpoints finds the piece that holds it,
and on that piece the root has a closed form.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .net_model import AllocationFractions, NetworkInstance, order_cluster


def xlogx(x: float) -> float:
    """x * ln x with the 0 * ln 0 = 0 convention."""
    return 0.0 if x <= 0 else x * math.log(x)


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


def g_of_lambda(cluster: PfClusterProblem, lam: float, b: int) -> float:
    """Pico b's optimal log-utility relative to its users' pico rates."""
    mu = cluster.ladders[b]
    n = len(mu)
    kind, m = _classify(mu, lam)
    tail = sum(math.log(mu[j] / lam) for j in range(m - 1, n))
    if kind == "A":
        return tail + (m - 1) * math.log(mu[m - 1] / lam)
    return tail - xlogx(float(m - 1))


@dataclass
class PfDualSolution:
    """Optimal macro price with recovered shares and objective."""

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
    inst, macro = cluster.inst, cluster.macro
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

    objective = 0.0
    peak, row, tm = inst.rates.item, inst._uidx, inst._tidx[macro]
    for b in picos:
        objective += g_of_lambda(cluster, lam, b)
        for u in cluster.pico_users[b]:
            objective += math.log(peak(row[u], inst._tidx[b]))
    for u in cluster.macro_only:
        objective += math.log(peak(row[u], tm) / lam)
    return PfDualSolution(
        lambda_hat=0.0 if idle else lam,
        objective=objective,
        fractions=fractions,
        residual=0.0 if idle else abs(phi(lam)),
    )


# -- optimality verification -------------------------------------------------


@dataclass
class PfKktReport:
    max_residual: float


def verify_kkt_pf(
    cluster: PfClusterProblem, fractions: AllocationFractions
) -> PfKktReport:
    """Reconstruct dual multipliers from a candidate point and measure the
    worst stationarity / complementary-slackness violation (infinite when a
    user has a negative share or no rate)."""
    inst, macro = cluster.inst, cluster.macro
    peak, row, tm = inst.rates.item, inst._uidx, inst._tidx[macro]
    r1 = {u: peak(row[u], tm) for u in cluster.users}
    rb = {u: peak(row[u], inst._tidx[b]) for b, us in cluster.pico_users.items() for u in us}
    rates: dict[int, float] = {}
    th: dict[int, float] = {}
    ga: dict[int, float] = {}
    for b in sorted(cluster.pico_users):
        for u in cluster.pico_users[b]:
            t = fractions.theta.get((u, macro), 0.0)
            g = fractions.gamma.get((u, b), 0.0)
            th[u], ga[u] = t, g
            rates[u] = t * r1[u] + g * rb[u]
            if rates[u] <= 0.0 or t < 0 or g < 0:
                return PfKktReport(math.inf)
    for u in cluster.macro_only:
        t = fractions.theta.get((u, macro), 0.0)
        th[u], ga[u] = t, 0.0
        rates[u] = t * r1[u]
        if rates[u] <= 0.0 or t < 0:
            return PfKktReport(math.inf)

    lam = max(r1[u] / rates[u] for u in rates)
    worst = 0.0
    total_theta = sum(th[u] for u in cluster.macro_only)
    for u in cluster.macro_only:
        worst = max(worst, (lam - r1[u] / rates[u]) * th[u])
    for b in sorted(cluster.pico_users):
        beta = max(rb[u] / rates[u] for u in cluster.pico_users[b])
        sum_gamma = 0.0
        for u in cluster.pico_users[b]:
            worst = max(worst, (lam - r1[u] / rates[u]) * th[u])
            worst = max(worst, (beta - rb[u] / rates[u]) * ga[u])
            total_theta += th[u]
            sum_gamma += ga[u]
        worst = max(worst, max(sum_gamma - 1.0, 0.0) * beta)
        worst = max(worst, abs(1.0 - sum_gamma) * beta)
    worst = max(worst, max(total_theta - 1.0, 0.0) * lam)
    worst = max(worst, abs(1.0 - total_theta) * lam)
    return PfKktReport(worst)

