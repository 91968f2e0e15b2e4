"""Proportionally fair resource allocation inside one macro cluster.

Maximizes the sum of log rates over the macro's resource and each serving
pico's resource. The dual of the problem collapses to a single scalar: the
macro's resource price. For each pico, the users sort by their macro/pico
peak-rate ratio; as the price rises, users migrate from the macro toward
their pico in ladder order, and both the pico's macro-resource demand and
the attained log utility are closed-form piecewise expressions of the
price. The optimal price is the unique root of the macro budget equation,
found by bisection plus an exact polish on the active piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .net_model import AllocationFractions, NetworkInstance


def xlogx(x: float) -> float:
    """x * ln x with the 0 * ln 0 = 0 convention."""
    return 0.0 if x <= 0 else x * math.log(x)


@dataclass(frozen=True)
class PfClusterProblem:
    """One macro cluster for PF allocation: serving pico fixed per user.

    For each pico, users are held in increasing order of
    rate(user, macro) / rate(user, pico); that ladder determines who leaves
    the macro first as macro resource gets scarce.
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
        if macro not in inst.picos_of:
            raise ValueError(f"unknown macro {macro}")
        seen: set[int] = set()
        ordered: dict[int, tuple[int, ...]] = {}
        ladders: dict[int, tuple[float, ...]] = {}
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
                if not (inst.rate(u, macro) > 0 and inst.rate(u, b) > 0):
                    raise ValueError(f"user {u} needs positive peak rates")
            users.sort(key=lambda u: (inst.rate(u, macro) / inst.rate(u, b), u))
            ordered[b] = tuple(users)
            ladders[b] = tuple(
                inst.rate(u, macro) / inst.rate(u, b) for u in users
            )
        for u in macro_only:
            if u in seen:
                raise ValueError(f"user {u} attached to two picos")
            seen.add(u)
            if not inst.rate(u, macro) > 0:
                raise ValueError(f"user {u} needs positive peak rates")
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
    both TPs. Boundary prices resolve to the closed "B" pieces.
    """
    n = len(mu)
    for m in range(2, n + 2):
        lower = (m - 1) * mu[m - 2]
        upper = (m - 1) * mu[m - 1] if m <= n else math.inf
        if lower <= lam <= upper:
            return "B", m
    for m in range(1, n + 1):
        if (m - 1) * mu[m - 1] < lam < m * mu[m - 1]:
            return "A", m
    raise ValueError(f"price {lam} escaped the ladder partition")


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
    regimes: dict[int, tuple[str, int]]
    residual: float


def _macro_load(cluster: PfClusterProblem, lam: float) -> float:
    total = len(cluster.macro_only) / lam
    for b in sorted(cluster.pico_users):
        total += len(cluster.pico_users[b]) / lam - h_of_lambda(cluster, lam, b)
    return total


def pf_bisection(
    cluster: PfClusterProblem,
    rel_tol: float = 1e-12,
    max_iter: int = 200,
) -> PfDualSolution:
    """Solve the cluster PF problem via the scalar dual.

    Bisects the macro budget equation (total macro load = 1), then snaps
    the price to the exact root of the active piecewise regime so the
    residual is at machine precision.
    """
    picos = sorted(cluster.pico_users)
    counts = {b: len(cluster.pico_users[b]) for b in picos}
    total_users = sum(counts.values()) + len(cluster.macro_only)

    def phi(lam: float) -> float:
        return _macro_load(cluster, lam) - 1.0

    lam_floor = total_users / (1.0 + sum(1.0 / cluster.ladders[b][0] for b in picos))
    lo, hi = 0.5 * lam_floor, float(total_users)
    for _ in range(max_iter):
        if hi - lo <= rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if phi(mid) > 0.0:
            lo = mid
        else:
            hi = mid

    lam = 0.5 * (lo + hi)
    for _ in range(8):
        regimes = {b: _classify(cluster.ladders[b], lam) for b in picos}
        num = float(total_users)
        den = 1.0
        for b in picos:
            kind, m = regimes[b]
            if kind == "B":
                num -= m - 1
            else:
                den += 1.0 / cluster.ladders[b][m - 1]
        lam_exact = num / den
        if {b: _classify(cluster.ladders[b], lam_exact) for b in picos} == regimes:
            lam = lam_exact
            break
        lam = min(max(lam_exact, lo), hi)

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
    for b in picos:
        objective += g_of_lambda(cluster, lam, b)
        for u in cluster.pico_users[b]:
            objective += math.log(inst.rate(u, b))
    for u in cluster.macro_only:
        objective += math.log(inst.rate(u, macro) / lam)
    return PfDualSolution(
        lambda_hat=lam,
        objective=objective,
        fractions=fractions,
        regimes=regimes,
        residual=abs(phi(lam)),
    )


# -- optimality verification -------------------------------------------------


@dataclass
class PfKktReport:
    max_residual: float
    lambda_est: float
    beta: dict[int, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def verify_kkt_pf(
    cluster: PfClusterProblem, fractions: AllocationFractions
) -> PfKktReport:
    """Reconstruct dual multipliers from a candidate point and measure the
    worst stationarity / complementary-slackness violation."""
    inst, macro = cluster.inst, cluster.macro
    report = PfKktReport(max_residual=0.0, lambda_est=math.nan)
    rates: dict[int, float] = {}
    th: dict[int, float] = {}
    ga: dict[int, float] = {}
    for b in sorted(cluster.pico_users):
        for u in cluster.pico_users[b]:
            t = fractions.theta.get((u, macro), 0.0)
            g = fractions.gamma.get((u, b), 0.0)
            th[u], ga[u] = t, g
            rates[u] = t * inst.rate(u, macro) + g * inst.rate(u, b)
            if rates[u] <= 0.0:
                report.max_residual = math.inf
                report.notes.append(f"user {u} has zero rate")
                return report
            if t < 0 or g < 0:
                report.max_residual = math.inf
                report.notes.append(f"user {u} has a negative share")
                return report
    for u in cluster.macro_only:
        t = fractions.theta.get((u, macro), 0.0)
        th[u], ga[u] = t, 0.0
        rates[u] = t * inst.rate(u, macro)
        if rates[u] <= 0.0 or t < 0:
            report.max_residual = math.inf
            report.notes.append(f"user {u} has zero rate or a negative share")
            return report

    lam = max(inst.rate(u, macro) / rates[u] for u in rates)
    report.lambda_est = lam
    worst = 0.0
    total_theta = sum(th[u] for u in cluster.macro_only)
    for u in cluster.macro_only:
        worst = max(worst, (lam - inst.rate(u, macro) / rates[u]) * th[u])
    for b in sorted(cluster.pico_users):
        beta = max(inst.rate(u, b) / rates[u] for u in cluster.pico_users[b])
        report.beta[b] = beta
        sum_gamma = 0.0
        for u in cluster.pico_users[b]:
            worst = max(worst, (lam - inst.rate(u, macro) / rates[u]) * th[u])
            worst = max(worst, (beta - inst.rate(u, b) / rates[u]) * ga[u])
            total_theta += th[u]
            sum_gamma += ga[u]
        worst = max(worst, max(sum_gamma - 1.0, 0.0) * beta)
        worst = max(worst, abs(1.0 - sum_gamma) * beta)
    worst = max(worst, max(total_theta - 1.0, 0.0) * lam)
    worst = max(worst, abs(1.0 - total_theta) * lam)
    report.max_residual = worst
    return report


# -- orthogonal (single-TP) split --------------------------------------------


@dataclass
class SplitResult:
    to_macro: frozenset[int]
    value: float


def orthogonal_split_solve(cluster: PfClusterProblem) -> SplitResult:
    """Best single-TP split of the cluster: each user goes entirely to the
    macro or entirely to its pico, TPs shared equally among their users.

    Enumerates per-pico macro-user counts (the best c users of a pico to
    promote are always its c largest macro/pico ratios) and solves the count
    coupling by dynamic programming, polynomial in the cluster size.
    """
    inst, macro = cluster.inst, cluster.macro
    picos = sorted(cluster.pico_users)
    solo = cluster.macro_only
    users_n = sum(len(cluster.pico_users[b]) for b in picos) + len(solo)

    # per-pico value of promoting its top-c ratio users to the macro
    tables: list[tuple[int, list[float], list[list[int]]]] = []
    for b in picos:
        us = sorted(
            cluster.pico_users[b],
            key=lambda u: (-(inst.rate(u, macro) / inst.rate(u, b)), u),
        )
        n = len(us)
        vals = []
        chosen: list[list[int]] = []
        for c in range(n + 1):
            v = sum(math.log(inst.rate(u, macro)) for u in us[:c])
            v += sum(math.log(inst.rate(u, b)) for u in us[c:])
            v -= xlogx(float(n - c))
            vals.append(v)
            chosen.append(us[:c])
        tables.append((b, vals, chosen))

    NEG = -math.inf
    dp = [NEG] * (users_n + 1)
    dp[len(solo)] = sum(math.log(inst.rate(u, macro)) for u in solo)
    back: list[list[int]] = []
    for _, vals, _ in tables:
        nxt = [NEG] * (users_n + 1)
        arg = [-1] * (users_n + 1)
        for t in range(users_n + 1):
            if dp[t] == NEG:
                continue
            for c, v in enumerate(vals):
                nt = t + c
                if dp[t] + v > nxt[nt]:
                    nxt[nt] = dp[t] + v
                    arg[nt] = c
        dp = nxt
        back.append(arg)

    best_t, best_v = 0, NEG
    for t in range(users_n + 1):
        if dp[t] == NEG:
            continue
        v = dp[t] - xlogx(float(t))
        if v > best_v:
            best_t, best_v = t, v

    to_macro: set[int] = set(solo)
    t = best_t
    for i in range(len(tables) - 1, -1, -1):
        c = back[i][t]
        to_macro.update(tables[i][2][c])
        t -= c
    return SplitResult(to_macro=frozenset(to_macro), value=best_v)
