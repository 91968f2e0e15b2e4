"""Proportionally fair user association, staged.

Stage 1 solves single-TP PF association (every user on exactly one TP, TPs
split equally among their users), exactly by enumeration on small inputs
and by deterministic best-response otherwise. Stage 2 upgrades each user to
dual connectivity: macro users adopt their strongest pico, pico users adopt
their pico's macro. Stage 3 re-optimizes resource shares per macro cluster
with the exact dual solver. Each stage can only improve the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .net_model import (
    AllocationFractions,
    Association,
    InfeasibleError,
    NetworkInstance,
)
from .pf_alloc import PfClusterProblem, pf_bisection, xlogx


def single_tp_pf_objective(inst: NetworkInstance, assign: Mapping[int, int]) -> float:
    """Sum of log rates when each TP splits equally among its users."""
    counts: dict[int, int] = {}
    for u in inst.users:
        if u not in assign:
            raise ValueError(f"user {u} not assigned")
        counts[assign[u]] = counts.get(assign[u], 0) + 1
    total = 0.0
    for u in inst.users:
        r = inst.rate(u, assign[u])
        if r <= 0.0:
            raise ValueError(f"user {u} assigned to TP {assign[u]} with zero rate")
        total += math.log(r)
    for t, n in counts.items():
        total -= xlogx(float(n))
    return total


def _move_gain(r_old: float, r_new: float, n_old: int, n_new: int) -> float:
    """Objective change when a user leaves a TP with n_old users for one
    with n_new users (counts before the move)."""
    return (
        math.log(r_new)
        - math.log(r_old)
        + xlogx(float(n_old))
        - xlogx(float(n_old - 1))
        + xlogx(float(n_new))
        - xlogx(float(n_new + 1))
    )


def single_tp_pf_solve(
    inst: NetworkInstance, exact_cap: int = 2_000_000
) -> tuple[dict[int, int], float]:
    """Best single-TP association under PF with equal intra-TP sharing.

    Exhaustive when the assignment space fits under exact_cap, otherwise
    best-response descent from the max-peak-rate start; both deterministic.
    """
    cands: dict[int, list[int]] = {}
    for u in inst.users:
        cs = [t for t in inst.tps if inst.rate(u, t) > 0.0]
        if not cs:
            raise InfeasibleError(f"user {u} has no TP with positive rate")
        cands[u] = cs

    space = 1
    for u in inst.users:
        space *= len(cands[u])
        if space > exact_cap:
            break
    if space <= exact_cap:
        return _single_tp_exact(inst, cands)
    return _single_tp_best_response(inst, cands)


def _single_tp_exact(
    inst: NetworkInstance, cands: Mapping[int, list[int]]
) -> tuple[dict[int, int], float]:
    users = list(inst.users)
    counts: dict[int, int] = {}
    assign: dict[int, int] = {}
    best: tuple[float, dict[int, int]] = (-math.inf, {})

    def rec(i: int, logsum: float) -> None:
        nonlocal best
        if i == len(users):
            val = logsum - sum(xlogx(float(n)) for n in counts.values())
            if val > best[0]:
                best = (val, dict(assign))
            return
        u = users[i]
        for t in cands[u]:
            assign[u] = t
            counts[t] = counts.get(t, 0) + 1
            rec(i + 1, logsum + math.log(inst.rate(u, t)))
            counts[t] -= 1
        del assign[u]

    rec(0, 0.0)
    return best[1], best[0]


def _single_tp_best_response(
    inst: NetworkInstance, cands: Mapping[int, list[int]], max_passes: int = 200
) -> tuple[dict[int, int], float]:
    assign = {
        u: max(cands[u], key=lambda t: (inst.rate(u, t), -t)) for u in inst.users
    }
    counts: dict[int, int] = {}
    for u in inst.users:
        counts[assign[u]] = counts.get(assign[u], 0) + 1

    for _ in range(max_passes):
        improved = False
        for u in inst.users:
            t_old = assign[u]
            best_t, best_gain = None, 1e-12
            for t in cands[u]:
                if t == t_old:
                    continue
                gain = _move_gain(
                    inst.rate(u, t_old),
                    inst.rate(u, t),
                    counts[t_old],
                    counts.get(t, 0),
                )
                if gain > best_gain:
                    best_t, best_gain = t, gain
            if best_t is not None:
                counts[t_old] -= 1
                counts[best_t] = counts.get(best_t, 0) + 1
                assign[u] = best_t
                improved = True
        if not improved:
            break
    return assign, single_tp_pf_objective(inst, assign)


def strongest_pico(inst: NetworkInstance, user: int, macro: int) -> Optional[int]:
    """Best pico of a macro for a user by peak rate (the rate rises with
    received power), lower id on ties; None if no pico reaches the user."""
    best, best_rate = None, 0.0
    for b in inst.picos_of[macro]:
        r = inst.rate(user, b)
        if r > best_rate:
            best, best_rate = b, r
    return best


@dataclass
class StagedPfResult:
    association: Association
    fractions: AllocationFractions
    value: float
    stage1_assign: dict[int, int]
    stage1_value: float
    lambda_by_macro: dict[int, float] = field(default_factory=dict)


def dc_pf_value(
    inst: NetworkInstance, assoc: Association
) -> tuple[float, AllocationFractions, dict[int, float]]:
    """Optimal PF log-utility of a full DC association, summed over macros."""
    fractions = AllocationFractions()
    lambdas: dict[int, float] = {}
    total = 0.0
    for u, mb in assoc.pairs.items():
        if mb is None:
            raise ValueError(f"user {u} is unassociated; PF needs full coverage")
    for m in inst.macros:
        groups = assoc.users_of_macro(m)
        if not groups:
            continue
        solo = groups.pop(None, [])
        cluster = PfClusterProblem.build(inst, m, groups, macro_only=solo)
        sol = pf_bisection(cluster)
        fractions.merge(sol.fractions)
        lambdas[m] = sol.lambda_hat
        total += sol.objective
    return total, fractions, lambdas


def staged_pf_associate(inst: NetworkInstance) -> StagedPfResult:
    """Three-stage PF association; the resulting value never falls below
    the single-TP stage because equal sharing stays feasible per cluster."""
    assign, stage1_value = single_tp_pf_solve(inst)

    pairs: dict[int, Optional[tuple[int, Optional[int]]]] = {}
    for u in inst.users:
        t = assign[u]
        if t in inst.pico_macro:
            pairs[u] = (inst.pico_macro[t], t)
        else:
            pairs[u] = (t, strongest_pico(inst, u, t))
    assoc = Association(pairs=pairs)

    value, fractions, lambdas = dc_pf_value(inst, assoc)
    return StagedPfResult(
        association=assoc,
        fractions=fractions,
        value=value,
        stage1_assign=assign,
        stage1_value=stage1_value,
        lambda_by_macro=lambdas,
    )
