"""Proportionally fair user association, staged.

Stage 1 solves single-TP PF association (every user on exactly one TP, TPs
split equally among their users) exactly at every size, as a min-cost flow
with convex per-TP costs. Stage 2 upgrades each user to dual connectivity:
macro users adopt their strongest pico, pico users adopt their pico's
macro. Stage 3 re-optimizes resource shares per macro cluster with the
exact dual solver. Each stage can only improve the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .net_model import (
    AllocationFractions,
    Association,
    InfeasibleError,
    NetworkInstance,
    NotConvergedError,
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
        if not r > 0.0:
            raise ValueError(f"user {u} assigned to TP {assign[u]} with zero rate")
        total += math.log(r)
    for t, n in counts.items():
        total -= xlogx(float(n))
    return total


def single_tp_pf_solve(inst: NetworkInstance) -> tuple[dict[int, int], float]:
    """Optimal single-TP association under PF with equal intra-TP sharing.

    A min-cost flow with convex per-TP costs: user u on TP t costs
    -log r(u,t), and the k-th user of a TP adds xlogx(k) - xlogx(k-1).
    Users join in id order, each along the cheapest residual path (user ->
    TP -> a user already on it -> another TP -> ... -> sink), so the
    assignment stays optimal for the users placed so far (successive
    shortest paths). Paths are found by Bellman-Ford rounds over TPs that
    relax only from TPs whose distance dropped in the last round.
    """
    linked = inst.rates > 0.0
    lonely = np.flatnonzero(~linked.any(axis=1))
    if lonely.size:
        raise InfeasibleError(
            f"user {inst.users[lonely[0]]} has no TP with positive rate"
        )
    n_users, n_tps = inst.rates.shape
    cost = -np.log(np.where(linked, inst.rates, 1.0))
    cost[~linked] = np.inf
    k = np.arange(n_users + 1.0)
    step = np.diff(k * np.log(np.maximum(k, 1.0)))   # step[n]: (n+1)-th user
    # improvements below this are float noise around zero-cost cycles
    tol = 1e-12 * (1.0 + np.abs(cost[linked]).max(initial=0.0))
    cols = np.arange(n_tps)
    tp_of = np.zeros(n_users, dtype=np.intp)
    load = np.zeros(n_tps, dtype=np.intp)
    for u in range(n_users):
        dist = cost[u].copy()
        pred = np.full(n_tps, -1)   # the user who moves into t on the path
        active = linked[u].copy()
        for rounds in range(n_tps + 1):
            movers = np.flatnonzero(active[tp_of[:u]])
            if movers.size == 0:
                break
            if rounds == n_tps:
                raise NotConvergedError(
                    f"stage-1 path for user {inst.users[u]} still shortening "
                    f"after {n_tps} rounds: the residual graph has a "
                    "negative cycle"
                )
            src = tp_of[movers]
            cand = cost[movers] + (dist[src] - cost[movers, src])[:, None]
            best = cand.argmin(axis=0)
            via = cand[best, cols]
            active = via < dist - tol
            dist[active] = via[active]
            pred[active] = movers[best[active]]
        t = int(np.argmin(dist + step[load]))
        load[t] += 1
        while pred[t] >= 0:
            v = pred[t]
            tp_of[v], t = t, tp_of[v]
        tp_of[u] = t
    assign = {u: inst.tps[t] for u, t in zip(inst.users, tp_of.tolist())}
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
