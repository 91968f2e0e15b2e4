"""Proportionally fair user association, staged.

Stage 1 solves single-TP PF association (every user on exactly one TP, TPs
split equally among their users) exactly at every size, as a min-cost flow
with convex per-TP costs; its paths come from Dijkstra on reduced costs
wherever a margin certifies that Bellman-Ford would return the same path,
so its bytes are those of the Bellman-Ford solve. Stage 2 upgrades each
user to dual connectivity: macro users adopt their strongest pico, pico
users adopt their pico's macro. Stage 3 re-optimizes resource shares per
macro cluster with the exact dual solver. Each stage can only improve the
objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .net_model import (
    AllocationFractions,
    Association,
    InfeasibleError,
    NetworkInstance,
    NotConvergedError,
)
from .pf_alloc import PfClusterProblem, pf_bisection


def single_tp_pf_solve(inst: NetworkInstance) -> tuple[dict[int, int], float]:
    """Optimal single-TP association under PF with equal intra-TP sharing.

    A min-cost flow with convex per-TP costs: user u on TP t costs
    -log r(u,t), and k users on a TP cost k log k, so the k-th adds
    k log k - (k-1) log (k-1). The objective returned is minus the flow's
    cost: the sum of log rates when each TP splits equally among its users.
    Users join in id order, each along the cheapest residual path (user ->
    TP -> a user already on it -> another TP -> ... -> sink), so the
    assignment stays optimal for the users placed so far (successive
    shortest paths).

    Each path is found by Dijkstra on costs reduced by TP potentials,
    settling TPs until the next label is more than a margin above the
    sink's, relaxing a settled TP through the users on it. The path stands
    only if one TP is within the margin of the sink label and each TP on
    the path has one in-arc within the margin of tight. Otherwise
    Bellman-Ford rounds find it, relaxing only from TPs whose distance
    dropped in the last round, and the potentials restart from their
    distances. The margin exceeds both searches' error, so a certified
    path is the one Bellman-Ford returns: the assignment and the objective
    bits are those of Bellman-Ford alone.
    """
    bad = np.argwhere(~np.isfinite(inst.rates))
    if bad.size:
        i, j = bad[0]
        raise ValueError(
            f"user {inst.users[i]}, tp {inst.tps[j]}: peak rate must be finite"
        )
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
    xl = k * np.log(np.maximum(k, 1.0))   # xl[n]: cost of n users on one TP
    step = np.diff(xl)                    # step[n]: (n+1)-th user
    # improvements below this are float noise around zero-cost cycles
    tol = 1e-12 * (1.0 + np.abs(cost[linked]).max(initial=0.0))
    # Bellman-Ford ends within n_tps * tol of each shortest distance, and
    # Dijkstra as close on potentials it left; a choice unique by more than
    # a few such errors is the one both searches make
    margin = 8 * n_tps * tol
    tp_of = np.zeros(n_users, dtype=np.intp)
    load = np.zeros(n_tps, dtype=np.intp)
    pi = np.zeros(n_tps)   # TP potentials: residual arcs' reduced costs >= -tol
    for u in range(n_users):
        on = tp_of[:u]
        hang = step[load] + pi   # reduced cost of each TP -> sink arc, sink at the min
        hang -= hang.min()
        lab = cost[u] - pi       # tentative reduced distances; inf once settled
        fin = np.full(n_tps, np.inf)
        pred = np.full(n_tps, -1)   # the user who moves into t on the path
        keys, arcs, sink = [], [], np.inf
        while True:
            s = int(lab.argmin())
            if lab[s] > sink + margin:
                break
            top = fin[s] = lab[s]
            lab[s] = np.inf
            keys.append(top + hang[s])
            if keys[-1] < sink:
                sink, t = keys[-1], s
            movers = np.flatnonzero(on == s)
            if movers.size:
                # real distance at each TP after moving a user off s (to s: none)
                cand = cost[movers] + (top + pi[s] - cost[movers, s])[:, None]
                cand[:, s] = np.inf
                arcs.append(cand)
                via = cand.min(axis=0) - pi
                drop = (via < lab) & (fin == np.inf)
                lab[drop] = via[drop]
                pred[drop] = movers[cand[:, drop].argmin(axis=0)]
        tight = 1   # with no user on a settled TP, the one in-arc is u's
        if arcs:
            # in-arcs within the margin of tight at each path TP: from u,
            # and from the users on every settled TP
            path = [t]
            while pred[path[-1]] >= 0:
                path.append(int(on[pred[path[-1]]]))
            p = fin[path] + pi[path]
            tight = (np.vstack(arcs)[:, path] - p <= margin).sum(axis=0)
            tight += cost[u, path] - p <= margin
        if sum(key <= sink + margin for key in keys) != 1 or np.any(tight != 1):
            dist = cost[u].copy()
            pred = np.full(n_tps, -1)
            active = linked[u]
            for rounds in range(n_tps + 1):
                movers = np.flatnonzero(active[on])
                if movers.size == 0:
                    break
                if rounds == n_tps:
                    raise NotConvergedError(
                        f"stage-1 path for user {inst.users[u]} still shortening "
                        f"after {n_tps} rounds: the residual graph has a "
                        "negative cycle"
                    )
                src = on[movers]
                cand = cost[movers]
                cand += (dist[src] - cost[movers, src])[:, None]
                # cand has no NaN: min is cand at argmin, taken where dist drops
                via = cand.min(axis=0)
                active = via < dist - tol
                dist[active] = via[active]
                pred[active] = movers[cand[:, active].argmin(axis=0)]
            t = int(np.argmin(dist + step[load]))
            fin = dist - pi
            top = fin[fin < np.inf].max()
        pi += np.minimum(fin, top)
        load[t] += 1
        while pred[t] >= 0:
            v = pred[t]
            tp_of[v], t = t, tp_of[v]
        tp_of[u] = t
    assign = {u: inst.tps[t] for u, t in zip(inst.users, tp_of.tolist())}
    return assign, float(-(cost[np.arange(n_users), tp_of].sum() + xl[load].sum()))


def strongest_pico(inst: NetworkInstance, user: int, macro: int) -> Optional[int]:
    """Best pico of a macro for a user by peak rate (the rate rises with
    received power), lower id on ties; None if no pico reaches the user."""
    best, best_rate = None, 0.0
    for b in inst.picos_of[macro]:
        r = inst.rates.item(inst._uidx[user], inst._tidx[b])
        if r > best_rate:
            best, best_rate = b, r
    return best


@dataclass
class StagedPfResult:
    association: Association
    fractions: AllocationFractions
    value: float
    stage1_value: float


def dc_pf_value(
    inst: NetworkInstance, assoc: Association
) -> tuple[float, AllocationFractions]:
    """Optimal PF log-utility of a full DC association, summed over macros."""
    fractions = AllocationFractions()
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
        total += sol.objective
    return total, fractions


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

    value, fractions = dc_pf_value(inst, assoc)
    return StagedPfResult(
        association=assoc,
        fractions=fractions,
        value=value,
        stage1_value=stage1_value,
    )
