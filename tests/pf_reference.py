"""Plain references for the PF association problems.

The single-TP objective of an assignment, which stage 1's own value is
checked against; exhaustive dual-connectivity search, the optimum the
staged-PF bound is measured against; and the best single-TP split of one
cluster, the baseline of the PF guarantee. Only tests run them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional

from dcopt import (
    Association,
    NetworkInstance,
    PfClusterProblem,
    make_instance,
    pf_bisection,
    single_tp_pf_solve,
)
from dcopt.net_model import TooLargeError


def xlogx(x: float) -> float:
    """x * ln x with the 0 * ln 0 = 0 convention."""
    return 0.0 if x <= 0 else x * math.log(x)


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
    for n in counts.values():
        total -= xlogx(float(n))
    return total


def brute_force_dc_pf(
    inst: NetworkInstance,
    cap: int = 1_000_000,
) -> tuple[Association, float]:
    """Exhaustive dual-connectivity PF search: every user tries every
    (macro, pico) pair whose pico it links to (positive peak rate; PF needs
    no macro link); each candidate is scored by the cluster PF solver.
    Raises ValueError for a user who links to no pico."""
    options: list[list[tuple[int, int]]] = []
    count = 1
    for u in inst.users:
        opts = [(m, b) for m in inst.macros for b in inst.picos_of[m]
                if inst.rate(u, b) > 0.0]
        if not opts:
            raise ValueError(f"user {u} links to no (macro, pico) pair")
        options.append(opts)
        count *= len(opts)
        if count > cap:
            raise TooLargeError(f"{count}+ candidate associations exceed cap {cap}")

    cache: dict = {}

    def cluster_value(m: int, members: tuple[tuple[int, int], ...]) -> float:
        key = (m, members)
        if key not in cache:
            pico_users: dict[int, list[int]] = {}
            for u, b in members:
                pico_users.setdefault(b, []).append(u)
            cl = PfClusterProblem.build(inst, m, pico_users)
            cache[key] = pf_bisection(cl).objective
        return cache[key]

    best_val = -math.inf
    best: Optional[dict[int, tuple[int, int]]] = None
    for combo in itertools.product(*options):
        by_macro: dict[int, list[tuple[int, int]]] = {}
        for u, (m, b) in zip(inst.users, combo):
            by_macro.setdefault(m, []).append((u, b))
        val = sum(
            cluster_value(m, tuple(sorted(v))) for m, v in sorted(by_macro.items())
        )
        if val > best_val + 1e-12:
            best_val = val
            best = {u: (m, b) for u, (m, b) in zip(inst.users, combo)}
    assert best is not None
    return Association(pairs=best), best_val


@dataclass
class SplitResult:
    to_macro: frozenset[int]
    value: float


def orthogonal_split_solve(cluster: PfClusterProblem) -> SplitResult:
    """Best single-TP split of one cluster: each user goes wholly to the
    macro or wholly to its pico, TPs shared equally among their users.

    This is stage 1 on the cluster's own instance, where each user links
    only to the macro and to its pico (macro-only users to the macro alone).
    """
    inst, macro = cluster.inst, cluster.macro
    links = [(u, macro, inst.rate(u, macro)) for u in cluster.users]
    links += [(u, b, inst.rate(u, b))
              for b, users in cluster.pico_users.items() for u in users]
    sub = make_instance([(u, 1.0, 0.0, math.inf) for u in cluster.users],
                        [(macro, list(cluster.pico_users))], links)
    assign, value = single_tp_pf_solve(sub)
    return SplitResult(frozenset(u for u, t in assign.items() if t == macro), value)
