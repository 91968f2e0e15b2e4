"""Reference solvers: simplex, brute-force enumerators, convex PF oracle."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from dcopt import (
    ClusterProblem,
    PfClusterProblem,
    make_instance,
    pf_bisection,
    staged_pf_associate,
    verify_kkt_wsr,
)
from dcopt import wsr_alloc, wsr_assoc
from dcopt.net_model import TooLargeError, build_ground_set
from dcopt.wsr_assoc import brute_force_wsr_assoc, check_admission_control

from conftest import MACRO, f_wsr, random_feasible_cluster, random_pf_cluster, rate
from oracle_reference import lp_solve_wsr, pf_convex_oracle, solve_lp
from pf_reference import brute_force_dc_pf


# -- two-phase simplex ----------------------------------------------------------


def test_simplex_known_max():
    # max 3x + 2y s.t. x + y <= 4, x <= 2 -> x=2, y=2, value 10
    res = solve_lp([3, 2], [[1, 1], [1, 0]], [4, 2], ["<=", "<="])
    assert res.status == "optimal"
    assert res.value == pytest.approx(10.0, abs=1e-9)
    assert res.x == pytest.approx([2.0, 2.0], abs=1e-9)


def test_simplex_min_with_equality():
    # min x + y s.t. x + 2y = 4, x >= 1 -> x=1, y=1.5
    res = solve_lp([1, 1], [[1, 2], [1, 0]], [4, 1], ["=", ">="],
                   maximize=False)
    assert res.status == "optimal"
    assert res.value == pytest.approx(2.5, abs=1e-9)


def test_simplex_detects_infeasible_and_unbounded():
    assert solve_lp([1], [[1], [1]], [1, 2], ["<=", ">="]).status == "infeasible"
    assert solve_lp([1], [[1]], [1], [">="]).status == "unbounded"


def test_simplex_degenerate_terminates():
    # classic degenerate vertex; Bland's rule must not cycle
    res = solve_lp(
        [0.75, -150, 0.02, -6],
        [[0.25, -60, -0.04, 9], [0.5, -90, -0.02, 3], [0, 0, 1, 0]],
        [0, 0, 1],
        ["<=", "<=", "<="],
    )
    assert res.status == "optimal"
    assert res.value == pytest.approx(0.05, abs=1e-9)


def test_simplex_matches_enumeration_on_random_boxes():
    rng = np.random.default_rng(31)
    for trial in range(30):
        n = int(rng.integers(2, 5))
        c = rng.uniform(-1, 2, n)
        # box constraints x_i <= u_i plus one coupling row
        ub = rng.uniform(0.5, 2.0, n)
        A = [[1.0 if j == i else 0.0 for j in range(n)] for i in range(n)]
        A.append(list(rng.uniform(0.2, 1.0, n)))
        rhs = list(ub) + [float(rng.uniform(0.5, 2.0))]
        res = solve_lp(c, A, rhs, ["<="] * (n + 1))
        assert res.status == "optimal"
        # feasible sampling can only find lower objective values
        best = 0.0
        coupling = np.array(A[-1])
        for _ in range(2000):
            x = rng.uniform(0, 1, n) * ub
            if coupling @ x <= rhs[-1] + 1e-12:
                best = max(best, float(c @ x))
        assert res.value >= best - 1e-9
        assert np.all(res.x >= -1e-12) and np.all(res.x <= ub + 1e-9)


# -- WSR cluster LP -------------------------------------------------------------


def one_pico_cluster(users, rates, pico=10):
    inst = make_instance(users, [(MACRO, [pico])], rates)
    return inst, ClusterProblem.build(
        inst, MACRO, {pico: [u for u, *_ in users]}
    )


def test_lp_single_user_no_limits():
    _, cl = one_pico_cluster(
        [(1, 1.5, 0.0, math.inf)],
        [(1, MACRO, 2.0), (1, 10, 3.0)],
    )
    value, fr = lp_solve_wsr(cl)
    assert value == pytest.approx(1.5 * (2.0 + 3.0), rel=1e-9)
    assert fr.theta[(1, MACRO)] == pytest.approx(1.0, abs=1e-9)
    assert fr.gamma[(1, 10)] == pytest.approx(1.0, abs=1e-9)


def test_lp_two_user_min_rate_case():
    # minimum rate forces the macro to user 2 plus 2/3 of the pico
    _, cl = one_pico_cluster(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 4.0, math.inf)],
        [(1, MACRO, 1.0), (1, 10, 4.0), (2, MACRO, 2.0), (2, 10, 3.0)],
    )
    value, fr = lp_solve_wsr(cl)
    assert value == pytest.approx(16.0 / 3.0, rel=1e-9)
    assert fr.theta[(2, MACRO)] == pytest.approx(1.0, abs=1e-8)
    assert fr.gamma[(2, 10)] == pytest.approx(2.0 / 3.0, abs=1e-8)
    assert fr.gamma[(1, 10)] == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_lp_optimal_point_passes_kkt():
    rng = np.random.default_rng(37)
    for trial in range(25):
        _, cl = random_feasible_cluster(rng, max_users=6, max_picos=3)
        value, fr = lp_solve_wsr(cl)
        assert verify_kkt_wsr(cl, fr) == []


# -- brute-force association oracles --------------------------------------------


def test_brute_force_wsr_empty_and_singleton():
    inst = make_instance(
        [(1, 2.0, 0.0, math.inf)], [(MACRO, [10])],
        [(1, MACRO, 1.0), (1, 10, 3.0)],
    )
    best, val = brute_force_wsr_assoc(inst)
    assert best == {(1, 10)}
    assert val == pytest.approx(2.0 * 4.0, rel=1e-9)

    # min rate out of reach: the only tuple vanishes, optimum is empty
    inst2 = make_instance(
        [(1, 2.0, 9.0, math.inf)], [(MACRO, [10])],
        [(1, MACRO, 1.0), (1, 10, 3.0)],
    )
    best2, val2 = brute_force_wsr_assoc(inst2)
    assert best2 == frozenset() and val2 == 0.0


def test_brute_force_wsr_matches_direct_enumeration():
    from conftest import assoc_instance
    from dcopt.net_model import build_ground_set

    rng = np.random.default_rng(41)
    inst = assoc_instance(rng, n_users=4, n_macros=2, picos_per=2)
    gs = build_ground_set(inst)
    best, val = brute_force_wsr_assoc(inst)

    ref = 0.0
    for r in range(len(inst.users) + 1):
        for combo in itertools.combinations(gs, r):
            if len({u for u, _ in combo}) < len(combo):
                continue
            v = f_wsr(inst, combo)
            if v is not None:
                ref = max(ref, v)
    assert val == pytest.approx(ref, rel=1e-8)
    got = f_wsr(inst, best)
    assert got == pytest.approx(val, rel=1e-8)


def test_brute_force_wsr_allocates_each_cluster_once(monkeypatch):
    # the certificate reads its prices from the allocation that gave the
    # value: one allocate_cluster call per distinct (macro, pairs) cluster,
    # counted in both modules that call it. Under admission control every
    # cluster is feasible, so the search visits each one
    from conftest import assoc_instance

    calls = Counter()
    alloc = wsr_alloc.allocate_cluster

    def counted(cl):
        calls[cl.macro, tuple(sorted((u, b) for b, us in cl.pico_users.items()
                                     for u in us))] += 1
        return alloc(cl)

    for module in (wsr_alloc, wsr_assoc):
        monkeypatch.setattr(module, "allocate_cluster", counted)
    rng = np.random.default_rng(47)
    for trial in range(6):
        inst = assoc_instance(rng, n_users=int(rng.integers(2, 5)), n_macros=2,
                              picos_per=2, admission=True)
        assert check_admission_control(inst)
        gs = build_ground_set(inst)
        # per macro, every nonempty choice of at most one tuple per user
        clusters = sum(
            math.prod(1 + sum(1 for v, b in gs if v == u and inst.pico_macro[b] == m)
                      for u in inst.users) - 1
            for m in inst.macros)
        calls.clear()
        brute_force_wsr_assoc(inst)
        assert len(calls) == clusters > 0
        assert set(calls.values()) == {1}


def test_brute_force_wsr_cap():
    rng = np.random.default_rng(43)
    from conftest import assoc_instance

    inst = assoc_instance(rng, n_users=8, n_macros=3, picos_per=3)
    with pytest.raises(TooLargeError):
        brute_force_wsr_assoc(inst, cap=1000)


def test_brute_force_dc_pf_single_user():
    inst = make_instance(
        [(1, 1.0, 0.0, math.inf)],
        [(0, [10]), (1, [20])],
        [(1, 0, 1.0), (1, 10, 2.0), (1, 1, 1.5), (1, 20, 1.2)],
    )
    assoc, val = brute_force_dc_pf(inst)
    # ln(1+2) > ln(1.5+1.2)
    assert assoc.pairs[1] == (0, 10)
    assert val == pytest.approx(math.log(3.0), rel=1e-9)


def test_brute_force_dc_pf_symmetric_two_users():
    # two identical users, one macro, two identical picos: one user per pico
    inst = make_instance(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 0.0, math.inf)],
        [(0, [10, 11])],
        [(1, 0, 1.0), (1, 10, 2.0), (1, 11, 2.0 + 1e-9),
         (2, 0, 1.0), (2, 10, 2.0), (2, 11, 2.0 - 1e-9)],
    )
    assoc, val = brute_force_dc_pf(inst)
    picos = {assoc.pairs[1][1], assoc.pairs[2][1]}
    assert picos == {10, 11}
    with pytest.raises(TooLargeError):
        brute_force_dc_pf(inst, cap=3)


def test_brute_force_dc_pf_sparse_links():
    # a zero rate means no link: user 11 cannot take pico 2, user 12 no pico
    users = [(10, 1.0, 0.0, math.inf), (11, 1.0, 0.0, math.inf)]
    peaks = [(10, 0, 1.0), (10, 1, 2.0), (10, 2, 3.0), (11, 0, 2.0), (11, 1, 2.0)]
    inst = make_instance(users, [(0, [1, 2])], peaks)
    assoc, val = brute_force_dc_pf(inst)
    assert assoc.pairs[11] == (0, 1)
    assert all(rate(inst, u, m) > 0.0 and rate(inst, u, b) > 0.0
               for u, (m, b) in assoc.pairs.items())
    assert val >= staged_pf_associate(inst).value - 1e-12
    lonely = make_instance(users + [(12, 1.0, 0.0, math.inf)], [(0, [1, 2])],
                           peaks + [(12, 0, 1.0)])
    with pytest.raises(ValueError, match="^user 12 links to no"):
        brute_force_dc_pf(lonely)


# -- convex PF oracle ------------------------------------------------------------


def test_convex_oracle_single_user():
    _, cl = random_pf_cluster(np.random.default_rng(47), 1, 1)
    u = cl.users[0]
    want = math.log(rate(cl.inst, u, MACRO) + rate(cl.inst, u, 1))
    assert pf_convex_oracle(cl) == pytest.approx(want, abs=1e-6)


def test_convex_oracle_two_user_ladder():
    inst = make_instance(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 0.0, math.inf)],
        [(MACRO, [10])],
        [(1, MACRO, 2.0), (1, 10, 1.0), (2, MACRO, 1.0), (2, 10, 1.0)],
    )
    cl = PfClusterProblem.build(inst, MACRO, {10: [1, 2]})
    assert pf_convex_oracle(cl) == pytest.approx(math.log(2.0), abs=1e-6)


def test_convex_oracle_tracks_bisection():
    rng = np.random.default_rng(53)
    for trial in range(10):
        _, cl = random_pf_cluster(rng, int(rng.integers(2, 7)),
                                  int(rng.integers(1, 4)))
        ref = pf_bisection(cl).objective
        assert pf_convex_oracle(cl) == pytest.approx(ref, abs=1e-4)


def test_convex_oracle_rejects_macro_only_users():
    _, cl = random_pf_cluster(np.random.default_rng(59), 3, 2, macro_only=1)
    with pytest.raises(ValueError):
        pf_convex_oracle(cl)
