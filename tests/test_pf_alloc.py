"""Cluster PF allocator: price ladder, bisection, duality certificate,
orthogonal split."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcopt import (
    PfClusterProblem,
    compute_user_rates,
    make_instance,
    pf_bisection,
    verify_kkt_pf,
)
from dcopt.pf_alloc import h_of_lambda
from dcopt.net_model import AllocationFractions

from conftest import MACRO, random_pf_cluster
from pf_reference import orthogonal_split_solve

B = 10


def ladder_cluster(ratios, pico_rates=None):
    """One pico whose users realize the given macro/pico rate ratios."""
    pico_rates = pico_rates or [1.0] * len(ratios)
    users = [(i + 1, 1.0, 0.0, math.inf) for i in range(len(ratios))]
    peaks = []
    for i, (q, rb) in enumerate(zip(ratios, pico_rates)):
        peaks.append((i + 1, MACRO, q * rb))
        peaks.append((i + 1, B, rb))
    inst = make_instance(users, [(MACRO, [B])], peaks)
    return inst, PfClusterProblem.build(
        inst, MACRO, {B: [u for u, *_ in users]}
    )


# -- piecewise h -------------------------------------------------------------------


def test_h_single_user_both_pieces():
    _, cl = ladder_cluster([1.0])
    assert h_of_lambda(cl, 0.5, B) == pytest.approx(1.0, abs=1e-15)
    assert h_of_lambda(cl, 2.0, B) == pytest.approx(0.5, abs=1e-15)


def test_h_matches_direct_case_analysis():
    _, cl = ladder_cluster([1.0, 2.0])

    def direct(lam):
        # intervals for mu = (1, 2): open straddle pieces (0,1), (2,4)
        # and closed saturated pieces [1,2], [4,inf)
        if lam < 1.0:
            return 1.0
        if lam <= 2.0:
            return 1.0 / lam
        if lam < 4.0:
            return 0.5
        return 2.0 / lam

    for lam in np.linspace(0.05, 5.0, 400):
        assert h_of_lambda(cl, float(lam), B) == pytest.approx(
            direct(float(lam)), abs=1e-12)


def test_h_continuous_at_junctions():
    rng = np.random.default_rng(29)
    for trial in range(20):
        mu = np.sort(np.exp(rng.uniform(-1, 1.5, int(rng.integers(2, 6)))))
        _, cl = ladder_cluster(list(mu))
        joints = [m * mu[m - 1] for m in range(1, len(mu) + 1)]
        joints += [(m - 1) * mu[m - 1] for m in range(2, len(mu) + 1)]
        for lam in joints:
            lo = h_of_lambda(cl, lam * (1 - 1e-9), B)
            hi = h_of_lambda(cl, lam * (1 + 1e-9), B)
            at = h_of_lambda(cl, lam, B)
            assert lo == pytest.approx(at, rel=1e-6, abs=1e-7)
            assert hi == pytest.approx(at, rel=1e-6, abs=1e-7)


# -- bisection ----------------------------------------------------------------------


def test_bisection_single_user():
    inst, cl = ladder_cluster([1.0])
    sol = pf_bisection(cl)
    assert sol.lambda_hat == pytest.approx(0.5, abs=1e-10)
    assert sol.fractions.theta[(1, MACRO)] == pytest.approx(1.0, abs=1e-10)
    assert sol.fractions.gamma[(1, B)] == pytest.approx(1.0, abs=1e-10)
    assert sol.objective == pytest.approx(math.log(2.0), abs=1e-10)


def test_bisection_two_user_ladder():
    # ratios (1, 2): the ratio-2 user takes the whole macro (rate 2),
    # the other takes the whole pico (rate 1)
    inst = make_instance(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 0.0, math.inf)],
        [(MACRO, [B])],
        [(1, MACRO, 2.0), (1, B, 1.0), (2, MACRO, 1.0), (2, B, 1.0)],
    )
    cl = PfClusterProblem.build(inst, MACRO, {B: [1, 2]})
    sol = pf_bisection(cl)
    assert sol.lambda_hat == pytest.approx(1.0, abs=1e-10)
    assert sol.fractions.theta[(1, MACRO)] == pytest.approx(1.0, abs=1e-10)
    assert sol.fractions.gamma[(2, B)] == pytest.approx(1.0, abs=1e-10)
    assert sol.objective == pytest.approx(math.log(2.0), abs=1e-10)


def test_bisection_invariants_random():
    rng = np.random.default_rng(31)
    for trial in range(50):
        n_p = int(rng.integers(1, 4))
        inst, cl = random_pf_cluster(rng, int(rng.integers(n_p, 9)), n_p,
                                     macro_only=int(rng.integers(0, 3)))
        sol = pf_bisection(cl)
        n_tot = len(cl.users)
        assert sol.residual <= 1e-10 * n_tot

        total_theta = sum(sol.fractions.theta.values())
        assert total_theta == pytest.approx(1.0, abs=1e-9)
        for b in cl.pico_users:
            s = sum(sol.fractions.gamma.get((u, b), 0.0)
                    for u in cl.pico_users[b])
            assert s == pytest.approx(1.0, abs=1e-9)
            straddlers = [
                u for u in cl.pico_users[b]
                if sol.fractions.theta.get((u, MACRO), 0.0) > 1e-12
                and sol.fractions.gamma.get((u, b), 0.0) > 1e-12
            ]
            assert len(straddlers) <= 1
        rates = compute_user_rates(inst, sol.fractions)
        assert sol.objective == sum(math.log(rates[u]) for u in cl.users)


def test_bisection_macro_only_closed_form():
    # solo user plus one macro-hungry pico user; stationarity gives the
    # split theta = (0.55, 0.45) at price 20/11
    inst = make_instance(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 0.0, math.inf)],
        [(MACRO, [B])],
        [(1, MACRO, 1.0), (2, MACRO, 10.0), (2, B, 1.0)],
    )
    cl = PfClusterProblem.build(inst, MACRO, {B: [2]}, macro_only=[1])
    sol = pf_bisection(cl)
    assert sol.lambda_hat == pytest.approx(20.0 / 11.0, rel=1e-10)
    assert sol.fractions.theta[(1, MACRO)] == pytest.approx(0.55, abs=1e-10)
    assert sol.fractions.theta[(2, MACRO)] == pytest.approx(0.45, abs=1e-10)
    assert sol.fractions.gamma[(2, B)] == pytest.approx(1.0, abs=1e-10)
    assert sol.objective == pytest.approx(math.log(0.55) + math.log(5.5),
                                          abs=1e-10)
    # grid search over the only degree of freedom
    ts = np.linspace(1e-6, 1 - 1e-6, 20001)
    grid = np.max(np.log(1 - ts) + np.log(10 * ts + 1))
    assert sol.objective >= grid - 1e-8


def test_bisection_scale_covariance():
    rng = np.random.default_rng(37)
    for trial in range(10):
        inst, cl = random_pf_cluster(rng, 5, 2, macro_only=1)
        c = float(rng.uniform(0.3, 4.0))
        scaled = make_instance(
            [(u, inst.weight(u), 0.0, math.inf) for u in inst.users],
            [(MACRO, inst.picos_of[MACRO])],
            [(u, t, c * inst.rate(u, t)) for u in inst.users for t in inst.tps],
        )
        cl2 = PfClusterProblem.build(scaled, MACRO, cl.pico_users,
                                     macro_only=cl.macro_only)
        a, b = pf_bisection(cl), pf_bisection(cl2)
        assert b.objective - a.objective == pytest.approx(
            len(cl.users) * math.log(c), rel=1e-9, abs=1e-9)
        for key, v in a.fractions.theta.items():
            assert b.fractions.theta[key] == pytest.approx(v, rel=1e-8)


def test_bisection_rejects_empty_cluster():
    inst, _ = ladder_cluster([1.0])
    with pytest.raises(ValueError):
        PfClusterProblem.build(inst, MACRO, {})


# -- duality certificate -------------------------------------------------------------


def perturbed(cl, fractions, b, delta):
    """The point with delta of the largest pico-b share moved to another of
    b's users."""
    users = cl.pico_users[b]
    src = max(users, key=lambda u: fractions.gamma.get((u, b), 0.0))
    dst = next(u for u in users if u != src)
    gamma = dict(fractions.gamma)
    moved = delta * gamma[(src, b)]
    gamma[(src, b)] -= moved
    gamma[(dst, b)] = gamma.get((dst, b), 0.0) + moved
    return AllocationFractions(theta=dict(fractions.theta), gamma=gamma)


def test_kkt_accepts_bisection_output():
    rng = np.random.default_rng(41)
    for trial in range(25):
        _, cl = random_pf_cluster(rng, int(rng.integers(2, 8)),
                                  int(rng.integers(1, 3)),
                                  macro_only=int(rng.integers(0, 2)))
        sol = pf_bisection(cl)
        assert abs(verify_kkt_pf(cl, sol.fractions).max_residual) <= 1e-8


def sparse_cluster(pico_r1, macro_only=0):
    """Pico 10 holds users 1.. with macro rates pico_r1 (0: no macro link)
    and pico rates 1, 2, ...; users after them link the macro alone."""
    n = len(pico_r1) + macro_only
    users = [(u, 1.0, 0.0, math.inf) for u in range(1, n + 1)]
    peaks = [(u, 10, float(u)) for u in range(1, len(pico_r1) + 1)]
    peaks += [(u, MACRO, r) for u, r in enumerate(pico_r1, start=1) if r > 0.0]
    peaks += [(u, MACRO, 0.5 * u) for u in range(len(pico_r1) + 1, n + 1)]
    inst = make_instance(users, [(MACRO, [10])], peaks)
    pico = {10: list(range(1, len(pico_r1) + 1))} if pico_r1 else {}
    return PfClusterProblem.build(inst, MACRO, pico,
                                  macro_only=range(len(pico_r1) + 1, n + 1))


@pytest.mark.parametrize("pico_r1, macro_only", [
    ([], 3),                    # macro-only users alone
    ([2.0, 0.5], 2),            # pico users and macro-only users
    ([0.0, 3.0, 0.0], 0),       # pico users without a macro link
    ([0.0, 3.0], 1),
    ([0.0, 0.0], 0),            # no user links the macro: it idles at price 0
], ids=["macro-only", "mixed", "no-macro-link", "no-link-and-macro-only", "idle-macro"])
def test_certificate_passes_bisection_on_edge_clusters(pico_r1, macro_only):
    cl = sparse_cluster(pico_r1, macro_only)
    sol = pf_bisection(cl)
    assert abs(verify_kkt_pf(cl, sol.fractions).max_residual) <= 1e-8
    if cl.pico_users:
        worse = perturbed(cl, sol.fractions, 10, 0.1)
        assert verify_kkt_pf(cl, worse).max_residual > 1e-3


def test_kkt_flags_uniform_point():
    inst, cl = ladder_cluster([1.0, 3.0])
    uniform = AllocationFractions(
        theta={(1, MACRO): 0.5, (2, MACRO): 0.5},
        gamma={(1, B): 0.5, (2, B): 0.5},
    )
    # prices 3/2 and 1 give the dual value 1/2 + ln 2 against ln 2
    assert verify_kkt_pf(cl, uniform).max_residual == pytest.approx(0.5, abs=1e-12)


# points near the optimum of ladder (1, 3): user 2 holds the macro, user 1
# the pico
@pytest.mark.parametrize("theta, gamma", [
    ({(1, MACRO): -1e-3, (2, MACRO): 1.0}, {(1, B): 1.0}),      # negative share
    ({(2, MACRO): 1.0}, {(1, B): 1.0, (2, B): -1e-12}),
    ({(2, MACRO): 1.0 + 1e-6}, {(1, B): 1.0}),                  # macro over budget
    ({(1, MACRO): 0.5, (2, MACRO): 0.5 + 2e-9}, {(1, B): 1.0}),
    ({(2, MACRO): 1.0}, {(1, B): 1.0, (2, B): 1e-6}),           # pico over budget
    ({(2, MACRO): 1.0}, {}),                                     # a rate of 0
    ({(2, MACRO): 1.0}, {(1, B): 0.0}),
    ({(2, MACRO): math.nan}, {(1, B): 1.0}),                     # a NaN share
], ids=["negative-theta", "negative-gamma", "macro-over", "macro-over-by-2e-9",
        "pico-over", "no-share", "zero-share", "nan-share"])
def test_certificate_flags_infeasible_points(theta, gamma):
    _, cl = ladder_cluster([1.0, 3.0])
    point = AllocationFractions(theta=dict(theta), gamma=dict(gamma))
    assert verify_kkt_pf(cl, point).max_residual == math.inf


def test_certificate_at_the_budget_tolerance():
    _, cl = ladder_cluster([1.0, 3.0])
    optimum = AllocationFractions({(2, MACRO): 1.0}, {(1, B): 1.0})
    assert verify_kkt_pf(cl, optimum).max_residual == 0.0
    # within 1e-9 of the budget the point counts as feasible and gets its gap
    over = AllocationFractions({(2, MACRO): 1.0 + 5e-10}, {(1, B): 1.0})
    assert abs(verify_kkt_pf(cl, over).max_residual) <= 1e-8


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), delta=st.floats(1e-4, 0.5))
def test_certificate_gap_bounds_a_perturbed_point(seed, delta):
    # weak duality: the gap at any feasible point is at least its distance
    # to the optimum
    rng = np.random.default_rng(seed)
    n_p = int(rng.integers(1, 4))
    inst, cl = random_pf_cluster(rng, int(rng.integers(2 * n_p, 9)), n_p,
                                 macro_only=int(rng.integers(0, 3)))
    sol = pf_bisection(cl)
    b = int(rng.choice(sorted(cl.pico_users)))
    worse = perturbed(cl, sol.fractions, b, delta)
    rates = compute_user_rates(inst, worse)
    value = sum(math.log(rates[u]) for u in cl.users)
    gap = verify_kkt_pf(cl, worse).max_residual
    assert math.isfinite(gap)
    assert gap >= sol.objective - value - 1e-12


# -- orthogonal split ------------------------------------------------------------------


def test_split_single_user_takes_better_node():
    inst, cl = ladder_cluster([2.0])  # macro rate 2, pico rate 1
    res = orthogonal_split_solve(cl)
    assert res.to_macro == {1}
    assert res.value == pytest.approx(math.log(2.0), abs=1e-12)


def test_split_two_user_ladder_is_already_optimal():
    inst = make_instance(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 0.0, math.inf)],
        [(MACRO, [B])],
        [(1, MACRO, 2.0), (1, B, 1.0), (2, MACRO, 1.0), (2, B, 1.0)],
    )
    cl = PfClusterProblem.build(inst, MACRO, {B: [1, 2]})
    res = orthogonal_split_solve(cl)
    assert res.value == pytest.approx(math.log(2.0), abs=1e-12)
    assert res.to_macro == {1}


def test_split_identical_users_two_picos_balance():
    inst = make_instance(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 0.0, math.inf)],
        [(MACRO, [10, 11])],
        [(1, MACRO, 1.0), (1, 10, 2.0), (1, 11, 2.0),
         (2, MACRO, 1.0), (2, 10, 2.0), (2, 11, 2.0)],
    )
    cl = PfClusterProblem.build(inst, MACRO, {10: [1], 11: [2]})
    res = orthogonal_split_solve(cl)
    # each user alone on its pico beats any doubling-up
    assert res.to_macro == frozenset()
    assert res.value == pytest.approx(2 * math.log(2.0), abs=1e-12)


def split_value(inst, cl, to_macro):
    """PF value of a single-TP split, each TP shared equally."""
    choice = {u: MACRO for u in cl.macro_only}
    for b in cl.pico_users:
        for u in cl.pico_users[b]:
            choice[u] = MACRO if u in to_macro else b
    counts: dict[int, int] = {}
    for t in choice.values():
        counts[t] = counts.get(t, 0) + 1
    return sum(math.log(inst.rate(u, t) / counts[t]) for u, t in choice.items())



def enumerated_split(inst, cl):
    """Best (value, to_macro) over every macro/pico side of each pico user,
    and how many splits reach that value within float noise."""
    pico_users = [u for b in sorted(cl.pico_users) for u in cl.pico_users[b]]
    scored = []
    for mask in itertools.product([0, 1], repeat=len(pico_users)):
        to_macro = frozenset(cl.macro_only).union(
            u for u, side in zip(pico_users, mask) if side)
        scored.append((split_value(inst, cl, to_macro), to_macro))
    best, argmax = max(scored, key=lambda vs: vs[0])
    ties = sum(1 for v, _ in scored if v >= best - 1e-9 * max(1.0, abs(best)))
    return best, argmax, ties


def test_split_matches_exhaustive_enumeration():
    # continuous rates: the optimal split is unique, so the set must match
    rng = np.random.default_rng(43)
    sizes = set()
    for trial in range(40):
        solo = int(rng.integers(0, 3))
        n = int(rng.integers(1, 9 - solo))
        inst, cl = random_pf_cluster(rng, n, int(rng.integers(1, 4)),
                                     macro_only=solo)
        sizes.add((len(cl.users), bool(cl.macro_only)))
        res = orthogonal_split_solve(cl)
        best, argmax, ties = enumerated_split(inst, cl)
        assert ties == 1
        assert res.value == pytest.approx(best, rel=1e-12, abs=1e-12)
        assert res.to_macro == argmax
    assert (8, True) in sizes and (8, False) in sizes


def test_split_integer_rates_with_tied_optima():
    # four like users on two picos: promoting one user of each pico to the
    # macro is optimal, and there are four ways to pick them
    users = [(u, 1.0, 0.0, math.inf) for u in (1, 2, 3, 4)]
    peaks = [(u, MACRO, 3.0) for u in (1, 2, 3, 4)]
    peaks += [(1, 10, 2.0), (2, 10, 2.0), (3, 11, 2.0), (4, 11, 2.0)]
    inst = make_instance(users, [(MACRO, [10, 11])], peaks)
    cl = PfClusterProblem.build(inst, MACRO, {10: [1, 2], 11: [3, 4]})
    res = orthogonal_split_solve(cl)
    best, _, ties = enumerated_split(inst, cl)
    assert ties == 4
    assert res.value == pytest.approx(best, rel=1e-12, abs=1e-12)
    assert split_value(inst, cl, res.to_macro) == pytest.approx(res.value)


def test_split_bound_against_pf_optimum():
    rng = np.random.default_rng(47)
    clusters = [random_pf_cluster(rng, 8, int(rng.integers(1, 4)))
                for _ in range(15)]
    # no size cap: the count DP is polynomial in the cluster size
    clusters.append(random_pf_cluster(np.random.default_rng(53), 25, 3))
    for inst, cl in clusters:
        res = orthogonal_split_solve(cl)
        opt = pf_bisection(cl).objective
        bound = min(len(cl.pico_users), len(cl.users)) * math.log(2.0)
        assert res.value <= opt + 1e-9
        assert res.value >= opt - bound - 1e-9


def test_split_cap_and_heuristic():
    # a 25-user cluster is solved exactly, with no size cap or fallback
    rng = np.random.default_rng(53)
    inst, cl = random_pf_cluster(rng, 25, 3)
    res = orthogonal_split_solve(cl)
    assert math.isfinite(res.value)
    assert res.value == pytest.approx(
        split_value(inst, cl, res.to_macro), rel=1e-12, abs=1e-12)
    # the exact split beats every simple feasible split
    pico_users = [u for b in cl.pico_users for u in cl.pico_users[b]]
    ratio = {u: inst.rate(u, MACRO) / inst.rate(u, b)
             for b in cl.pico_users for u in cl.pico_users[b]}
    candidates = [frozenset(), frozenset(pico_users),
                  frozenset(u for u in pico_users if ratio[u] >= 1.0)]
    for c in range(len(pico_users) + 1):
        candidates.append(frozenset(
            sorted(pico_users, key=lambda u: (-ratio[u], u))[:c]))
    for to_macro in candidates:
        assert split_value(inst, cl, to_macro) <= res.value + 1e-9
    assert res.value <= pf_bisection(cl).objective + 1e-9
