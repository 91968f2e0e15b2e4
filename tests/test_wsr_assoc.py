"""Association set function and the greedy + local-search solver."""

import itertools
import math

import numpy as np
import pytest

from dcopt import (
    LocalSearchParams,
    SetFunctionCache,
    allocation_for_pairs,
    build_ground_set,
    check_admission_control,
    compute_user_rates,
    f_wsr,
    local_search_associate,
    make_instance,
)
from dcopt.oracle import brute_force_wsr_assoc
from dcopt.wsr_assoc import _single_run

from conftest import MACRO, assoc_instance, single_macro_instance


def wsr_of(inst, fractions):
    rates = compute_user_rates(inst, fractions)
    return sum(inst.weight(u) * r for u, r in rates.items())


# -- set function -------------------------------------------------------------------


def test_f_empty_is_zero():
    rng = np.random.default_rng(3)
    assert f_wsr(assoc_instance(rng), []) == 0.0


def test_f_singleton_full_budgets():
    inst = make_instance(
        [(1, 1.5, 0.0, math.inf)], [(MACRO, [10])],
        [(1, MACRO, 2.0), (1, 10, 3.0)],
    )
    assert f_wsr(inst, [(1, 10)]) == pytest.approx(1.5 * 5.0, rel=1e-12)


def test_f_delegates_to_cluster_allocator():
    from dcopt import ClusterProblem, allocate_cluster
    from dcopt.oracle import lp_solve_wsr

    inst = make_instance(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 4.0, math.inf)],
        [(MACRO, [10])],
        [(1, MACRO, 1.0), (1, 10, 4.0), (2, MACRO, 2.0), (2, 10, 3.0)],
    )
    got = f_wsr(inst, [(1, 10), (2, 10)])
    cl = ClusterProblem.build(inst, MACRO, {10: [1, 2]})
    assert got == pytest.approx(allocate_cluster(cl).value, rel=1e-12)
    assert got == pytest.approx(lp_solve_wsr(cl)[0], rel=1e-9)


def test_f_rejects_duplicate_user_and_foreign_tuple():
    rng = np.random.default_rng(5)
    inst = assoc_instance(rng, n_users=2)
    u = inst.users[0]
    with pytest.raises(ValueError, match="two tuples"):
        f_wsr(inst, [(u, 10), (u, 11)])
    with pytest.raises(ValueError, match="outside the ground set"):
        f_wsr(inst, [(u, 999)])


def test_f_infeasible_set_returns_none():
    # the tuple survives the ground-set filter (R_m + R_b >= rmin) but two
    # such users cannot both be served by one unit-budget cluster
    inst = make_instance(
        [(1, 1.0, 1.9, math.inf), (2, 1.0, 1.9, math.inf)],
        [(MACRO, [10])],
        [(1, MACRO, 1.0), (1, 10, 1.0), (2, MACRO, 1.1), (2, 10, 0.9)],
    )
    assert f_wsr(inst, [(1, 10)]) is not None
    assert f_wsr(inst, [(1, 10), (2, 10)]) is None


def test_cache_consistent_with_fresh_evaluation():
    rng = np.random.default_rng(7)
    inst = assoc_instance(rng, n_users=5, n_macros=2, picos_per=2,
                          admission=True)
    gs = build_ground_set(inst)
    cache = SetFunctionCache(inst, gs)
    pairs = list(gs.pairs())
    for trial in range(60):
        k = int(rng.integers(0, 5))
        idx = rng.choice(len(pairs), size=k, replace=False)
        chosen = []
        used = set()
        for i in idx:
            u, b = pairs[int(i)]
            if u not in used:
                used.add(u)
                chosen.append((u, b))
        a = cache.value(chosen)
        b_ = f_wsr(inst, chosen)  # fresh cache each call
        if a is None:
            assert b_ is None
        else:
            assert a == pytest.approx(b_, rel=1e-12)
    assert cache.hits > 0


def test_fast_path_equals_general_path():
    rng = np.random.default_rng(11)
    inst = assoc_instance(rng, n_users=6, n_macros=2, picos_per=3)
    gs = build_ground_set(inst)
    fast = SetFunctionCache(inst, gs, use_fast_path=True)
    slow = SetFunctionCache(inst, gs, use_fast_path=False)
    pairs = list(gs.pairs())
    for trial in range(40):
        used, chosen = set(), []
        for i in rng.choice(len(pairs), size=int(rng.integers(1, 7)),
                            replace=False):
            u, b = pairs[int(i)]
            if u not in used:
                used.add(u)
                chosen.append((u, b))
        assert fast.value(chosen) == pytest.approx(slow.value(chosen),
                                                   rel=1e-12)


def test_submodularity_probes():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 60:
        inst = assoc_instance(rng, n_users=int(rng.integers(2, 6)),
                              n_macros=2, picos_per=2, admission=True)
        gs = build_ground_set(inst)
        cache = SetFunctionCache(inst, gs)
        pairs = list(gs.pairs())
        rng.shuffle(pairs)
        big, used = [], set()
        for u, b in pairs:
            if u not in used and rng.random() < 0.6:
                used.add(u)
                big.append((u, b))
        if len(big) < 2:
            continue
        small = [t for t in big[:-1] if rng.random() < 0.7]
        extra = [
            (u, b) for u, b in pairs
            if u not in {x for x, _ in big}
        ]
        if not extra:
            continue
        e = extra[0]
        fF, fFe = cache.value(big), cache.value(big + [e])
        fE, fEe = cache.value(small), cache.value(small + [e])
        if None in (fF, fFe, fE, fEe):
            continue
        assert fEe - fE >= fFe - fF - 1e-8
        checked += 1


def test_non_monotone_witness():
    # a user with a binding minimum rate can drag the value down
    inst = make_instance(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 1.8, math.inf)],
        [(MACRO, [10])],
        [(1, MACRO, 1.0), (1, 10, 10.0), (2, MACRO, 1.0), (2, 10, 1.0)],
    )
    small = f_wsr(inst, [(1, 10)])
    big = f_wsr(inst, [(1, 10), (2, 10)])
    assert big is not None
    assert small > big


def test_matroid_exchange_property():
    rng = np.random.default_rng(17)
    inst = assoc_instance(rng, n_users=5, n_macros=2, picos_per=2)
    gs = build_ground_set(inst)
    pairs = list(gs.pairs())
    for trial in range(50):
        def draw(k):
            used, out = set(), []
            for i in rng.permutation(len(pairs))[: k + 3]:
                u, b = pairs[int(i)]
                if u not in used and len(out) < k:
                    used.add(u)
                    out.append((u, b))
            return out

        a = draw(int(rng.integers(0, 3)))
        b_set = draw(int(rng.integers(3, 6)))
        if len(a) >= len(b_set):
            continue
        users_a = {u for u, _ in a}
        candidates = [t for t in b_set if t[0] not in users_a]
        assert candidates  # |B| > |A| guarantees an addable element
        e = candidates[0]
        assert len({u for u, _ in a + [e]}) == len(a) + 1


# -- admission control ---------------------------------------------------------------


def test_admission_trivial_cases():
    rng = np.random.default_rng(19)
    inst = assoc_instance(rng, n_users=3)
    assert check_admission_control(inst)

    heavy = make_instance(
        [(1, 1.0, 0.6, math.inf)], [(MACRO, [10])],
        [(1, MACRO, 1.0), (1, 10, 1.0)],
    )
    assert not check_admission_control(heavy)  # 2*0.6/1.0 > 1


def test_admission_matches_direct_sum():
    rng = np.random.default_rng(23)
    for trial in range(30):
        inst = assoc_instance(rng, n_users=4, n_macros=2,
                              admission=bool(rng.integers(0, 2)))
        gs = build_ground_set(inst)
        ok = True
        for m in inst.macros:
            users = {u for u, _ in gs.per_macro[m]}
            load = sum(2.0 * inst.rmin(u) / inst.rate(u, m) for u in users)
            ok = ok and load <= 1.0 + 1e-12
        assert check_admission_control(inst) == ok


# -- solver ---------------------------------------------------------------------------


def test_singleton_picks_larger_pico_rate():
    inst = make_instance(
        [(1, 1.0, 0.0, math.inf)], [(MACRO, [10, 11])],
        [(1, MACRO, 1.0), (1, 10, 2.0), (1, 11, 3.0)],
    )
    res = local_search_associate(inst)
    assert set(res.pairs) == {(1, 11)}
    assert res.value == pytest.approx(4.0, rel=1e-12)


def test_solver_result_is_consistent():
    rng = np.random.default_rng(29)
    for trial in range(15):
        inst = assoc_instance(rng, n_users=5, n_macros=2, picos_per=2,
                              admission=True)
        res = local_search_associate(inst)
        assert res.association.validate(inst) == []
        assert res.value == pytest.approx(f_wsr(inst, res.pairs),
                                          rel=1e-10, abs=1e-12)
        assert res.value >= res.greedy_value - 1e-9
        # every accepted move cleared its positive threshold
        assert all(gain >= thr - 1e-12 and gain > 0
                   for _, gain, thr in res.trace)
        fr = allocation_for_pairs(inst, res.pairs)
        assert wsr_of(inst, fr) == pytest.approx(res.value, rel=1e-9)


def test_greedy_half_optimal_without_min_rates():
    rng = np.random.default_rng(31)
    for trial in range(20):
        inst = assoc_instance(rng, n_users=4, n_macros=2, picos_per=2)
        res = local_search_associate(inst)
        _, opt = brute_force_wsr_assoc(inst)
        assert res.greedy_value >= 0.5 * opt - 1e-9
        assert res.value >= 0.5 * opt - 1e-9


def test_local_search_bound_with_min_rates():
    rng = np.random.default_rng(37)
    for trial in range(12):
        inst = assoc_instance(rng, n_users=4, n_macros=2, picos_per=2,
                              admission=True)
        res = local_search_associate(inst, LocalSearchParams(epsilon=0.5))
        _, opt = brute_force_wsr_assoc(inst)
        assert res.value >= opt / 4.5 - 1e-9
        rates = compute_user_rates(inst, allocation_for_pairs(inst, res.pairs))
        for u, _ in res.pairs:
            assert rates[u] >= inst.rmin(u) - 1e-9


def test_complement_rerun_can_only_help():
    rng = np.random.default_rng(41)
    for trial in range(10):
        inst = assoc_instance(rng, n_users=5, n_macros=2, picos_per=2,
                              admission=True)
        full = local_search_associate(inst)
        gs = build_ground_set(inst)
        omega = sorted(gs.pairs())
        first, greedy_value, _, _ = _single_run(
            SetFunctionCache(inst, gs), omega, 0.5 / len(omega) ** 4,
            50 * len(omega))
        assert full.greedy_value == greedy_value
        assert full.value >= first.total - 1e-9
