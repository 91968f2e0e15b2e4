"""Domain model: validation, ground set, JSON round trip."""

import math

import numpy as np
import pytest

from dcopt import (
    Association,
    ClusterProblem,
    PfClusterProblem,
    allocate_cluster,
    build_ground_set,
    compute_user_rates,
    instance_errors,
    instance_from_json,
    instance_to_json,
    make_instance,
    pf_bisection,
)
from dcopt.net_model import AllocationFractions

from conftest import assoc_instance, single_macro_instance


def tiny(rate_min=0.0, rate_ub=1.0):
    return make_instance(
        [(5, 1.0, rate_min, math.inf)],
        [(0, [1])],
        [(5, 0, 1.0), (5, 1, rate_ub)],
    )


def test_minimal_instance_is_valid():
    assert instance_errors(tiny()) == []


def test_zero_rate_reported():
    # a zero (omitted) peak rate means "no link"; negative and non-finite
    # rates are reported
    inst = make_instance([(5, 1.0, 0.0, math.inf)], [(0, [1])], [(5, 0, 1.0)])
    assert instance_errors(inst) == []
    for bad in (-1.0, math.nan, math.inf):
        inst = make_instance([(5, 1.0, 0.0, math.inf)], [(0, [1])],
                             [(5, 0, 1.0), (5, 1, bad)])
        msgs = instance_errors(inst)
        assert msgs == ["user 5, tp 1: peak rate must be non-negative and finite"]


@pytest.mark.parametrize("solve", [
    lambda inst: allocate_cluster(ClusterProblem.build(inst, 0, {10: [1, 2]})),
    lambda inst: pf_bisection(PfClusterProblem.build(inst, 0, {10: [1, 2]})),
    lambda inst: pf_bisection(PfClusterProblem.build(inst, 0, {10: [2]},
                                                     macro_only=[1])),
], ids=["wsr", "pf-pico", "pf-macro-only"])
def test_cluster_builds_reject_nan_peak_rate(solve):
    # NaN compares false both ways, so a "<= 0" check would let it through
    inst = make_instance(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 0.0, math.inf)],
        [(0, [10])],
        [(1, 0, math.nan), (1, 10, 2.0), (2, 0, 1.0), (2, 10, 3.0)],
    )
    with pytest.raises(ValueError, match="user 1 needs positive peak rates"):
        solve(inst)


def test_bad_user_rows_reported():
    inst = make_instance(
        [(5, 0.0, 2.0, 1.0)], [(0, [1])], [(5, 0, 1.0), (5, 1, 1.0)]
    )
    msgs = "\n".join(instance_errors(inst))
    assert "weight" in msgs and "rate_min exceeds rate_max" in msgs


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        make_instance([(5, 1, 0, 1), (5, 1, 0, 1)], [(0, [1])], [])
    with pytest.raises(ValueError):
        make_instance([(5, 1, 0, 1)], [(0, [1]), (2, [1])], [])
    with pytest.raises(ValueError):
        make_instance([(5, 1, 0, 1)], [(0, [1])], [(5, 99, 1.0)])
    with pytest.raises(ValueError):   # one id as both macro and pico
        make_instance([(5, 1, 0, 1)], [(0, [0])], [])


# -- ground set ---------------------------------------------------------------


def test_ground_set_zero_min_keeps_all_picos():
    rng = np.random.default_rng(7)
    inst = single_macro_instance(rng, 3, 4)
    gs = build_ground_set(inst)
    for u in inst.users:
        assert len(gs.per_user[u]) == 4


def test_ground_set_drops_unreachable_user():
    inst = tiny(rate_min=5.0)  # R_m + R_b = 2 < 5
    gs = build_ground_set(inst)
    assert gs.per_user[5] == ()
    assert len(gs) == 0


def test_ground_set_filter_matches_inequality():
    rng = np.random.default_rng(11)
    inst = single_macro_instance(rng, 3, 2, min_frac=1.2)
    gs = build_ground_set(inst)
    got = set(gs.pairs())
    want = {
        (u, b)
        for u in inst.users
        for b in inst.picos
        if inst.rate(u, 0) + inst.rate(u, b) >= inst.rmin(u)
    }
    assert got == want


def test_ground_set_monotone_in_rmin():
    rng = np.random.default_rng(13)
    for trial in range(20):
        inst = single_macro_instance(rng, 4, 3, min_frac=1.5)
        lowered = make_instance(
            [(u, inst.weight(u), 0.5 * inst.rmin(u), inst.rmax(u))
             for u in inst.users],
            [(0, inst.picos_of[0])],
            [(u, t, inst.rate(u, t)) for u in inst.users for t in inst.tps],
        )
        assert set(build_ground_set(inst).pairs()) <= set(
            build_ground_set(lowered).pairs()
        )


def test_ground_set_slices_partition():
    rng = np.random.default_rng(17)
    inst = assoc_instance(rng, n_users=5, n_macros=3, picos_per=2)
    gs = build_ground_set(inst)
    by_macro = [(u, b) for m in inst.macros for u, b in gs.per_macro[m]]
    by_user = [(u, b) for u in inst.users for u, b, _ in gs.per_user[u]]
    assert sorted(by_macro) == sorted(gs.pairs())
    assert sorted(by_user) == sorted(gs.pairs())


# -- association / fractions ---------------------------------------------------


def test_association_validate():
    rng = np.random.default_rng(19)
    inst = assoc_instance(rng, n_users=2, n_macros=2, picos_per=2)
    u1, u2 = inst.users
    ok = Association(pairs={u1: (0, 10), u2: (1, None)})
    assert ok.validate(inst) == []
    assert ok.users_of_macro(0) == {10: [u1]}
    assert ok.users_of_macro(1) == {None: [u2]}

    bad = Association(pairs={u1: (0, 20), u2: (9, 10), 999: (0, 10)})
    msgs = "\n".join(bad.validate(inst))
    assert "pico 20 not under macro 0" in msgs
    assert "unknown macro 9" in msgs
    assert "unknown user 999" in msgs


def test_compute_user_rates_sums_both_legs():
    inst = tiny(rate_ub=3.0)
    fr = AllocationFractions(theta={(5, 0): 0.25}, gamma={(5, 1): 0.5})
    assert compute_user_rates(inst, fr) == {5: 0.25 * 1.0 + 0.5 * 3.0}


# -- JSON ----------------------------------------------------------------------


def test_json_round_trip_identical():
    rng = np.random.default_rng(23)
    inst = assoc_instance(rng, n_users=4, n_macros=2, picos_per=2,
                          admission=True)
    text = instance_to_json(inst)
    back = instance_from_json(text)
    assert instance_to_json(back) == text
    assert back.users == inst.users
    assert np.array_equal(back.rates, inst.rates)


def test_json_omits_infinite_rate_max():
    inst = tiny()
    text = instance_to_json(inst)
    assert "rate_max" not in text
    assert math.isinf(instance_from_json(text).rmax(5))
