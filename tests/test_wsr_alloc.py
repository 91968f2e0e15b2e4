"""Cluster WSR allocator: minimum needs, slope curves, greedy merge, and
the LP-duality optimality certificate.

Per-pico quantities are read off allocate_cluster on one-pico clusters: the
least macro need is curve.start, the slack gain is curve.base_value minus
the minimum rates' weighted sum.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcopt import (
    ClusterProblem,
    DeploymentConfig,
    InfeasibleError,
    allocate_cluster,
    compute_user_rates,
    generate,
    local_search_associate,
    make_instance,
    verify_kkt_wsr,
)
from dcopt import wsr_alloc
from dcopt.net_model import AllocationFractions, build_ground_set
from dcopt.wsr_alloc import RES_TOL, PicoMemo, _breakpoints, rate_values, solo_values
from dcopt.wsr_assoc import SetFunctionCache, _magnitude, _margin

from conftest import MACRO, never_rise, random_feasible_cluster, rate, single_macro_instance, weight
from oracle_reference import lp_solve_wsr, solve_lp
from wsr_reference import reference_allocate

B = 10  # default pico id for hand-built clusters


def one_pico(users, rates, macro_budget=1.0, pico_budget=1.0):
    inst = make_instance(users, [(MACRO, [B])], rates)
    cl = ClusterProblem.build(
        inst, MACRO, {B: [u for u, *_ in users]},
        macro_budget=macro_budget, pico_budgets={B: pico_budget},
    )
    return inst, cl


def wsr_of(inst, fractions):
    rates = compute_user_rates(inst, fractions)
    return sum(weight(inst, u) * r for u, r in rates.items())


def slack_of(cl, out):
    """Weighted rate won above the minimum rates at the least-macro point."""
    inst = cl.inst
    return out.curve.base_value - sum(weight(inst, u) * inst.rmin(u)
                                      for us in cl.pico_users.values() for u in us)


# -- slope-curve helpers -----------------------------------------------------------


def curve_end(curve):
    return curve.start + sum(curve.widths)


def breakpoints(curve):
    pts = [curve.start]
    for w in curve.widths:
        pts.append(pts[-1] + w)
    return pts


def slope_at(curve, z):
    """Right-continuous slope; zero beyond the last segment."""
    if z < curve.start - RES_TOL:
        raise ValueError("abscissa below curve domain")
    pos = curve.start
    for w, s in zip(curve.widths, curve.slopes):
        if z < pos + w - RES_TOL:
            return s
        pos += w
    return 0.0


def check_curve(curve):
    """Positive widths and slopes, slopes non-increasing."""
    assert all(w > 0 for w in curve.widths), "non-positive segment width"
    assert all(s > 0 for s in curve.slopes), "non-positive slope"
    for a, b in zip(curve.slopes, curve.slopes[1:]):
        assert b <= a + 1e-9 * max(1.0, abs(a)), "slopes must not increase"


# -- minimum resource needs ------------------------------------------------------


def test_min_macro_need_single_user():
    # pico covers 2 of the required 3, macro covers the remaining 1
    _, cl = one_pico([(1, 1.0, 3.0, math.inf)],
                     [(1, MACRO, 1.0), (1, B, 2.0)])
    assert allocate_cluster(cl).curve.start == pytest.approx(1.0, abs=1e-12)


def test_min_needs_zero_without_min_rates():
    rng = np.random.default_rng(3)
    inst = single_macro_instance(rng, 4, 1)
    cl = ClusterProblem.build(inst, MACRO, {1: list(inst.users)})
    assert allocate_cluster(cl).curve.start == 0.0


def test_min_needs_match_lp():
    rng = np.random.default_rng(5)
    for trial in range(40):
        inst = single_macro_instance(rng, 3, 1, min_frac=0.5)
        users = list(inst.users)
        cl = ClusterProblem.build(inst, MACRO, {1: users},
                                  pico_budgets={1: 0.5})
        r1 = [rate(inst, u, MACRO) for u in users]
        rb = [rate(inst, u, 1) for u in users]
        need = [inst.rmin(u) for u in users]

        # min sum(theta) s.t. rates met, sum(gamma) <= pico budget
        A = [[r1[i] if j == 2 * i else rb[i] if j == 2 * i + 1 else 0.0
              for j in range(6)] for i in range(3)]
        A.append([0.0, 1.0] * 3)
        res = solve_lp([1, 0] * 3, A, need + [0.5],
                       [">="] * 3 + ["<="], maximize=False)
        assert res.status == "optimal"
        if res.value > 1.0:
            with pytest.raises(InfeasibleError):
                allocate_cluster(cl)
        else:
            assert allocate_cluster(cl).curve.start == pytest.approx(
                res.value, abs=1e-9)
        rng.uniform(0.3, 1.0)  # keeps the draw sequence of later trials


# -- per-pico slope curve ----------------------------------------------------------


def test_curve_single_user_unit_slope():
    _, cl = one_pico([(1, 1.0, 0.0, math.inf)],
                     [(1, MACRO, 1.0), (1, B, 2.0)])
    curve = allocate_cluster(cl).curve
    assert curve.start == 0.0
    assert list(curve.slopes) == [1.0]
    assert curve_end(curve) == pytest.approx(1.0)


def test_curve_two_user_exchange_slope():
    # pico slack fully serves user 1; the first macro unit then goes to
    # user 2 directly at rate 2, and the full-budget optimum is 6
    inst, cl = one_pico(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 0.0, math.inf)],
        [(1, MACRO, 1.0), (1, B, 4.0), (2, MACRO, 2.0), (2, B, 3.0)],
    )
    out = allocate_cluster(cl)
    curve = out.curve
    assert curve.start == 0.0
    assert curve.slopes[0] == pytest.approx(2.0, abs=1e-12)
    assert out.value == pytest.approx(6.0, rel=1e-12)
    assert curve.value_at(1.0) == pytest.approx(6.0, rel=1e-12)
    ref, _ = lp_solve_wsr(cl)
    assert ref == pytest.approx(6.0, rel=1e-9)
    assert wsr_of(inst, out.fractions) == pytest.approx(6.0, rel=1e-12)


def test_curve_rate_cap_breaks_slope():
    # user 102's cap binds at Z=0.5; the slope must drop there, and the
    # value must still match the LP on both sides of the breakpoint
    inst, cl = one_pico(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 0.0, 2.5), (3, 1.0, 0.0, math.inf)],
        [(1, MACRO, 1.0), (1, B, 10.0),
         (2, MACRO, 5.0), (2, B, 1.0),
         (3, MACRO, 2.0), (3, B, 0.5)],
    )
    curve = allocate_cluster(cl).curve
    assert list(curve.slopes) == pytest.approx([5.0, 2.0], abs=1e-12)
    assert breakpoints(curve)[1] == pytest.approx(0.5, abs=1e-12)
    for z in (0.25, 0.75):
        at_z = ClusterProblem.build(inst, MACRO, {B: [1, 2, 3]},
                                    macro_budget=z)
        want, _ = lp_solve_wsr(at_z)
        assert curve.value_at(z) == pytest.approx(want, rel=1e-9)
        assert allocate_cluster(at_z).value == pytest.approx(want, rel=1e-9)


def test_curve_slopes_non_increasing_random():
    rng = np.random.default_rng(7)
    for trial in range(60):
        inst, cl = random_feasible_cluster(rng, max_users=7, max_picos=3)
        curves = [allocate_cluster(cl).curve]
        for b, us in cl.pico_users.items():
            alone = ClusterProblem.build(inst, MACRO, {b: us})
            curves.append(allocate_cluster(alone).curve)
        for curve in curves:
            s = np.asarray(curve.slopes)
            assert np.all(s > 0)
            assert np.all(np.diff(s) <= 1e-12)
            assert np.all(np.asarray(curve.widths) > 0)
            check_curve(curve)


def test_curve_area_ties_to_baseline():
    rng = np.random.default_rng(9)
    for trial in range(30):
        inst, cl = random_feasible_cluster(rng, max_users=6, max_picos=2,
                                           min_frac=0.4)
        for b, us in cl.pico_users.items():
            out = allocate_cluster(ClusterProblem.build(inst, MACRO, {b: us}))
            curve = out.curve
            # the base value is the optimum at the least macro budget
            tight = ClusterProblem.build(inst, MACRO, {b: us},
                                         macro_budget=curve.start)
            assert curve.base_value == pytest.approx(
                allocate_cluster(tight).value, rel=1e-10, abs=1e-12)
            assert curve.value_at(1.0) == pytest.approx(out.value, rel=1e-10)


def test_curve_requires_known_pico():
    inst, cl = one_pico([(1, 1.0, 0.0, math.inf)],
                        [(1, MACRO, 1.0), (1, B, 2.0)])
    with pytest.raises(ValueError):
        ClusterProblem.build(inst, MACRO, {99: [1]})
    with pytest.raises(ValueError):
        allocate_cluster(cl).curve.value_at(-0.5)


@pytest.mark.parametrize("macro_budget, pico_budget, message", [
    (1.5, 1.0, "macro budget outside"),
    (math.nan, 1.0, "macro budget outside"),
    (1.0, -0.1, f"pico budget for {B} outside"),
    (1.0, math.nan, f"pico budget for {B} outside"),
])
def test_cluster_budgets_lie_in_unit_interval(macro_budget, pico_budget, message):
    with pytest.raises(ValueError, match=message):
        one_pico([(1, 1.0, 0.0, math.inf)], [(1, MACRO, 1.0), (1, B, 2.0)],
                 macro_budget=macro_budget, pico_budget=pico_budget)


def test_curve_budget_monotonicity():
    # shrinking the pico budget can only steepen the macro slope curve
    rng = np.random.default_rng(11)
    for trial in range(40):
        inst = single_macro_instance(rng, int(rng.integers(2, 7)), 1,
                                     min_frac=0.3)
        users = {1: list(inst.users)}
        delta = float(rng.uniform(0.1, 0.6))
        try:
            small = allocate_cluster(ClusterProblem.build(
                inst, MACRO, users, pico_budgets={1: 1.0 - delta})).curve
        except InfeasibleError:
            continue
        full = allocate_cluster(ClusterProblem.build(inst, MACRO, users)).curve
        for z in np.linspace(small.start, 1.0, 23):
            assert slope_at(small, z) >= slope_at(full, z) - 1e-9


# -- slack -------------------------------------------------------------------------


def test_slack_zero_when_macro_needed():
    _, cl = one_pico([(1, 1.0, 3.0, math.inf)],
                     [(1, MACRO, 1.0), (1, B, 2.0)])
    out = allocate_cluster(cl)
    assert out.curve.start > 0
    assert slack_of(cl, out) == 0.0


def test_slack_single_user_full_budget():
    _, cl = one_pico([(1, 1.5, 0.0, math.inf)],
                     [(1, MACRO, 1.0), (1, B, 2.0)], pico_budget=0.8)
    assert slack_of(cl, allocate_cluster(cl)) == pytest.approx(
        1.5 * 2.0 * 0.8, rel=1e-12)


def test_slack_greedy_matches_lp_with_caps():
    # caps bind: greedy fill in w*R_b order gives 2*2 + 1*5/3 = 17/3
    inst, cl = one_pico(
        [(1, 2.0, 0.0, 2.0), (2, 1.0, 0.0, 4.0)],
        [(1, MACRO, 1.0), (1, B, 3.0), (2, MACRO, 0.9), (2, B, 5.0)],
        macro_budget=0.0,
    )
    assert slack_of(cl, allocate_cluster(cl)) == pytest.approx(17.0 / 3.0,
                                                               rel=1e-12)
    ref, _ = lp_solve_wsr(cl)
    assert ref == pytest.approx(17.0 / 3.0, rel=1e-9)


def test_non_resource_limited_pico_all_capped():
    # pico alone can cap both users; extra macro resource adds nothing
    inst, cl = one_pico(
        [(1, 1.0, 0.0, 1.0), (2, 1.0, 0.0, 0.5)],
        [(1, MACRO, 1.0), (1, B, 4.0), (2, MACRO, 0.5), (2, B, 2.0)],
    )
    want = 1.0 * 1.0 + 1.0 * 0.5
    out = allocate_cluster(cl)
    assert slack_of(cl, out) == pytest.approx(want, rel=1e-12)
    assert out.value == pytest.approx(want, rel=1e-10)
    no_macro = ClusterProblem.build(inst, MACRO, {B: [1, 2]}, macro_budget=0.0)
    assert allocate_cluster(no_macro).value == pytest.approx(out.value,
                                                             rel=1e-12)


def test_slack_passes_a_user_whose_minimum_is_its_cap():
    # user 1 heads the slack order (w * R_b 5 against 1) with no room left,
    # so user 2 takes the whole slack and then the macro
    _, cl = one_pico(
        [(1, 5.0, 0.5, 0.5), (2, 1.0, 0.0, math.inf)],
        [(u, t, 1.0) for u in (1, 2) for t in (MACRO, B)],
    )
    out = allocate_cluster(cl)
    assert out.fractions.gamma == {(1, B): 0.5, (2, B): 0.5}
    assert out.fractions.theta == {(2, MACRO): 1.0}
    assert out.value == 5.0 * 0.5 + (0.5 + 1.0)


def test_zero_pico_budget_leaves_macro_moves_only():
    # no user holds pico resource, so no move exchanges it: user 1's
    # minimum takes 0.5 of the macro, the better-weighted user 2 the rest
    _, cl = one_pico(
        [(1, 1.0, 0.5, math.inf), (2, 2.0, 0.0, math.inf)],
        [(1, MACRO, 1.0), (1, B, 2.0), (2, MACRO, 1.0), (2, B, 1.0)],
        pico_budget=0.0,
    )
    out = allocate_cluster(cl)
    assert out.fractions.gamma == {}
    assert out.fractions.theta == {(1, MACRO): 0.5, (2, MACRO): 0.5}
    assert out.value == 1.5 == pytest.approx(lp_solve_wsr(cl)[0], rel=1e-9)


def test_move_that_gains_nothing_in_floats_is_not_made():
    # w * R underflows to 0 for user 1: the pico's slack still goes to it,
    # but macro that adds nothing is no segment of the curve and no share
    _, cl = one_pico([(1, 1e-200, 0.0, math.inf)],
                     [(1, MACRO, 1e-200), (1, B, 1e-200)])
    out = allocate_cluster(cl)
    assert out.curve.slopes == [] and out.fractions.theta == {}
    assert out.fractions.gamma == {(1, B): 1.0} and out.value == 0.0


# -- single-pico solve ---------------------------------------------------------------


def test_solve_single_pico_at_minimum_share():
    inst, cl = one_pico([(1, 2.0, 3.0, 3.0)],
                        [(1, MACRO, 1.0), (1, B, 2.0)])
    need = allocate_cluster(cl).curve.start
    assert need > 0
    tight = ClusterProblem.build(inst, MACRO, {B: [1]}, macro_budget=need)
    assert allocate_cluster(tight).value == pytest.approx(2.0 * 3.0,
                                                          rel=1e-12)
    short = ClusterProblem.build(inst, MACRO, {B: [1]},
                                 macro_budget=0.5 * need)
    with pytest.raises(InfeasibleError):
        allocate_cluster(short)


def test_solve_single_pico_full_budgets():
    _, cl = one_pico([(1, 1.0, 0.0, math.inf)],
                     [(1, MACRO, 1.7), (1, B, 2.4)])
    out = allocate_cluster(cl)
    assert out.value == pytest.approx(1.7 + 2.4, rel=1e-12)
    assert out.fractions.theta[(1, MACRO)] == pytest.approx(1.0)
    assert out.fractions.gamma[(1, B)] == pytest.approx(1.0)


def test_solve_single_pico_matches_lp():
    rng = np.random.default_rng(13)
    for trial in range(40):
        inst = single_macro_instance(rng, 5, 1, min_frac=0.4, max_frac=2.0)
        users = {1: list(inst.users)}
        try:
            need = allocate_cluster(
                ClusterProblem.build(inst, MACRO, users)).curve.start
        except InfeasibleError:
            continue
        z = float(rng.uniform(need, 1.0))
        at_z = ClusterProblem.build(inst, MACRO, users, macro_budget=z)
        out = allocate_cluster(at_z)
        want, _ = lp_solve_wsr(at_z)
        assert out.value == pytest.approx(want, rel=1e-9)
        assert wsr_of(inst, out.fractions) == pytest.approx(out.value,
                                                            rel=1e-10)


# -- cluster allocation ----------------------------------------------------------------


def test_allocate_two_user_min_rate_case():
    # the 16/3 optimum: macro pinned to user 2, pico split 1/3 - 2/3
    inst, cl = one_pico(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 4.0, math.inf)],
        [(1, MACRO, 1.0), (1, B, 4.0), (2, MACRO, 2.0), (2, B, 3.0)],
    )
    out = allocate_cluster(cl)
    assert out.value == pytest.approx(16.0 / 3.0, rel=1e-12)
    assert out.fractions.theta[(2, MACRO)] == pytest.approx(1.0, abs=1e-12)
    assert out.fractions.gamma[(2, B)] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert out.fractions.gamma[(1, B)] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert verify_kkt_wsr(cl, out.fractions) == []


def test_allocate_exact_budget_no_surplus():
    # macro budget equal to the total minimum need leaves nothing to merge
    inst, cl = one_pico(
        [(1, 1.0, 1.0, math.inf), (2, 1.0, 2.0, math.inf)],
        [(1, MACRO, 1.0), (1, B, 2.0), (2, MACRO, 2.0), (2, B, 1.0)],
    )
    need = allocate_cluster(cl).curve.start
    tight = ClusterProblem.build(inst, MACRO, {B: [1, 2]},
                                 macro_budget=need)
    out = allocate_cluster(tight)
    assert out.value == pytest.approx(out.curve.base_value, rel=1e-10)
    ref, _ = lp_solve_wsr(tight)
    assert out.value == pytest.approx(ref, rel=1e-9)


def test_allocate_infeasible_raises():
    _, cl = one_pico([(1, 1.0, 9.0, math.inf)],
                     [(1, MACRO, 1.0), (1, B, 2.0)])
    with pytest.raises(InfeasibleError):
        allocate_cluster(cl)


def test_allocate_matches_lp_random():
    rng = np.random.default_rng(17)
    zs = np.random.default_rng(18)  # own stream: the clusters stay as drawn
    for trial in range(40):
        inst, cl = random_feasible_cluster(rng)
        out = allocate_cluster(cl)
        ref, _ = lp_solve_wsr(cl)
        assert out.value == pytest.approx(ref, rel=1e-6, abs=1e-9)
        assert wsr_of(inst, out.fractions) == pytest.approx(out.value,
                                                            rel=1e-10)
        assert verify_kkt_wsr(cl, out.fractions) == []
        assert sum(out.fractions.theta.values()) <= cl.macro_budget + 1e-9

        # the merged curve that `dcopt curve` plots is the optimum per budget
        z = float(zs.uniform(out.curve.start, 1.0))
        ref_z, _ = lp_solve_wsr(ClusterProblem.build(
            inst, MACRO, cl.pico_users, macro_budget=z))
        assert out.curve.value_at(z) == pytest.approx(ref_z, rel=1e-6,
                                                      abs=1e-9)
        assert out.curve.value_at(1.0) == pytest.approx(out.value, rel=1e-10)


def test_feasibility_matches_lp_phase1():
    rng = np.random.default_rng(19)
    seen_infeasible = 0
    for trial in range(60):
        inst = single_macro_instance(rng, int(rng.integers(1, 6)),
                                     int(rng.integers(1, 4)), min_frac=1.0)
        grouped = {}
        for u in inst.users:
            grouped.setdefault(int(rng.choice(inst.picos_of[MACRO])),
                               []).append(u)
        cl = ClusterProblem.build(inst, MACRO, grouped)
        try:
            allocate_cluster(cl)
            ok = True
        except InfeasibleError:
            ok = False
        try:
            lp_solve_wsr(cl)
            lp_ok = True
        except InfeasibleError:
            lp_ok = False
        assert ok == lp_ok
        seen_infeasible += not ok
    assert seen_infeasible > 0  # the draw must exercise both branches


def test_kkt_flags_bad_slack_order():
    # hand-built allocation starves the higher w*R_b user of pico slack
    inst, cl = one_pico(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 0.0, math.inf)],
        [(1, MACRO, 1.0), (1, B, 4.0), (2, MACRO, 2.0), (2, B, 3.0)],
    )
    bad = AllocationFractions(theta={(2, MACRO): 1.0},
                              gamma={(1, B): 0.0, (2, B): 1.0})
    assert verify_kkt_wsr(cl, bad) != []


# Each case is a feasible point that a pairwise exchange of resource
# improves, so its weighted sum rate falls short of the dual bound.
# Rows: users (id, weight, rmin, rmax), peak rates {id: (r_macro, r_pico)},
# pico of each user, theta and gamma per user, and the expected message.
KKT_CASES = {
    # pico 10: user 1 (ratio 4) takes macro, user 2 (ratio 1.5) holds pico
    "ratio-order": (
        [(1, 1.0, 0.5, math.inf), (2, 1.0, 1.5, math.inf)],
        {1: (1.0, 4.0), 2: (2.0, 3.0)}, {1: B, 2: B},
        {1: 0.5}, {2: 0.5},
        r"^weighted sum rate 2 is below the dual bound 6$"),
    # the pico slack sits on user 2 (w r_b = 3) while user 1 (4) has room
    "pico-slack": (
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 0.0, math.inf)],
        {1: (1.0, 4.0), 2: (2.0, 3.0)}, {1: B, 2: B},
        {}, {2: 1.0},
        r"^weighted sum rate 3 is below the dual bound 6$"),
    # the macro slack sits on user 2 (w r_1 = 1) while user 1 (2) has room
    "macro-slack": (
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 0.0, math.inf)],
        {1: (2.0, 1.0), 2: (1.0, 1.0)}, {1: B, 2: B},
        {2: 1.0}, {},
        r"^weighted sum rate 1 is below the dual bound 3$"),
    # user 1 holds pico 10 at ratio 0.5, below w r_b(2) / w r_1(3) = 0.75:
    # moving macro from user 3 to user 1 and pico from user 1 to user 2 gains
    "pico-exchange-bound": (
        [(1, 1.0, 1.0, math.inf), (2, 1.0, 0.0, math.inf), (3, 1.0, 0.0, math.inf)],
        {1: (2.0, 1.0), 2: (1.0, 3.0), 3: (4.0, 1.0)}, {1: B, 2: B, 3: 11},
        {3: 1.0}, {1: 1.0},
        r"^weighted sum rate 5 is below the dual bound 7$"),
    # user 1 holds macro at ratio 1, above w r_b(2) / w r_1(3) = 0.2
    "macro-exchange-bound": (
        [(1, 1.0, 1.0, math.inf), (2, 1.0, 0.0, math.inf), (3, 1.0, 0.0, math.inf)],
        {1: (1.0, 1.0), 2: (1.0, 2.0), 3: (10.0, 1.0)}, {1: B, 2: B, 3: 11},
        {1: 1.0}, {2: 1.0},
        r"^weighted sum rate 3 is below the dual bound 12$"),
}


@pytest.mark.parametrize("case", sorted(KKT_CASES))
def test_kkt_flags_each_condition_alone(case):
    users, peaks, pico, theta, gamma, message = KKT_CASES[case]
    inst = make_instance(
        users, [(MACRO, [B, 11])],
        [(u, t, r) for u, (r1, rb) in peaks.items() for t, r in ((MACRO, r1), (pico[u], rb))])
    grouped = {}
    for u in sorted(pico):
        grouped.setdefault(pico[u], []).append(u)
    cl = ClusterProblem.build(inst, MACRO, grouped)
    fractions = AllocationFractions(
        theta={(u, MACRO): v for u, v in theta.items()},
        gamma={(u, pico[u]): v for u, v in gamma.items()})
    bad = verify_kkt_wsr(cl, fractions)
    assert len(bad) == 1 and re.match(message, bad[0]), bad


@pytest.mark.parametrize("rmin, theta, gamma, messages", [
    # the optimum, theta = gamma = 1 (value 6), with and without a minimum rate
    (0.0, 1.0, 1.0, []),
    (3.0, 1.0, 1.0, []),
    # 3x the macro budget and 2x the pico budget
    (0.0, 3.0, 2.0, ["macro: shares sum to 3 over the budget 1",
                     "pico 10: shares sum to 2 over the budget 1"]),
    # half of each budget idle
    (0.0, 0.5, 0.5, ["weighted sum rate 3 is below the dual bound 6"]),
    # rate 2 below the minimum rate 3
    (3.0, 1.0, 0.0, ["user 1: rate 2 outside [3, inf]"]),
    (0.0, -0.5, 1.0, ["user 1: negative share"]),
    # the point meets the minimum within tol, the cluster misses it by more
    (6.0 + 2.0 ** -21, 1.0, 1.0,
     ["infeasible cluster: macro budget 1.0 below total minimum need 1.000000238418579"]),
], ids=["optimum", "optimum-min-rate", "over-budget", "idle-budget",
        "below-minimum", "negative-share", "infeasible-cluster"])
def test_certificate_on_one_user(rmin, theta, gamma, messages):
    # one user with r_1 = 2 and r_b = 4: the optimum is 6. The exchange
    # rules this certificate replaced passed every point here.
    _, cl = one_pico([(1, 1.0, rmin, math.inf)], [(1, MACRO, 2.0), (1, B, 4.0)])
    point = AllocationFractions(theta={(1, MACRO): theta}, gamma={(1, B): gamma})
    assert verify_kkt_wsr(cl, point) == messages


def test_build_entries_carry_the_instance_data():
    # verify_kkt_wsr reads each user's weight, peak rates and rate limits
    # from the entries build makes: they must be the instance's own floats
    rng = np.random.default_rng(321)
    checked = 0
    for trial in range(20):
        inst = (tied_instance(rng, 8, 3) if trial % 2 else
                single_macro_instance(rng, 8, 3, min_frac=0.5, max_frac=2.0))
        grouped = {}
        for u in inst.users:
            if rng.random() < 0.8:
                grouped.setdefault(int(rng.choice(inst.picos_of[MACRO])), []).append(u)
        budgets = {b: float(rng.choice([1.0, 0.6, 0.25])) for b in grouped}
        cl = ClusterProblem.build(inst, MACRO, grouped, pico_budgets=budgets)
        assert [p.b for p in cl.views] == sorted(grouped)
        for p in cl.views:
            assert sorted(p.uid) == sorted(grouped[p.b]) and p.budget == budgets[p.b]
            for u, *got in zip(p.uid, p.w, p.r1, p.rb, p.rmin, p.rmax):
                i = inst._uidx[u]
                want = (inst.weights.item(i), inst.rates.item(i, inst._tidx[MACRO]),
                        inst.rates.item(i, inst._tidx[p.b]), inst.rate_min.item(i),
                        inst.rate_max.item(i))
                assert [type(x) for x in got] == [float] * 5
                assert [x.hex() for x in got] == [x.hex() for x in want]
                checked += 1
    assert checked > 100


@pytest.mark.parametrize("config", [
    {"users_per_macro": 9},
    {"users_per_macro": 6, "min_rate_bps": 2e5},
], ids=["wsr-dense", "wsr-minrate"])
def test_certificate_passes_seeded_solutions(config):
    clusters = 0
    for seed in (1, 2, 3):
        inst = generate(DeploymentConfig(seed=seed, rings=1, sectors_per_site=1, **config)).inst
        res = local_search_associate(inst)
        for m in inst.macros:
            grouped = {b: us for b, us in res.association.users_of_macro(m).items()
                       if b is not None}
            if grouped:
                cl = ClusterProblem.build(inst, m, grouped)
                assert verify_kkt_wsr(cl, res.fractions) == [], (seed, m)
                clusters += 1
    assert clusters >= 3 * 5


@st.composite
def budget_cases(draw):
    """A feasible cluster at random budgets in [0.2, 1], sometimes a macro
    budget equal to the minimum need, with minimum rates and caps. On the
    grid, rates are 1-4 and weights 0.5-2, so w r_b values differ by 0.5 or
    more and ties abound; otherwise rates and weights are log-uniform.
    The first two users share pico 1."""
    grid = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for _ in range(100):
        picos = list(range(1, int(rng.integers(1, 4)) + 1))
        users, peaks, grouped = [], [], {}
        for i in range(int(rng.integers(2, 8))):
            u = 100 + i
            if grid:
                w = float(rng.choice([0.5, 1.0, 2.0]))
                r1, rb = (float(x) for x in rng.integers(1, 5, 2))
            else:
                w = float(rng.uniform(0.2, 2.0))
                r1, rb = (float(x) for x in np.exp(rng.uniform(-1.0, 2.0, 2)))
            rmin = float(rng.uniform(0.0, 0.3)) * (r1 + rb) if rng.random() < 0.6 else 0.0
            rmax = rmin + float(rng.uniform(0.1, 1.0)) * (r1 + rb) if rng.random() < 0.4 else math.inf
            b = 1 if i < 2 else int(rng.choice(picos))
            users.append((u, w, rmin, rmax))
            peaks += [(u, MACRO, r1), (u, b, rb)]
            grouped.setdefault(b, []).append(u)
        inst = make_instance(users, [(MACRO, picos)], peaks)
        budgets = {b: float(rng.uniform(0.2, 1.0)) for b in grouped}
        try:
            need = allocate_cluster(ClusterProblem.build(
                inst, MACRO, grouped, pico_budgets=budgets)).curve.start
        except InfeasibleError:
            continue
        g = need if rng.random() < 0.2 else float(rng.uniform(max(need, 0.2), 1.0))
        return grid, ClusterProblem.build(inst, MACRO, grouped, macro_budget=g,
                                          pico_budgets=budgets)
    raise AssertionError("no feasible draw in 100 tries")


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(case=budget_cases(), delta=st.floats(1e-4, 0.5))
def test_certificate_at_non_unit_budgets(case, delta):
    grid, cl = case
    inst = cl.inst
    assert verify_kkt_wsr(cl, lp_solve_wsr(cl)[1]) == []
    out = allocate_cluster(cl)
    assert verify_kkt_wsr(cl, out.fractions) == []
    if not grid:
        return
    # move delta of pico 1's budget from its top w r_b user to a lower one:
    # the point leaves the feasible set or loses at least 0.5 * delta *
    # budget >= 1e-5, more than tol times a bound of at most 32
    wrb = {u: weight(inst, u) * rate(inst, u, 1) for u in cl.pico_users[1]}
    top = max(wrb, key=wrb.get)
    low = [u for u in wrb if wrb[u] < wrb[top]]
    if not low:
        return
    moved = AllocationFractions(theta=dict(out.fractions.theta), gamma=dict(out.fractions.gamma))
    step = delta * cl.pico_budgets[1]
    moved.gamma[(top, 1)] = moved.gamma.get((top, 1), 0.0) - step
    moved.gamma[(low[0], 1)] = moved.gamma.get((low[0], 1), 0.0) + step
    assert verify_kkt_wsr(cl, moved) != []


def test_zero_width_segments_match_lp(monkeypatch):
    # user 1's cap sits about 1e-13 r_1 above its full-pico rate r_b: more
    # than RES_TOL * cap, so it is not capped, but the macro it can still
    # take, (cap - r_b) / r_1, is below RES_TOL, a zero-width event
    events = 0
    width = wsr_alloc._move_width

    def counted(p, st, move):
        nonlocal events
        w = width(p, st, move)
        events += w <= RES_TOL
        return w

    monkeypatch.setattr(wsr_alloc, "_move_width", counted)
    rng = np.random.default_rng(7)
    for trial in range(40):
        r1, rb = float(rng.uniform(1e7, 5e7)), float(rng.uniform(1e6, 2e6))
        cap = rb + float(rng.uniform(0.5, 1.5)) * 1e-13 * r1
        inst, cl = one_pico(
            [(1, 1.0, 0.0, cap), (2, float(rng.uniform(0.2, 2.0)), 0.0, math.inf)],
            [(1, MACRO, r1), (1, B, rb),
             (2, MACRO, float(rng.uniform(1e6, 5e7))), (2, B, float(rng.uniform(1e5, 2e6)))],
        )
        out = allocate_cluster(cl)
        assert out.value == pytest.approx(lp_solve_wsr(cl)[0], rel=1e-9), trial
        assert wsr_of(inst, out.fractions) == pytest.approx(out.value, rel=1e-10)
    assert events > 0


@pytest.mark.parametrize("rmin", [3e-4, 5e-4])
@pytest.mark.parametrize("cap_gap", [0.5, 0.9, 1.5])
def test_zero_width_exchange_is_replayed(rmin, cap_gap):
    # user 1's pico rate is 7e-11 of its macro rate, so macro takes over its
    # pico share (rmin / 0.034 of the pico) within RES_TOL macro: a
    # zero-width exchange that hands user 2 the share. User 2's cap then
    # sits cap_gap * 1e-12 macro away, a second zero-width event or a tiny
    # segment. The replay must apply both events, and the merged curve and
    # the macro price must come from the segments alone.
    inst, cl = one_pico(
        [(1, 1.0, rmin, math.inf), (2, 1.0, 0.0, 1e6 + cap_gap * 1e-12 * 1e9)],
        [(1, MACRO, 5e8), (1, B, 0.034), (2, MACRO, 1e9), (2, B, 1e6)],
    )
    out = allocate_cluster(cl)
    stream = out.ends[0][0].stream
    assert (None, 0, 1) in [(s[0], s[2], s[3]) for s in stream]   # the exchange
    segs = [s for s in stream if s[0] is not None]
    assert out.curve.slopes == [s[0] for s in segs]
    assert out.macro_price == segs[-1][0]
    assert out.value == pytest.approx(lp_solve_wsr(cl)[0], rel=1e-9)
    assert wsr_of(inst, out.fractions) == pytest.approx(out.value, rel=1e-12)
    assert out.value == reference_allocate(cl).value


def test_traced_slopes_never_rise():
    # allocate_cluster sorts the segments where a k-way merge would take
    # the steepest head; the orders agree on streams whose slopes never rise
    rng = np.random.default_rng(311)
    multi = events = 0
    for trial in range(60):
        inst = (tied_instance(rng, 6, 3) if trial % 2 else
                single_macro_instance(rng, 6, 3, min_frac=0.5, max_frac=2.0))
        memo = PicoMemo()
        for _ in range(10):
            grouped = {}
            for u in inst.users:
                if rng.random() < 0.7:
                    grouped.setdefault(int(rng.choice(inst.picos_of[MACRO])), []).append(u)
            if grouped:
                summary_or_infeasible(allocate_cluster, from_memo(memo, ClusterProblem.build(
                    inst, MACRO, grouped, pico_budgets={b: float(rng.choice([1.0, 0.4]))
                                                        for b in grouped})))
        got = never_rise(memo)
        multi, events = multi + got[0], events + got[1]
    # the zero-width cases: a cap within RES_TOL macro (as in
    # test_zero_width_segments_match_lp), and an exchange followed by a cap
    # (as in test_zero_width_exchange_is_replayed)
    clusters = []
    for trial in range(40):
        r1, rb = float(rng.uniform(1e7, 5e7)), float(rng.uniform(1e6, 2e6))
        cap = rb + float(rng.uniform(0.5, 1.5)) * 1e-13 * r1
        clusters.append(one_pico(
            [(1, 1.0, 0.0, cap), (2, float(rng.uniform(0.2, 2.0)), 0.0, math.inf)],
            [(1, MACRO, r1), (1, B, rb),
             (2, MACRO, float(rng.uniform(1e6, 5e7))), (2, B, float(rng.uniform(1e5, 2e6)))]))
    for rmin in (3e-4, 5e-4):
        for cap_gap in (0.5, 0.9, 1.5):
            clusters.append(one_pico(
                [(1, 1.0, rmin, math.inf), (2, 1.0, 0.0, 1e6 + cap_gap * 1e-12 * 1e9)],
                [(1, MACRO, 5e8), (1, B, 0.034), (2, MACRO, 1e9), (2, B, 1e6)]))
    for inst, cl in clusters:
        memo = PicoMemo()
        allocate_cluster(from_memo(memo, cl))
        got = never_rise(memo)
        multi, events = multi + got[0], events + got[1]
    assert multi > 50 and events > 6


def test_merge_order_holds_on_rising_streams(monkeypatch):
    # streams whose slopes rise do not occur (test_traced_slopes_never_rise),
    # but the sort by running-minimum key still takes a k-way merge's order
    # on them: feed allocate_cluster made-up streams and merge them here
    rng = np.random.default_rng(313)
    for trial in range(200):
        n = int(rng.integers(1, 5))
        inst = make_instance([(u, 1.0, 0.0, math.inf) for u in range(1, n + 1)],
                             [(MACRO, list(range(1, n + 1)))],
                             [(u, t, 1.0) for u in range(1, n + 1) for t in (MACRO, u)])
        streams = {b: [(float(rng.integers(1, 4)), float(rng.choice([0.1, 0.25, 0.5])), 0, None)
                       for _ in range(int(rng.integers(1, 4)))] for b in range(1, n + 1)}
        monkeypatch.setattr(wsr_alloc, "_trace_segments", lambda p, st, z: list(streams[p.b]))
        out = allocate_cluster(ClusterProblem.build(inst, MACRO, {b: [b] for b in streams}))
        heads, left, want = {b: 0 for b in streams}, 1.0, []
        while left > RES_TOL:
            live = [b for b in sorted(streams) if heads[b] < len(streams[b])]
            if not live:
                break
            pick = max(live, key=lambda b: (streams[b][heads[b]][0], -b))
            slope, width, _, _ = streams[pick][heads[pick]]
            want.append((slope, min(width, left)))
            left -= min(width, left)
            heads[pick] += 1
        assert list(zip(out.curve.slopes, out.curve.widths)) == want, trial


def test_solo_values_match_allocate_cluster():
    # one user alone on its pico, no rate cap: weights 0.1-10, rates
    # 1e-3-1e9, no minimum rate, one the pico covers, one the macro must
    # help with, one too large, and ones within 1e-12 of either boundary
    rng = np.random.default_rng(71)
    rows = []
    for k in range(3000):
        w, r1, rb = (float(10.0 ** x) for x in (rng.uniform(-1, 1), *rng.uniform(-3, 9, 2)))
        near = 1.0 + float(rng.uniform(-2e-12, 2e-12))
        rmin = [0.0, rng.uniform(0, 1) * rb, rb + rng.uniform(0, 1) * r1,
                rb + rng.uniform(1, 2) * r1, rb * near, rb + r1 * near][k % 6]
        rows.append((w, r1, rb, float(rmin)))
    got = solo_values(*map(np.array, zip(*rows))).tolist()
    outcomes = set()
    for (w, r1, rb, rmin), value in zip(rows, got):
        inst, cl = one_pico([(1, w, rmin, math.inf)], [(1, MACRO, r1), (1, B, rb)])
        try:
            out = allocate_cluster(cl)
        except InfeasibleError:
            assert math.isnan(value), (w, r1, rb, rmin)
            outcomes.add("infeasible")
            continue
        assert value.hex() == out.value.hex(), (w, r1, rb, rmin)
        outcomes.add("macro need" if out.curve.start > 0 else "pico covers")
    assert outcomes == {"infeasible", "macro need", "pico covers"}


def test_second_difference_inequality():
    # adding budget later never helps more than adding it now
    rng = np.random.default_rng(23)
    done = 0
    while done < 40:
        inst = single_macro_instance(rng, int(rng.integers(2, 7)), 2,
                                     min_frac=0.3)
        grouped = {}
        for u in inst.users:
            grouped.setdefault(int(rng.choice([1, 2])), []).append(u)
        base_g = float(rng.uniform(0.1, 0.35))
        base_gb = {b: float(rng.uniform(0.1, 0.35)) for b in grouped}

        def value(dg, db: dict) -> float:
            cl = ClusterProblem.build(
                inst, MACRO, grouped, macro_budget=base_g + dg,
                pico_budgets={b: base_gb[b] + db.get(b, 0.0) for b in grouped},
            )
            return allocate_cluster(cl).value

        try:
            picos = sorted(grouped)
            b1 = int(rng.choice(picos))
            b2 = int(rng.choice(picos))  # b1 == b2 allowed
            d, dt = float(rng.uniform(0, 0.3)), float(rng.uniform(0, 0.3))
            db1, db2 = float(rng.uniform(0, 0.3)), float(rng.uniform(0, 0.3))
            lhs = value(0.0, {}) - value(d, {b1: db1})
            inc2 = {b2: db2}
            both = {b1: db1}
            both[b2] = both.get(b2, 0.0) + db2
            rhs = value(dt, inc2) - value(dt + d, both)
        except InfeasibleError:
            continue
        assert lhs <= rhs + 1e-8
        done += 1


# -- per-pico memo ----------------------------------------------------------------


def alloc_summary(out):
    """Every output of allocate_cluster, floats as hex, dicts in order."""
    curve = out.curve
    return (
        out.value.hex(),
        [(k, v.hex()) for k, v in out.fractions.theta.items()],
        [(k, v.hex()) for k, v in out.fractions.gamma.items()],
        curve.start.hex(),
        curve.base_value.hex(),
        [w.hex() for w in curve.widths],
        [s.hex() for s in curve.slopes],
    )


def summary_or_infeasible(alloc, *args):
    try:
        return alloc_summary(alloc(*args))
    except InfeasibleError:
        return "infeasible"


def from_memo(memo, cl):
    """cl with its per-pico entries from `memo`, shared as the WSR set
    function shares them between clusters."""
    return ClusterProblem(cl.inst, cl.macro, cl.macro_budget,
                          tuple(memo.get(p.b, p.rows, p.budget) for p in cl.views))


def tied_instance(rng, n_users, n_picos):
    """Small-integer rates and unit weights: many tied macro/pico ratios."""
    picos = list(range(1, n_picos + 1))
    users, peaks = [], []
    for i in range(n_users):
        u = 100 + i
        rates = {t: float(rng.integers(1, 4)) for t in [MACRO] + picos}
        rmin = float(rng.choice([0.0, 0.5, 1.0]))
        rmax = float(rng.choice([math.inf, rmin + 1.0]))
        users.append((u, 1.0, rmin, rmax))
        peaks.extend((u, t, r) for t, r in rates.items())
    return make_instance(users, [(MACRO, picos)], peaks)


@pytest.mark.parametrize("kind", ["minmax", "ties"])
def test_shared_memo_matches_fresh_allocation(kind):
    # a walk of clusters, each one user away from the last, as the local
    # search makes them: picos and pico budgets recur, so entries are shared
    rng = np.random.default_rng(301 if kind == "minmax" else 302)
    outcomes = set()
    for trial in range(12):
        if kind == "ties":
            inst = tied_instance(rng, 8, 3)
        else:
            inst = single_macro_instance(rng, 8, 3, min_frac=0.5, max_frac=2.0)
        memo = PicoMemo()
        budgets = {b: float(rng.choice([1.0, 0.6, 0.25])) for b in inst.picos_of[MACRO]}
        where = {}
        for step in range(40):
            u = int(rng.choice(inst.users))
            if u in where and rng.random() < 0.4:
                del where[u]
            else:
                where[u] = int(rng.choice(inst.picos_of[MACRO]))
            if not where:
                continue
            if rng.random() < 0.2:
                b = int(rng.choice(inst.picos_of[MACRO]))
                budgets[b] = float(rng.choice([1.0, 0.6, 0.25]))
            grouped = {}
            for v, b in sorted(where.items()):
                grouped.setdefault(b, []).append(v)
            cl = ClusterProblem.build(
                inst, MACRO, grouped, macro_budget=float(rng.choice([1.0, 0.5])),
                pico_budgets={b: budgets[b] for b in grouped})
            got = summary_or_infeasible(allocate_cluster, from_memo(memo, cl))
            assert got == summary_or_infeasible(allocate_cluster, cl), (trial, step)
            assert got == summary_or_infeasible(reference_allocate, cl), (trial, step)
            if got != "infeasible":
                # equality reads the results, not the memo's per-pico objects
                assert allocate_cluster(from_memo(memo, cl)) == allocate_cluster(cl)
            outcomes.add(got == "infeasible")
        # every entry is built once and kept
        assert memo.hits > 0 and memo.misses == len(memo._entries)
    assert outcomes == {False, True}


def test_shared_memo_values_match_fresh_cache():
    rng = np.random.default_rng(303)
    inst = single_macro_instance(rng, 6, 3, min_frac=0.3)
    tuples = [(u, b) for u in inst.users for b in inst.picos_of[MACRO]]
    draws = []
    for _ in range(60):
        used, sl = set(), []
        for i in rng.permutation(len(tuples))[:4]:
            if tuples[i][0] not in used:
                used.add(tuples[i][0])
                sl.append(tuples[i])
        draws.append(tuple(sorted(sl)))
    shared = SetFunctionCache(inst)
    draws = [tuple(sorted(shared.ground_set.index(t) for t in sl)) for sl in draws]
    got = [shared.macro_value(sl) for sl in draws]
    assert shared.pico_memo.hits > 0 and shared.pico_memo.misses == len(shared.pico_memo._entries)
    want = [SetFunctionCache(inst).macro_value(sl) for sl in draws]
    assert [v and v.hex() for v in got] == [v and v.hex() for v in want]


def frozen(x):
    """A copy of x that later changes to x do not reach: a _State as its
    shares and rates, lists and tuples element by element."""
    if isinstance(x, wsr_alloc._State):
        return "state", frozen(x.theta), frozen(x.gamma), frozen(x.rate)
    if isinstance(x, (list, tuple)):
        return type(x).__name__, tuple(map(frozen, x))
    return x


def test_min_rate_solve_leaves_memo_entries_unchanged(monkeypatch):
    # the memo shares each entry between clusters, so none may change once
    # built: every slot equals its copy taken at the end of __init__
    built = []
    init = wsr_alloc._Pico.__init__

    def slots(p):
        return {a: frozen(getattr(p, a)) for a in wsr_alloc._Pico.__slots__}

    def snapshot_init(self, *args):
        init(self, *args)
        built.append((self, slots(self)))

    monkeypatch.setattr(wsr_alloc._Pico, "__init__", snapshot_init)
    inst = generate(DeploymentConfig(seed=1001, rings=1, sectors_per_site=1,
                                     users_per_macro=6, min_rate_bps=2e5)).inst
    local_search_associate(inst)
    assert len(built) > 100
    for p, snap in built:
        assert slots(p) == snap, p.b


def test_replay_returns_a_state_the_caller_owns():
    inst, cl = one_pico([(1, 1.0, 0.0, 2.0), (2, 0.5, 0.0, math.inf)],
                        [(1, MACRO, 4.0), (1, B, 1.0), (2, MACRO, 3.0), (2, B, 2.0)])
    p = cl.views[0]
    width = p.stream[0][1]
    assert p.stream[0][0] is not None and len(p.stream) > 1
    for left in (width, 0.5 * width):   # the first segment whole, then cut
        st, v = p.replay(left)
        first = frozen(st), v
        st.rate[0] += 1.0
        st.theta[0] += 1.0
        st, v = p.replay(left)
        assert (frozen(st), v) == first, left


# -- the dual bound at the allocator's prices ------------------------------------------


@st.composite
def bound_cases(draw):
    """One macro, its picos and users of one kind (min-rate, capped, sparse
    links, or the near-RES_TOL caps of test_zero_width_segments_match_lp),
    and a feasible cluster S of ground-set tuples."""
    kind = draw(st.sampled_from(["minrate", "capped", "sparse", "zero-width"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    picos = list(range(1, int(rng.integers(1, 5)) + 1))
    users, peaks = [], []
    for i in range(int(rng.integers(1, 9))):
        u = 100 + i
        if kind == "zero-width":
            r1, rb = float(rng.uniform(1e7, 5e7)), float(rng.uniform(1e6, 2e6))
            rates = {MACRO: r1, **{b: rb * float(rng.uniform(0.5, 1.0)) for b in picos}}
            rmin = float(rng.choice([0.0, rng.uniform(0.0, 0.1) * rb]))
            rmax = rb + float(rng.uniform(0.5, 1.5)) * 1e-13 * r1 if rng.random() < 0.5 else math.inf
        else:
            rates = {t: float(np.exp(rng.uniform(-1.0, 2.0))) for t in [MACRO] + picos}
            if kind == "sparse":
                rates = {t: r if t == MACRO or rng.random() < 0.5 else 0.0
                         for t, r in rates.items()}
            rmin = float(rng.uniform(0.0, 0.6)) * rates[MACRO] if rng.random() < 0.8 else 0.0
            rmax = math.inf
            if kind == "capped" and rng.random() < 0.6:
                rmax = rmin + float(rng.uniform(0.0, 2.0)) * rates[MACRO]
        users.append((u, float(rng.uniform(0.2, 2.0)), rmin, rmax))
        peaks.extend((u, t, r) for t, r in rates.items())
    inst = make_instance(users, [(MACRO, picos)], peaks)
    omega = list(build_ground_set(inst))
    cluster = {}
    for k in rng.permutation(len(omega)).tolist():
        u, b = omega[k]
        if u not in cluster and rng.random() < 0.6:
            cluster[u] = b
            if cluster_value(inst, cluster) is None:
                del cluster[u]
    return inst, omega, cluster


def cluster_of(inst, where):
    grouped = {}
    for u, b in sorted(where.items()):
        grouped.setdefault(b, []).append(u)
    return ClusterProblem.build(inst, MACRO, grouped)


def cluster_value(inst, where):
    """allocate_cluster's value on {user: pico}; None when infeasible."""
    try:
        return allocate_cluster(cluster_of(inst, where)).value
    except InfeasibleError:
        return None


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(w=st.floats(1e-3, 1e3), r1=st.floats(1e-3, 1e3), rb=st.floats(1e-3, 1e3),
       rmin=st.floats(0.0, 2e3), span=st.one_of(st.just(math.inf), st.floats(0.0, 2e3)),
       lam_m=st.one_of(st.just(0.0), st.floats(0.0, 1e6)))
def test_empty_pico_price_zero_is_best(w, r1, rb, rmin, span, lam_m):
    # one user alone on a pico of unit budget: lam + phi(lam) has
    # subgradient 1 - gamma >= 0 in the pico price, so 0 is its minimum
    # and local search prices a pico its slice leaves empty at 0
    rmax = rmin + span
    at_zero = rate_values(lam_m, 0.0, w, r1, rb, rmin, rmax)
    for lam in _breakpoints(lam_m, np.array([w]), np.array([r1]), np.array([rb])).ravel():
        at_lam = rate_values(lam_m, lam, w, r1, rb, rmin, rmax)
        tol = 1e-12 * (w * (r1 + rb) + lam_m + lam)
        assert at_zero <= lam + at_lam + tol, (lam, at_zero, lam + at_lam)


def dual_bound(inst, out, where):
    """The bound lam_m + sum_b lam_b + sum_u phi_u on cluster {user: pico}
    at the prices of allocation `out`, with its margin. A pico `out` does
    not price holds the one user a move brings and is priced at 0, as local
    search prices it (test_empty_pico_price_zero_is_best)."""
    lam_m = out.macro_price
    rows = [inst._uidx[u] for u in where]
    w, rmin, rmax = inst.weights[rows], inst.rate_min[rows], inst.rate_max[rows]
    r1 = inst.rates[rows, inst._tidx[MACRO]]
    rb = inst.rates[rows, [inst._tidx[b] for b in where.values()]]
    lam = np.array([out.pico_prices.get(b, np.nan) for b in where.values()])
    new = np.isnan(lam)
    assert new.sum() <= 1
    lam[new] = 0.0
    phi = rate_values(lam_m, lam, w, r1, rb, rmin, rmax)
    prices = {b: float(x) for b, x in zip(where.values(), lam)}
    bound = lam_m + sum(prices.values()) + float(phi.sum())
    size = (abs(out.value) + lam_m + sum(out.pico_prices.values()) + sum(prices.values())
            + float(_magnitude(lam_m, lam, phi, w, r1, rb).sum()))
    return bound, float(_margin(len(where), size))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(case=bound_cases())
def test_dual_bound_holds_and_is_tight(case):
    inst, omega, cluster = case
    if not cluster:
        return
    cl = cluster_of(inst, cluster)
    out = allocate_cluster(cl)
    # strong duality: at the allocator's prices the bound is the optimum
    bound, margin = dual_bound(inst, out, cluster)
    assert abs(bound - out.value) <= margin
    assert abs(bound - lp_solve_wsr(cl)[0]) <= margin
    # weak duality: every cluster one move away stays below it
    moves = [{**cluster, u: b} for u, b in omega if cluster.get(u) != b]   # adds, own swaps
    moves += [{v: c for v, c in cluster.items() if v != u} for u in cluster]   # deletes
    moves += [{**{v: c for v, c in cluster.items() if v != o}, u: b}
              for u, b in omega if u not in cluster for o in cluster]   # swaps for a new user
    for near in moves:
        if near and (value := cluster_value(inst, near)) is not None:
            bound, margin = dual_bound(inst, out, near)
            assert value <= bound + margin, (near, value - bound, margin)
