"""Cluster WSR allocator: minimum needs, slope curves, greedy merge, KKT.

Per-pico quantities are read off allocate_cluster on one-pico clusters: the
least macro need is curve.start, the slack gain is curve.base_value minus
the minimum rates' weighted sum.
"""

import math

import numpy as np
import pytest

from dcopt import (
    ClusterProblem,
    InfeasibleError,
    allocate_cluster,
    compute_user_rates,
    make_instance,
    verify_kkt_wsr,
)
from dcopt.oracle import lp_solve_wsr, solve_lp
from dcopt.wsr_alloc import RES_TOL

from conftest import MACRO, random_feasible_cluster, single_macro_instance

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
    return sum(inst.weight(u) * r for u, r in rates.items())


def slack_of(cl, out):
    """Weighted rate won above the minimum rates at the least-macro point."""
    inst = cl.inst
    return out.curve.base_value - sum(inst.weight(u) * inst.rmin(u)
                                      for u in cl.users)


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
        r1 = [inst.rate(u, MACRO) for u in users]
        rb = [inst.rate(u, 1) for u in users]
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
        assert sum(out.macro_shares.values()) <= cl.macro_budget + 1e-9

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
    from dcopt.net_model import AllocationFractions

    bad = AllocationFractions(theta={(2, MACRO): 1.0},
                              gamma={(1, B): 0.0, (2, B): 1.0})
    assert verify_kkt_wsr(cl, bad) != []


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
