"""Single-TP PF association and the staged dual-connectivity solver."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcopt import (
    Association,
    InfeasibleError,
    PfClusterProblem,
    compute_user_rates,
    make_instance,
    pf_bisection,
    single_tp_pf_solve,
    staged_pf_associate,
)
from dcopt.pf_assoc import dc_pf_value, strongest_pico

from conftest import MACRO, assoc_instance
from pf_reference import brute_force_dc_pf, single_tp_pf_objective


def xlogx(n):
    return n * math.log(n) if n > 0 else 0.0


# -- single-TP objective (the reference scorer stage 1 is checked against) ----------


def test_objective_single_user():
    inst = make_instance(
        [(1, 1.0, 0.0, math.inf)], [(MACRO, [10])],
        [(1, MACRO, math.e), (1, 10, 1.0)],
    )
    assert single_tp_pf_objective(inst, {1: MACRO}) == pytest.approx(1.0)


def test_objective_two_users_share_penalty():
    inst = make_instance(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 0.0, math.inf)],
        [(MACRO, [10])],
        [(1, MACRO, 1.0), (1, 10, 1.0), (2, MACRO, 1.0), (2, 10, 1.0)],
    )
    got = single_tp_pf_objective(inst, {1: MACRO, 2: MACRO})
    assert got == pytest.approx(-2.0 * math.log(2.0), abs=1e-12)


def test_objective_matches_independent_evaluator():
    rng = np.random.default_rng(3)
    for trial in range(20):
        inst = assoc_instance(rng, n_users=5, n_macros=2, picos_per=2)
        assign = {u: int(rng.choice(inst.tps)) for u in inst.users}
        loads: dict[int, int] = {}
        for t in assign.values():
            loads[t] = loads.get(t, 0) + 1
        want = sum(math.log(inst.rate(u, t)) for u, t in assign.items())
        want -= sum(xlogx(n) for n in loads.values())
        assert single_tp_pf_objective(inst, assign) == pytest.approx(
            want, rel=1e-12, abs=1e-12)


def test_objective_requires_full_assignment():
    rng = np.random.default_rng(5)
    inst = assoc_instance(rng, n_users=2)
    with pytest.raises(ValueError, match="not assigned"):
        single_tp_pf_objective(inst, {inst.users[0]: MACRO})


def test_objective_refuses_a_tp_without_a_link():
    inst = make_instance([(1, 1.0, 0.0, math.inf)], [(MACRO, [10])], [(1, MACRO, 1.0)])
    with pytest.raises(ValueError, match="^user 1 assigned to TP 10 with zero rate$"):
        single_tp_pf_objective(inst, {1: 10})


# -- single-TP solver ---------------------------------------------------------------


def test_solver_single_user_argmax():
    inst = make_instance(
        [(1, 1.0, 0.0, math.inf)], [(MACRO, [10, 11])],
        [(1, MACRO, 1.0), (1, 10, 3.0), (1, 11, 2.0)],
    )
    assign, value = single_tp_pf_solve(inst)
    assert assign == {1: 10}
    assert value == pytest.approx(math.log(3.0), abs=1e-12)


def test_solver_balances_identical_users():
    inst = make_instance(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 0.0, math.inf)],
        [(MACRO, [10])],
        [(1, MACRO, 2.0), (1, 10, 2.0), (2, MACRO, 2.0), (2, 10, 2.0)],
    )
    assign, value = single_tp_pf_solve(inst)
    assert {assign[1], assign[2]} == {MACRO, 10}
    assert value == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def _linked_instance(rng, n_users, sparse):
    """Two macros with one pico each; a sparse user links to a random
    nonempty subset of the four TPs (a zero rate means "no link")."""
    macros = [(MACRO, [10]), (1, [20])]
    tps = [MACRO, 1, 10, 20]
    users, peaks = [], []
    for i in range(n_users):
        u = 100 + i
        users.append((u, 1.0, 0.0, math.inf))
        linked = [t for t in tps if not sparse or rng.random() < 0.5]
        if not linked:
            linked = [tps[int(rng.integers(len(tps)))]]
        peaks.extend((u, t, float(np.exp(rng.uniform(-0.5, 1.5))))
                     for t in linked)
    return make_instance(users, macros, peaks)


def test_exact_solver_matches_enumeration():
    # user 1 joins first and takes the macro; user 2 reaches only the
    # macro, so its best route moves user 1 to the pico
    moved = make_instance(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 0.0, math.inf)],
        [(MACRO, [10])],
        [(1, MACRO, 2.0), (1, 10, 1.9), (2, MACRO, 2.0)],
    )
    assert single_tp_pf_solve(moved)[0] == {1: 10, 2: MACRO}
    rng = np.random.default_rng(7)
    cases = [moved] + [
        _linked_instance(rng, int(rng.integers(1, 7)), sparse=trial % 2 == 1)
        for trial in range(300)
    ]
    for inst in cases:
        assign, value = single_tp_pf_solve(inst)
        assert value == pytest.approx(single_tp_pf_objective(inst, assign), rel=1e-12, abs=1e-12)
        linked = [[t for t in inst.tps if inst.rate(u, t) > 0.0]
                  for u in inst.users]
        best = max(
            single_tp_pf_objective(inst, dict(zip(inst.users, combo)))
            for combo in itertools.product(*linked)
        )
        assert value == pytest.approx(best, rel=1e-12, abs=1e-12)


def test_solver_rejects_unservable_user():
    inst = make_instance(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 0.0, math.inf)],
        [(MACRO, [10])],
        [(1, MACRO, 1.0), (1, 10, 1.0)],  # user 2 has no positive rate
    )
    with pytest.raises(InfeasibleError):
        single_tp_pf_solve(inst)


def test_solver_rejects_infinite_rate():
    inst = make_instance(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 0.0, math.inf)],
        [(MACRO, [10])],
        [(1, MACRO, math.inf), (1, 10, 2.0), (2, MACRO, 1.0), (2, 10, 3.0)],
    )
    with pytest.raises(ValueError, match="user 1, tp 0: .*finite"):
        single_tp_pf_solve(inst)


# -- strongest pico ------------------------------------------------------------------


def test_strongest_pico_selection():
    inst = make_instance(
        [(1, 1.0, 0.0, math.inf)], [(MACRO, [10, 11, 12])],
        [(1, MACRO, 1.0), (1, 10, 2.0), (1, 11, 3.0), (1, 12, 3.0)],
    )
    assert strongest_pico(inst, 1, MACRO) == 11  # ties go to the lower id


def test_strongest_pico_requires_positive_signal():
    inst = make_instance(
        [(1, 1.0, 0.0, math.inf)], [(MACRO, [10])],
        [(1, MACRO, 1.0)],
    )
    assert strongest_pico(inst, 1, MACRO) is None


# -- staged DC solver ----------------------------------------------------------------


def test_staged_single_user_gets_both_legs():
    inst = make_instance(
        [(1, 1.0, 0.0, math.inf)], [(MACRO, [10])],
        [(1, MACRO, 1.5), (1, 10, 2.5)],
    )
    res = staged_pf_associate(inst)
    assert res.association.pairs[1] == (MACRO, 10)
    assert res.value == pytest.approx(math.log(4.0), rel=1e-10)
    assert res.fractions.theta[(1, MACRO)] == pytest.approx(1.0)
    assert res.fractions.gamma[(1, 10)] == pytest.approx(1.0)


def test_staged_macro_user_attaches_strongest_pico():
    # stage 1 parks user 1 on the macro; stage 2 must still pair it with
    # the strongest pico of that macro
    inst = make_instance(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 0.0, math.inf)],
        [(MACRO, [10, 11])],
        [(1, MACRO, 50.0), (1, 10, 1.0), (1, 11, 1.2),
         (2, MACRO, 1.0), (2, 10, 6.0), (2, 11, 1.0)],
    )
    assign, _ = single_tp_pf_solve(inst)
    assert assign[1] == MACRO
    res = staged_pf_associate(inst)
    assert res.association.pairs[1] == (MACRO, 11)
    assert res.association.pairs[2] == (MACRO, 10)


def test_staged_never_below_stage_one():
    rng = np.random.default_rng(13)
    for trial in range(20):
        inst = assoc_instance(rng, n_users=int(rng.integers(2, 7)),
                              n_macros=2, picos_per=2)
        res = staged_pf_associate(inst)
        assert res.value >= res.stage1_value - 1e-9
        # fractions must reproduce the reported value
        rates = compute_user_rates(inst, res.fractions)
        direct = sum(math.log(rates[u]) for u in inst.users)
        assert direct == pytest.approx(res.value, rel=1e-8, abs=1e-8)


def test_staged_theorem_bound_small_instances():
    rng = np.random.default_rng(17)
    for trial in range(10):
        k = int(rng.integers(2, 6))
        inst = assoc_instance(rng, n_users=k, n_macros=2, picos_per=1)
        res = staged_pf_associate(inst)
        _, opt = brute_force_dc_pf(inst)
        slack = min(k, 2) * math.log(2.0)
        assert res.value <= opt + 1e-9
        assert res.value >= opt - slack - 1e-9


def test_staged_rescale_compensates_bound():
    # doubling the peak rates of min{K, total picos} users lifts the
    # staged value above the original exact optimum
    rng = np.random.default_rng(19)
    for trial in range(8):
        k = int(rng.integers(2, 5))
        inst = assoc_instance(rng, n_users=k, n_macros=2, picos_per=1)
        _, opt = brute_force_dc_pf(inst)
        n_star = min(k, 2)
        boosted = set(list(inst.users)[:n_star])
        scaled = make_instance(
            [(u, inst.weight(u), 0.0, math.inf) for u in inst.users],
            [(m, inst.picos_of[m]) for m in inst.macros],
            [(u, t, (2.0 if u in boosted else 1.0) * inst.rate(u, t))
             for u in inst.users for t in inst.tps],
        )
        res = staged_pf_associate(scaled)
        assert res.value >= opt - 1e-9


def test_dc_value_requires_full_association():
    rng = np.random.default_rng(23)
    inst = assoc_instance(rng, n_users=2)
    partial = Association(pairs={inst.users[0]: None,
                                 inst.users[1]: (MACRO, 10)})
    with pytest.raises(ValueError, match="unassociated"):
        dc_pf_value(inst, partial)


def test_dc_value_agrees_with_bisection():
    rng = np.random.default_rng(29)
    inst = assoc_instance(rng, n_users=6, n_macros=2, picos_per=2)
    res = staged_pf_associate(inst)
    total, _ = dc_pf_value(inst, res.association)
    assert total == pytest.approx(res.value, rel=1e-10)
    by_cluster = 0.0
    for m in inst.macros:
        groups = res.association.users_of_macro(m)
        solo = groups.pop(None, [])
        if groups or solo:
            cl = PfClusterProblem.build(inst, m, groups, macro_only=solo)
            by_cluster += pf_bisection(cl).objective
    assert total == pytest.approx(by_cluster, rel=1e-10)


@st.composite
def sparse_pf_instances(draw):
    """Two macros with one or two picos each; every link (macro or pico)
    present with probability 0.6, so users may link a pico and not its
    macro, or a macro and none of its picos. Each user links some pico, as
    brute_force_dc_pf needs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    macros = [(m, [10 * (m + 1) + j for j in range(int(rng.integers(1, 3)))]) for m in range(2)]
    tps = [t for m, ps in macros for t in [m] + ps]
    picos = [b for _, ps in macros for b in ps]
    users, peaks = [], []
    for i in range(int(rng.integers(2, 6))):
        links = [t for t in tps if rng.random() < 0.6]
        if not set(links) & set(picos):
            links.append(int(rng.choice(picos)))
        users.append((100 + i, 1.0, 0.0, math.inf))
        peaks.extend((100 + i, t, float(np.exp(rng.uniform(-1.0, 2.0)))) for t in links)
    return make_instance(users, macros, peaks)


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(inst=sparse_pf_instances())
def test_staged_pf_on_sparse_links_keeps_its_bounds(inst):
    res = staged_pf_associate(inst)
    _, opt = brute_force_dc_pf(inst)
    n_picos = sum(len(v) for v in inst.picos_of.values())
    assert res.value >= res.stage1_value - 1e-9
    assert res.value >= opt - min(len(inst.users), n_picos) * math.log(2.0) - 1e-9
    rates = compute_user_rates(inst, res.fractions)
    assert sum(math.log(rates[u]) for u in inst.users) == pytest.approx(res.value, abs=1e-9)
