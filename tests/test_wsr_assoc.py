"""Association set function and the greedy + local-search solver."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcopt import (
    AllocationFractions,
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
from dcopt.net_model import build_ground_set
from dcopt import wsr_assoc
from dcopt.wsr_assoc import (
    SetFunctionCache,
    _screen,
    _single_run,
    brute_force_wsr_assoc,
    check_admission_control,
)

from conftest import MACRO, assoc_instance, association_errors, f_wsr, never_rise
from wsr_reference import ReferenceCache, reference_associate


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
    from oracle_reference import lp_solve_wsr

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
    cache = SetFunctionCache(inst)
    pairs = list(gs)
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
        a = f_wsr(inst, chosen, cache)
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
    fast = SetFunctionCache(inst)
    pairs = list(gs)
    for trial in range(40):
        used, chosen = set(), []
        for i in rng.choice(len(pairs), size=int(rng.integers(1, 7)),
                            replace=False):
            u, b = pairs[int(i)]
            if u not in used:
                used.add(u)
                chosen.append((u, b))
        # the general path: one allocate_cluster per macro on the same tuples
        by_macro = {}
        for u, b in chosen:
            by_macro.setdefault(inst.pico_macro[b], {}).setdefault(b, []).append(u)
        slow = sum(allocate_cluster(ClusterProblem.build(inst, m, grouped)).value
                   for m, grouped in sorted(by_macro.items()))
        assert f_wsr(inst, chosen, fast) == pytest.approx(slow, rel=1e-12)
    assert fast.misses > 0 and fast.pico_memo.misses == 0   # closed form only


# beyond int64 either way, and small ones of both signs
_IDS = st.integers(2**63, 2**70) | st.integers(-2**70, -2**63) | st.integers(-3, 3)


@st.composite
def _sparse_multi_macro(draw):
    """Instances listing their ids in drawn order (not sorted), negative and
    beyond 2**63, with two or three macros, links missing at random and
    minimum rates that some pairs cannot attain."""
    users = draw(st.lists(_IDS, min_size=1, max_size=7, unique=True))
    tps = draw(st.lists(_IDS, min_size=4, max_size=10, unique=True))
    macros = tps[:draw(st.integers(2, 3))]
    picos = tps[len(macros):]
    owner = [draw(st.sampled_from(macros)) for _ in picos]
    rows = [(u, draw(st.floats(0.5, 2.0)), draw(st.just(0.0) | st.floats(0.0, 15.0)),
             math.inf) for u in users]
    peaks = [(u, t, r) for u in users for t in tps
             if (r := draw(st.just(0.0) | st.floats(0.1, 10.0))) > 0.0]
    return make_instance(
        rows, [(m, [b for b, o in zip(picos, owner) if o == m]) for m in macros], peaks)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(inst=_sparse_multi_macro())
def test_positions_sort_like_pairs(inst):
    # the solver names a tuple by its ground-set position, so its heap keys,
    # tie-breaks and slice order hold only if positions sort like the pairs,
    # and it finds a user's tuples as one run of positions
    gs = build_ground_set(inst)
    assert list(gs) == sorted(gs)
    users = [u for u, _ in gs]
    runs = [u for k, u in enumerate(users) if k == 0 or users[k - 1] != u]
    assert len(runs) == len(set(users))
    cache = SetFunctionCache(inst)
    at = zip(cache.user_at.tolist(), cache.macro_at.tolist(), cache.slot.tolist())
    assert [(inst.users[i], inst.macros[j], inst.picos_of[inst.macros[j]][q])
            for i, j, q in at] == [(u, inst.pico_macro[b], b) for u, b in gs]
    assert [cache.ground_set.index(p) for p in gs] == list(range(len(gs)))


def one_tuple_value(inst, u, b):
    """allocate_cluster's value of (u, b) alone in its cluster; None when infeasible."""
    try:
        return allocate_cluster(ClusterProblem.build(inst, inst.pico_macro[b], {b: [u]})).value
    except InfeasibleError:
        return None


@pytest.mark.parametrize("case", ["seed-1", "seed-2", "seed-3", "capped"])
def test_cache_singletons_match_allocate_cluster(case):
    # every ground-set tuple alone: three min-rate deployments, whose values
    # come from solo_values, and capped users, which take allocate_cluster
    from dcopt import DeploymentConfig, generate

    if case == "capped":
        rng = np.random.default_rng(5)
        inst = ls_case(rng, "capped")[0]
        while not np.isfinite(inst.rate_max).any():
            inst = ls_case(rng, "capped")[0]
    else:
        seed = int(case[-1])
        inst = generate(DeploymentConfig(rings=1, sectors_per_site=1, users_per_macro=6,
                                         min_rate_bps=[2e5, 1e6, 5e6][seed - 1],
                                         seed=1000 + seed)).inst
    cache = SetFunctionCache(inst)
    got = [cache.macro_value((t,)) for t in range(len(cache.ground_set))]
    want = [one_tuple_value(inst, u, b) for u, b in cache.ground_set]
    assert [v if v is None else v.hex() for v in got] == [
        v if v is None else v.hex() for v in want]
    assert cache.hits == len(got) and cache.misses == 0
    if case != "capped":   # the pico alone covers some minimum rates, not all
        need = inst.rate_min[cache.user_at] > cache.r_pico
        assert need.any() and not need.all()


def test_free_singleton_keeps_the_closed_form(monkeypatch):
    # user 1 is free (weight 0.7): its value alone is the closed form's
    # w r_macro + w r_pico, which rounds differently from the allocator's
    # w (r_pico + r_macro). The reference cache values user 2's tuple (a
    # minimum rate) through allocate_cluster, not through `single`.
    inst = make_instance(
        [(1, 0.7, 0.0, math.inf), (2, 1.3, 0.5, math.inf)], [(MACRO, [10])],
        [(1, MACRO, 3.0), (1, 10, 0.7), (2, MACRO, 2.0), (2, 10, 1.0)],
    )
    closed = 0.7 * 3.0 + 0.7 * 0.7
    assert one_tuple_value(inst, 1, 10) != closed
    calls = 0
    alloc = wsr_assoc.allocate_cluster

    def counted(cl):
        nonlocal calls
        calls += 1
        return alloc(cl)

    monkeypatch.setattr(wsr_assoc, "allocate_cluster", counted)
    for cache in (SetFunctionCache(inst), ReferenceCache(inst)):
        assert cache.macro_value((cache.ground_set.index((1, 10)),)) == closed
        assert cache.macro_value((cache.ground_set.index((2, 10)),)) == one_tuple_value(inst, 2, 10)
    assert calls == 1


def test_submodularity_probes():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 60:
        inst = assoc_instance(rng, n_users=int(rng.integers(2, 6)),
                              n_macros=2, picos_per=2, admission=True)
        gs = build_ground_set(inst)
        cache = SetFunctionCache(inst)
        pairs = list(gs)
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
        fF, fFe = f_wsr(inst, big, cache), f_wsr(inst, big + [e], cache)
        fE, fEe = f_wsr(inst, small, cache), f_wsr(inst, small + [e], cache)
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
    pairs = list(gs)
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


def test_pico_memo_misses_equal_distinct_pico_keys(monkeypatch):
    inst = assoc_instance(np.random.default_rng(23), n_users=6, n_macros=2,
                          picos_per=3, admission=True)
    cache = SetFunctionCache(inst)
    keys, views = set(), 0
    alloc = wsr_assoc.allocate_cluster

    def recording(cl):
        # the cache hands allocate_cluster clusters whose entries
        # are the memo's own: one per distinct (pico, users, budget) key
        nonlocal views
        for p in cl.views:
            key = (p.b, p.uid, p.budget)
            keys.add(key)
            assert cache.pico_memo._entries[key] is p
        views += len(cl.views)
        return alloc(cl)

    monkeypatch.setattr(wsr_assoc, "allocate_cluster", recording)
    gs = build_ground_set(inst)
    omega = list(range(len(gs)))
    _single_run(cache, omega, 0.5 / len(omega) ** 4, 50 * len(omega))
    assert cache.pico_memo.misses == len(keys) == len(cache.pico_memo._entries) > 0
    # a lookup serves a kept slice's picos once, or the one or two picos
    # an edit of it touches: fewer lookups than the clusters valued hold picos
    assert 0 < cache.pico_memo.hits < views - len(keys)


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
            users = {u for u, b in gs if inst.pico_macro[b] == m}
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
        assert association_errors(res.association, inst) == []
        assert res.value == pytest.approx(f_wsr(inst, res.pairs),
                                          rel=1e-10, abs=1e-12)
        assert res.value >= res.greedy_value - 1e-9
        # every accepted move cleared its positive threshold
        assert all(gain >= thr - 1e-12 and gain > 0
                   for _, gain, thr in res.trace)
        assert wsr_of(inst, res.fractions) == pytest.approx(res.value, rel=1e-9)


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
        res = local_search_associate(inst, epsilon=0.5)
        _, opt = brute_force_wsr_assoc(inst)
        assert res.value >= opt / 4.5 - 1e-9
        rates = compute_user_rates(inst, res.fractions)
        for u, _ in res.pairs:
            assert rates[u] >= inst.rmin(u) - 1e-9


def test_complement_rerun_can_only_help():
    rng = np.random.default_rng(41)
    for trial in range(10):
        inst = assoc_instance(rng, n_users=5, n_macros=2, picos_per=2,
                              admission=True)
        full = local_search_associate(inst)
        gs = build_ground_set(inst)
        omega = list(range(len(gs)))
        first, greedy_value, _, _, _ = _single_run(
            SetFunctionCache(inst), omega, 0.5 / len(omega) ** 4,
            50 * len(omega))
        assert full.greedy_value == greedy_value
        assert full.value >= first.total - 1e-9


def test_single_run_checks_running_total(monkeypatch):
    inst = assoc_instance(np.random.default_rng(43), n_users=5)
    gs = build_ground_set(inst)
    omega = list(range(len(gs)))
    apply = wsr_assoc._RunState.apply

    def drifting(state, out, inc):
        apply(state, out, inc)
        state.total *= 1.0 + 1e-6

    monkeypatch.setattr(wsr_assoc._RunState, "apply", drifting)
    with pytest.raises(AssertionError, match="drifted"):
        _single_run(SetFunctionCache(inst), omega, 0.5 / len(omega) ** 4,
                    50 * len(omega))


# -- incremental scans against the full-rescan reference -------------------------


LS_CASES = ("free", "minrate", "mixed", "sparse", "ties", "capped", "tight")


def ls_case(rng, kind):
    """Random multi-macro instance and solver parameters for one case kind."""
    n_macros = int(rng.integers(1, 4))
    picos_per = int(rng.integers(1, 5))
    n_users = int(rng.integers(2, 15))
    macros = [(m, [10 * (m + 1) + j for j in range(picos_per)])
              for m in range(n_macros)]
    users, peaks = [], []
    for i in range(n_users):
        u = 100 + i
        if kind == "ties":
            rates = {t: float(rng.integers(0, 4))
                     for m, ps in macros for t in [m] + ps}
            weight = 1.0
        else:
            rates = {t: float(np.exp(rng.uniform(-1.0, 2.0)))
                     for m, ps in macros for t in [m] + ps}
            weight = float(rng.uniform(0.5, 1.5))
        if kind == "sparse":
            rates = {t: r if rng.random() < 0.6 else 0.0 for t, r in rates.items()}
        constrained = kind in ("minrate", "capped") or (
            kind != "free" and rng.random() < 0.5)
        if kind == "mixed" and constrained and n_macros > 1:
            # no link to macro 0: its cluster stays free, the others mix
            rates = {t: 0.0 if t in [0] + macros[0][1] else r
                     for t, r in rates.items()}
        rmin, rmax = 0.0, math.inf
        if kind == "tight":
            # a macro's share of the users, served by the macro alone, needs
            # 0.6-1.2 of its budget: most clusters are nearly full
            rmin = float(rng.uniform(0.6, 1.2)) * n_macros / n_users * min(
                rates[m] for m, _ in macros)
        elif constrained:
            links = [rates[m] for m, _ in macros if rates[m] > 0]
            rmin = float(rng.uniform(0.0, 0.3)) * min(links, default=0.0)
            if rng.random() < 0.3:
                rmax = rmin + float(rng.uniform(0.2, 3.0))
        users.append((u, weight, rmin, rmax))
        peaks.extend((u, t, r) for t, r in rates.items())
    eps = float(rng.choice([0.0, 1e-9] if kind == "ties" else [0.5, 0.5, 1e-9, 0.0]))
    max_iter = int(rng.integers(1, 3)) if kind == "capped" else None
    return make_instance(users, macros, peaks), dict(epsilon=eps, max_iter=max_iter)


def ls_summary(res):
    return (
        sorted(res.pairs),
        res.value.hex(),
        res.greedy_value.hex(),
        sorted(res.greedy_pairs),
        [(kind, gain.hex(), thr.hex()) for kind, gain, thr in res.trace],
        res.capped,
    )


@pytest.mark.parametrize("kind", LS_CASES)
def test_local_search_matches_full_rescan_reference(monkeypatch, kind):
    rng = np.random.default_rng(101 + LS_CASES.index(kind))
    moves = 0
    for trial in range(40):
        inst, params = ls_case(rng, kind)
        got = local_search_associate(inst, **params)
        ref = reference_associate(monkeypatch, inst, **params)
        assert ls_summary(got) == ls_summary(ref), (kind, trial)
        moves += len(ref.trace)
    assert moves > 0


@pytest.mark.parametrize("kind", ["free", "mixed", "ties"])
def test_local_search_from_random_start_matches_reference(kind):
    # a random feasible start set, not a greedy one, makes the scans take
    # adds, deletes and swaps that leave users unserved, and meet ties
    from wsr_reference import local_search

    rng = np.random.default_rng(201 + ["free", "mixed", "ties"].index(kind))
    moves = 0
    for trial in range(80):
        inst, _ = ls_case(rng, kind)
        gs = build_ground_set(inst)
        omega = list(range(len(gs)))
        if not omega:
            continue
        cache = SetFunctionCache(inst)
        start = []
        for i in rng.permutation(len(omega)).tolist():
            u, b = gs[i]
            if rng.random() < 0.5 and u not in {gs[t][0] for t in start}:
                m = inst.pico_macro[b]
                sl = tuple(sorted([t for t in start if inst.pico_macro[gs[t][1]] == m]
                                  + [i]))
                if cache.macro_value(sl) is not None:
                    start.append(i)
        runs = []
        for search in (wsr_assoc._local_search, local_search):
            state = wsr_assoc._RunState(cache)
            for t in start:
                state.apply(None, t)
            trace = []
            # delta 0 accepts any positive gain, rounding-sized ones too
            search(state, omega, 0.0, 50 * len(omega), trace)
            runs.append((sorted(state.pairs()), state.total.hex(),
                         [(k, g.hex(), t.hex()) for k, g, t in trace]))
        assert runs[0] == runs[1], (kind, trial)
        moves += len(runs[1][2])
    assert moves > 0


def test_screen_error_bound_adversarial_magnitudes():
    # rates span 1e-3 .. 1e9 with repeated values, so pico maxima tie and
    # the closed-form sums lose low bits in every order
    rng = np.random.default_rng(61)
    worst = 0.0
    for trial in range(60):
        picos = list(range(1, int(rng.integers(1, 7)) + 1))
        users, peaks = [], []
        for i in range(int(rng.integers(2, 16))):
            u = 100 + i
            if peaks and rng.random() < 0.25:   # copy an earlier user's rates
                src = 100 + int(rng.integers(0, i))
                rates = {t: r for v, t, r in peaks if v == src}
            else:
                rates = {t: float(10.0 ** rng.uniform(-3, 9))
                         for t in [MACRO] + picos}
            users.append((u, float(10.0 ** rng.uniform(-1, 1)), 0.0, math.inf))
            peaks.extend((u, t, r) for t, r in rates.items())
        inst = make_instance(users, [(MACRO, picos)], peaks)
        cache = SetFunctionCache(inst)
        gs = cache.ground_set
        members = [u for u in inst.users if rng.random() < 0.6]
        sl = tuple(sorted(cache.ground_set.index((u, int(rng.choice(picos)))) for u in members))
        value = cache.macro_value(sl)
        cands = [t for t in range(len(gs)) if t not in sl]
        sp = np.array(sl, dtype=np.intp)
        cp = np.array(cands, dtype=np.intp)
        add, add_err, swap, swap_err = _screen(
            value,
            cache.wr_macro[sp], cache.wr_pico[sp], cache.slot[sp],
            cache.wr_macro[cp], cache.wr_pico[cp], cache.slot[cp],
            len(picos),
        )
        in_slice = {gs[o][0] for o in sl}
        for r, t in enumerate(cands):
            u = gs[t][0]
            if u not in in_slice:
                exact = cache.macro_value(tuple(sorted(sl + (t,)))) - value
                assert abs(exact - add[r]) <= add_err[r]
                worst = max(worst, abs(exact - add[r]) / add_err[r])
            for j, o in enumerate(sl):
                if u in in_slice and gs[o][0] != u:
                    continue
                rest = [p for p in sl if p != o]
                exact = cache.macro_value(tuple(sorted(rest + [t]))) - value
                assert abs(exact - swap[r, j]) <= swap_err[r, j]
                worst = max(worst, abs(exact - swap[r, j]) / swap_err[r, j])
    assert worst > 0.0   # rounding did show, and stayed inside the bound


def test_dual_bound_settles_most_minrate_evaluations(monkeypatch):
    # a `wsr-minrate`-sized deployment (42 users, |omega| about 1,300): with
    # the dual bound, local search makes 0.7-1.1% of the full rescan's cache
    # evaluations (seeds 1001-1007; without it, 50-58%), for the same answer
    from dcopt import DeploymentConfig, generate
    import wsr_reference

    inst = generate(DeploymentConfig(rings=1, sectors_per_site=1, users_per_macro=6,
                                     min_rate_bps=2e5, seed=1007)).inst
    evals = {}

    def counted(name, search):
        def run(state, *args):
            before = state.cache.hits + state.cache.misses
            out = search(state, *args)
            evals[name] = evals.get(name, 0) + state.cache.hits + state.cache.misses - before
            return out
        return run

    monkeypatch.setattr(wsr_assoc, "_local_search", counted("ours", wsr_assoc._local_search))
    got = local_search_associate(inst)
    monkeypatch.setattr(wsr_reference, "local_search",
                        counted("reference", wsr_reference.local_search))
    ref = reference_associate(monkeypatch, inst)
    assert ls_summary(got) == ls_summary(ref)
    assert evals["ours"] <= 0.02 * evals["reference"], evals


@pytest.mark.parametrize("kind", ["minrate", "capped", "sparse", "tight"])
def test_move_bounds_cover_exact_gains(kind):
    # on a macro with rate limits, every add and every swap for a current
    # tuple gains at most its part's hi (the dual bound, or the exact gain
    # once the part has closed), at the greedy set and after each accepted
    # move
    rng = np.random.default_rng(401 + ["minrate", "capped", "sparse", "tight"].index(kind))
    checked = 0
    for trial in range(25):
        inst, _ = ls_case(rng, kind)
        gs = build_ground_set(inst)
        if not gs:
            continue
        omega = list(range(len(gs)))
        cache = SetFunctionCache(inst)
        state = wsr_assoc._RunState(cache)
        wsr_assoc._greedy_stage(state, omega)
        moves = wsr_assoc._Moves(state, omega)
        for _ in range(3):
            found = moves.best_move(0.0)   # refreshes every touched part
            for t in omega:
                m = state.macro_at[t]
                if moves.cur[t] or moves.free[m]:
                    continue
                sl, base = state.slices[m], state.values[m]
                own = state.owner[state.user_at[t]]
                here = own >= 0 and state.macro_at[own] == m
                outs = [own] if here else [] if own >= 0 else list(sl)
                if not here:
                    v = cache.macro_value(tuple(sorted(sl + (t,))))
                    assert v is None or v - base <= moves.a_hi[t], (trial, t)
                # the S part bounds the swap for every tuple it stands for
                for o in outs:
                    v = cache.macro_value(tuple(sorted([p for p in sl if p != o] + [t])))
                    assert v is None or v - base <= moves.s_hi[t], (trial, t, o)
                checked += 1
            if found is None:
                break
            kind_, gain, out, inc = found
            state.apply(out, inc)
            moves.moved_pairs(out, inc)
    assert checked > 0


@pytest.mark.parametrize("kind", LS_CASES)
def test_closed_parts_hold_the_exact_gain(kind):
    # a part whose interval has closed (lo == hi) is taken as exact: it must
    # hold the gain the cache yields for the current slice, at the greedy set
    # and after each accepted move, whether it closed in this scan or earlier
    rng = np.random.default_rng(601 + LS_CASES.index(kind))
    closed = 0   # closed parts with a finite gain
    for trial in range(25):
        inst, _ = ls_case(rng, kind)
        gs = build_ground_set(inst)
        if not gs:
            continue
        omega = list(range(len(gs)))
        cache = SetFunctionCache(inst)
        state = wsr_assoc._RunState(cache)
        wsr_assoc._greedy_stage(state, omega)
        moves = wsr_assoc._Moves(state, omega)

        def gain(sl, base, out, t):
            v = cache.macro_value(sl, out, t)
            return -math.inf if v is None else v - base

        for step in range(5):
            found = moves.best_move(0.0)   # refreshes every touched part
            for t in omega:
                if moves.cur[t]:
                    continue
                m = state.macro_at[t]
                sl, base = state.slices[m], state.values[m]
                own = state.owner[state.user_at[t]]
                here = own >= 0 and state.macro_at[own] == m
                if not here and moves.a_lo[t] == moves.a_hi[t]:
                    assert moves.a_lo[t] == gain(sl, base, None, t), (trial, step, t)
                    closed += math.isfinite(moves.a_lo[t])
                if (own < 0 or here) and moves.s_lo[t] == moves.s_hi[t]:
                    outs = [own] if here else sl
                    best = max([gain(sl, base, o, t) for o in outs], default=-math.inf)
                    assert moves.s_lo[t] == best, (trial, step, t)
                    closed += math.isfinite(best)
            if found is None or step == 4:
                break
            kind_, _, out, inc = found
            state.apply(out, inc)
            moves.moved_pairs(out, inc)
    assert closed > 0


# -- an edited slice, from the slice's kept cluster ----------------------------------


def minrate_instance(seed):
    """A deployment shaped like the `wsr-minrate` benchmark workload's."""
    cfg = DeploymentConfig(seed=seed, rings=1, sectors_per_site=1, users_per_macro=6,
                           min_rate_bps=2e5)
    return generate(cfg).inst


@pytest.mark.parametrize("kind", LS_CASES + ("wsr-minrate",))
def test_slice_plus_tuple_matches_fresh_allocation(monkeypatch, kind):
    # macro_value builds S + t, S - o and S - o + t from S's kept
    # cluster; each must equal a fresh allocate_cluster on the validated
    # cluster in every output
    rng = np.random.default_rng(401 + (LS_CASES + ("wsr-minrate",)).index(kind))
    got = []
    alloc = wsr_assoc.allocate_cluster

    def recording(cl):
        got.append(alloc(cl))
        return got[-1]

    monkeypatch.setattr(wsr_assoc, "allocate_cluster", recording)
    checked = closed = infeasible = 0
    edited = dict.fromkeys(["add", "delete", "same-pico swap", "two-pico swap",
                            "empties a pico", "opens a pico"], 0)
    for trial in range(4 if kind == "wsr-minrate" else 15):
        inst = minrate_instance(3000 + trial) if kind == "wsr-minrate" else ls_case(rng, kind)[0]
        cache = SetFunctionCache(inst)
        gs = cache.ground_set
        for _ in range(30):
            m = int(rng.choice(inst.macros))
            pos = [t for t, (u, b) in enumerate(gs) if inst.pico_macro[b] == m]
            if not pos:
                continue
            used, sl = set(), []
            for t in rng.permutation(pos)[:int(rng.integers(1, 8))].tolist():
                if gs[t][0] not in used:
                    used.add(gs[t][0])
                    sl.append(t)
            sl = tuple(sorted(sl))
            # several edits of one slice, so its kept cluster is reused:
            # S + t, S - o, and S - o + t with t on o's pico and on another
            adds = [t for t in pos if gs[t][0] not in used][:4]
            edits = [(None, t) for t in adds] + [(o, None) for o in sl]
            for o in sl:
                same = [t for t in adds if gs[t][1] == gs[o][1]]
                other = [t for t in adds if gs[t][1] != gs[o][1]]
                edits += [(o, ts[0]) for ts in (same, other) if ts]
            for out, inc in edits:
                ts = tuple(sorted([p for p in sl if p != out] + ([] if inc is None else [inc])))
                if len(ts) < 2:   # the empty cluster, or one `single` holds
                    continue
                grouped = {}
                for u, b in (gs[k] for k in ts):
                    grouped.setdefault(b, []).append(u)
                got.clear()
                v = cache.macro_value(sl, out, inc)
                if all(cache._free[k] for k in ts):
                    # the closed form, not the allocator
                    assert not got and v == cache.macro_value(ts)
                    closed += 1
                    continue
                try:
                    want = allocate_cluster(ClusterProblem.build(inst, m, grouped))
                except InfeasibleError:
                    assert v is None
                    infeasible += 1
                    continue
                (a,) = got
                assert v.hex() == a.value.hex() == want.value.hex()
                assert a.fractions.theta == want.fractions.theta
                assert a.fractions.gamma == want.fractions.gamma
                assert a.macro_price.hex() == want.macro_price.hex()
                assert [x.hex() for x in a.curve.widths] == [x.hex() for x in want.curve.widths]
                assert [x.hex() for x in a.curve.slopes] == [x.hex() for x in want.curve.slopes]
                checked += 1
                before = {gs[k][1] for k in sl}
                if out is None or inc is None:
                    edited["add" if out is None else "delete"] += 1
                else:
                    edited[("two-pico", "same-pico")[gs[out][1] == gs[inc][1]] + " swap"] += 1
                edited["empties a pico"] += out is not None and gs[out][1] not in grouped
                edited["opens a pico"] += inc is not None and gs[inc][1] not in before
        never_rise(cache.pico_memo)
    assert closed > 50 if kind == "free" else checked > 50
    assert infeasible > 0 or kind != "wsr-minrate"
    assert kind == "free" or min(edited.values()) > 0, edited


@pytest.mark.parametrize("kind", LS_CASES)
def test_cache_clusters_certify_like_built_ones(monkeypatch, kind):
    # verify_kkt_wsr reads its data from a cluster's entries: the cluster
    # the cache keeps for a slice or edits from it, and the one
    # ClusterProblem.build makes of the same tuples, give the same messages,
    # at the optimum and with one share perturbed
    rng = np.random.default_rng(501 + LS_CASES.index(kind))
    made = []
    alloc = wsr_assoc.allocate_cluster

    def recording(cl):
        made.append(cl)
        return alloc(cl)

    monkeypatch.setattr(wsr_assoc, "allocate_cluster", recording)
    compared = flagged = 0
    for trial in range(12):
        inst = ls_case(rng, kind)[0]
        cache = SetFunctionCache(inst)
        gs = cache.ground_set
        for _ in range(10):
            m = int(rng.choice(inst.macros))
            pos = [t for t, (u, b) in enumerate(gs) if inst.pico_macro[b] == m]
            if not pos:
                continue
            used, sl = set(), []
            for t in rng.permutation(pos)[:int(rng.integers(1, 6))].tolist():
                if gs[t][0] not in used:
                    used.add(gs[t][0])
                    sl.append(t)
            sl = tuple(sorted(sl))
            adds = [t for t in pos if gs[t][0] not in used][:2]
            edits = [(None, t) for t in adds] + [(o, None) for o in sl[:2]]
            edits += [(sl[0], t) for t in adds]
            pairs = [(sl, cache._prepare(sl))]
            for out, inc in edits:
                made.clear()
                cache.macro_value(sl, out, inc)
                if made:   # not the closed form nor a one-tuple value
                    ts = tuple(sorted([p for p in sl if p != out] + ([] if inc is None else [inc])))
                    pairs.append((ts, made[0]))
            for ts, cached in pairs:
                grouped = {}
                for u, b in (gs[k] for k in ts):
                    grouped.setdefault(b, []).append(u)
                built = ClusterProblem.build(inst, m, grouped)
                try:
                    point = allocate_cluster(built).fractions
                except InfeasibleError:
                    point = AllocationFractions()
                off = AllocationFractions(dict(point.theta), dict(point.gamma))
                shares = off.gamma if off.gamma and rng.random() < 0.5 else off.theta
                if shares:
                    key = sorted(shares)[int(rng.integers(len(shares)))]
                    shares[key] *= float(rng.choice([0.5, 1.5]))
                for fractions in (point, off):
                    got = verify_kkt_wsr(cached, fractions)
                    assert got == verify_kkt_wsr(built, fractions), (kind, ts)
                    flagged += bool(got)
                    compared += 1
    assert compared > 100 and flagged > 10


@pytest.mark.parametrize("shape, seed, counts", [
    ("wsr-minrate", 1000, (16, 1197, 973)),
    ("wsr-minrate", 1001, (14, 1192, 950)),
    ("wsr-dense", 1000, (14, 2697, 63)),
])
def test_solve_cache_counters_are_pinned(monkeypatch, shape, seed, counts):
    # (hits, misses, PicoMemo misses) after a whole solve: the benchmark's
    # `set_evals` and `cache_misses` read the first two, so how a cluster
    # is valued must not change how many are valued
    made = []

    class Recording(SetFunctionCache):
        def __init__(self, inst):
            super().__init__(inst)
            made.append(self)

    monkeypatch.setattr(wsr_assoc, "SetFunctionCache", Recording)
    inst = minrate_instance(seed) if shape == "wsr-minrate" else generate(DeploymentConfig(
        seed=seed, rings=1, sectors_per_site=1, users_per_macro=9)).inst
    local_search_associate(inst)
    (cache,) = made
    assert (cache.hits, cache.misses, cache.pico_memo.misses) == counts
