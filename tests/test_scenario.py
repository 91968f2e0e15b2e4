"""Deployment generator, channel model, metrics and the max-SINR baseline."""

import functools
import math
import operator
from collections import Counter

import numpy as np
import pytest

from dcopt import (
    DeploymentConfig,
    generate,
    instance_errors,
    instance_to_json,
    rate_metrics,
)
from dcopt import scenario
from dcopt.scenario import (
    MAX_PAIRS,
    SPLIT_IN_BAND,
    SPLIT_OUT_OF_BAND,
    USER_ID_BASE,
    _GAMMA,
    _M64,
    _mix,
    _noise_mw,
    _peak_rates,
    _shadowing_db,
    max_sinr_baseline,
)

from conftest import association_errors, rate
from scenario_reference import reference_generate, reference_peak_rates

SMALL = DeploymentConfig(seed=3, rings=1, sectors_per_site=1,
                         picos_per_macro=2, users_per_macro=3)


def test_entity_counts_default_grid():
    dep = generate(DeploymentConfig(seed=1))
    # 2 hex rings -> 19 sites, 3 sectors each
    assert len(dep.inst.macros) == 57
    assert sum(len(v) for v in dep.inst.picos_of.values()) == 570
    assert len(dep.inst.users) == 342
    assert dep.config.n_cells == 57


def test_entity_counts_small_grid():
    dep = generate(DeploymentConfig(seed=1, rings=1, sectors_per_site=1))
    assert len(dep.inst.macros) == 7
    assert sum(len(v) for v in dep.inst.picos_of.values()) == 70
    assert len(dep.inst.users) == 42
    assert dep.config.n_cells == 7


def test_generation_is_deterministic():
    a = generate(SMALL)
    b = generate(SMALL)
    assert instance_to_json(a.inst) == instance_to_json(b.inst)
    assert a.user_pos == b.user_pos
    assert a.pico_pos == b.pico_pos
    assert a.inst.rates.tobytes() == b.inst.rates.tobytes()


def test_generated_instance_validates_clean():
    inst = generate(SMALL).inst
    assert instance_errors(inst) == []


def test_unknown_split_rejected():
    with pytest.raises(ValueError, match="split"):
        generate(DeploymentConfig(split="fdd"))


@pytest.mark.parametrize("name", sorted(scenario.FLOAT_RANGES))
def test_float_settings_take_their_range_and_nothing_beyond(name):
    low, high = scenario.FLOAT_RANGES[name]
    default = getattr(DeploymentConfig(), name)
    assert default is None or low <= default <= high
    for value in (low, high):
        DeploymentConfig(**{name: value})
    for value in (math.nextafter(low, -math.inf), math.nextafter(high, math.inf)):
        with pytest.raises(ValueError, match=f"^{name} must be from "):
            DeploymentConfig(**{name: value})


def test_streams_stable_under_user_count():
    # per-entity seeding: adding users must not move existing entities
    few = generate(SMALL)
    scenario._pico_layout.cache_clear()   # place the picos again, not from the memo
    more = generate(DeploymentConfig(seed=3, rings=1, sectors_per_site=1,
                                     picos_per_macro=2, users_per_macro=6))
    assert few.pico_pos == more.pico_pos
    for cell in range(few.config.n_cells):
        for slot in range(SMALL.users_per_macro):
            u_few = USER_ID_BASE + cell * 3 + slot
            u_more = USER_ID_BASE + cell * 6 + slot
            assert few.user_pos[u_few] == more.user_pos[u_more]


def test_hotspot_users_near_their_pico():
    dep = generate(SMALL)
    for cell in range(dep.config.n_cells):
        picos = dep.inst.picos_of[cell]
        for slot in range(SMALL.users_per_macro):
            u = USER_ID_BASE + cell * SMALL.users_per_macro + slot
            if slot % 3 == 2:
                continue
            b = picos[slot % len(picos)]
            assert math.dist(dep.user_pos[u], dep.pico_pos[b]) <= 40.0 + 1e-9


def test_out_of_band_macro_rates_ignore_pico_tier():
    base = generate(SMALL)
    quiet = generate(DeploymentConfig(seed=3, rings=1, sectors_per_site=1,
                                      picos_per_macro=2, users_per_macro=3,
                                      tx_pico_dbm=20.0))
    changed = 0
    for u in base.inst.users:
        for m in base.inst.macros:
            assert rate(base.inst, u, m) == rate(quiet.inst, u, m)
        for m in base.inst.macros:
            for b in base.inst.picos_of[m]:
                changed += rate(base.inst, u, b) != rate(quiet.inst, u, b)
    assert changed > 0


def test_rates_match_direct_sinr_recomputation():
    for split in (SPLIT_OUT_OF_BAND, SPLIT_IN_BAND):
        cfg = DeploymentConfig(seed=5, rings=1, sectors_per_site=1,
                               picos_per_macro=2, users_per_macro=3,
                               split=split)
        dep, rx = generate(cfg), {}
        reference_generate(cfg, rx=rx)
        macros = list(dep.inst.macros)
        picos = [b for m in macros for b in dep.inst.picos_of[m]]
        noise = _noise_mw(cfg.bandwidth_hz, cfg.noise_figure_db)
        for u in dep.inst.users:
            macro_sum = sum(rx[(u, m)] for m in macros)
            pico_sum = sum(rx[(u, b)] for b in picos)
            for t in macros + picos:
                if split == SPLIT_IN_BAND:
                    interf = macro_sum + pico_sum - rx[(u, t)]
                elif t in dep.inst.pico_macro:
                    interf = pico_sum - rx[(u, t)]
                else:
                    interf = macro_sum - rx[(u, t)]
                want = cfg.bandwidth_hz * math.log2(
                    1.0 + rx[(u, t)] / (noise + interf))
                assert rate(dep.inst, u, t) == pytest.approx(want, rel=1e-12)


# -- metrics -------------------------------------------------------------------


def test_metrics_single_user():
    m = rate_metrics({7: 2.0}, n_cells=1, bandwidth_hz=1.0)
    assert m.sum_rate_bps == 2.0
    assert m.cell_se == 2.0
    assert m.p5_se == 2.0


def test_metrics_uniform_rates():
    rates = {u: 3.0 for u in range(20)}
    m = rate_metrics(rates, n_cells=4, bandwidth_hz=1.5)
    assert m.sum_rate_bps == pytest.approx(60.0)
    assert m.cell_se == pytest.approx(60.0 / (1.5 * 4))
    assert m.p5_se == pytest.approx(2.0)


def test_metrics_percentile_matches_numpy():
    rng = np.random.default_rng(2)
    vals = rng.uniform(0.1, 9.0, size=37)
    rates = {u: float(v) for u, v in enumerate(vals)}
    m = rate_metrics(rates, n_cells=3, bandwidth_hz=2.0)
    assert m.p5_se == pytest.approx(float(np.quantile(vals / 2.0, 0.05)))


def test_metrics_counts_silent_users():
    m = rate_metrics({1: 5.0}, n_cells=1, bandwidth_hz=1.0,
                     all_users=[1, 2, 3])
    assert m.sum_rate_bps == 5.0
    assert m.p5_se == 0.0


# -- max-SINR reference --------------------------------------------------------


def test_baseline_single_user_keeps_full_tp():
    from dcopt import make_instance

    inst = make_instance([(1, 1.0, 0.0, math.inf)], [(0, [10])],
                         [(1, 0, 4.0), (1, 10, 9.0)])
    assoc, fractions, rates = max_sinr_baseline(inst)
    assert assoc.pairs[1] == (0, 10)
    assert rates[1] == 9.0
    assert fractions.gamma == {(1, 10): 1.0} and fractions.theta == {}


def test_baseline_equal_shares_and_argmax():
    dep = generate(SMALL)
    assoc, fractions, rates = max_sinr_baseline(dep.inst)
    assert association_errors(assoc, dep.inst) == []
    counts: dict[int, int] = {}
    best = {}
    for u in dep.inst.users:
        t = max(dep.inst.tps, key=lambda t: rate(dep.inst, u, t))
        best[u] = t
        counts[t] = counts.get(t, 0) + 1
    for u in dep.inst.users:
        assert rates[u] == pytest.approx(
            rate(dep.inst, u, best[u]) / counts[best[u]])
        m, b = assoc.pairs[u]
        assert best[u] in (m, b)
        shares = fractions.gamma if b is not None else fractions.theta
        assert shares[(u, best[u])] == 1.0 / counts[best[u]]


def test_baseline_first_maximum_and_no_link():
    from dcopt import make_instance

    inst = make_instance(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 0.0, math.inf),
         (3, 1.0, 0.0, math.inf), (4, 1.0, 0.0, math.inf)],
        [(0, [10])],
        [(1, 0, 3.0), (1, 10, 3.0), (2, 10, 5.0),   # user 3: no link
         (4, 0, math.nan), (4, 10, math.nan)],      # NaN is no link either
    )
    assoc, fractions, rates = max_sinr_baseline(inst)
    assert assoc.pairs == {1: (0, None), 2: (0, 10), 3: None, 4: None}
    assert rates == {1: 3.0, 2: 5.0, 3: 0.0, 4: 0.0}
    assert fractions.theta == {(1, 0): 1.0}
    assert fractions.gamma == {(2, 10): 1.0}


# -- batched generation against the scalar reference ---------------------------


def assert_same_items(got, want):
    """Equal sequences; a failure names the first differing item, since
    pytest's full diff of lists this long takes minutes."""
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert first is None, (first, got[first], want[first])
    assert len(got) == len(want)


def assert_matches_reference(cfg, caps=None, got=None):
    """generate(cfg), or the deployment got that it returned earlier, equals
    the scalar reference bit for bit."""
    got, want = got or generate(cfg), reference_generate(cfg, caps)
    assert_same_items(instance_to_json(got.inst).splitlines(),
                      instance_to_json(want.inst).splitlines())
    assert got.inst.rates.tobytes() == want.inst.rates.tobytes()
    assert got.user_pos == want.user_pos
    assert got.pico_pos == want.pico_pos


@pytest.mark.parametrize("seed", [0, 2**32, 2**40 + 3])
@pytest.mark.parametrize("picos", [0, 2])
@pytest.mark.parametrize("sectors", [1, 3])
@pytest.mark.parametrize("bands", [None, (4e6, 6e6)])
@pytest.mark.parametrize("split", [SPLIT_OUT_OF_BAND, SPLIT_IN_BAND])
def test_generate_matches_scalar_reference(split, bands, sectors, picos, seed):
    macro_bw, pico_bw = bands or (None, None)
    assert_matches_reference(DeploymentConfig(
        seed=seed, rings=1, sectors_per_site=sectors, picos_per_macro=picos,
        users_per_macro=3, split=split, macro_bandwidth_hz=macro_bw,
        pico_bandwidth_hz=pico_bw))


@pytest.mark.parametrize("seed", [1, 7, 1003])
@pytest.mark.parametrize("users", [2, 4])
def test_generate_matches_reference_at_pf_sweep_size(users, seed):
    # the benchmark's sweep cells: 21 cells of 10 picos, loads 42 and 84,
    # generated back to back (this load first) as a sweep does, so the
    # second reuses the first's pico layout
    cfgs = [DeploymentConfig(seed=seed, rings=1, sectors_per_site=3, users_per_macro=n)
            for n in (users, 6 - users)]
    scenario._pico_layout.cache_clear()
    first, second = map(generate, cfgs)
    info = scenario._pico_layout.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert_matches_reference(cfgs[0], got=first)
    # each deployment owns its containers: moving the first's picos leaves the second's
    first.pico_pos.update(dict.fromkeys(first.pico_pos, (0.0, 0.0)))
    assert_matches_reference(cfgs[1], got=second)


@pytest.mark.parametrize("isd_m, sectors", [(100.0, 1), (130.2, 3)])
def test_generate_matches_reference_when_placement_caps_hit(isd_m, sectors):
    # cells of radius 57.7 m (and 75.2 m): every pico draw (or about one in
    # three pico points) falls inside the 75 m site clearance, and the picos
    # cannot all keep 80 m apart
    caps = Counter()
    scenario._pico_layout.cache_clear()   # generate places these picos too
    assert_matches_reference(DeploymentConfig(
        seed=4, rings=0, sectors_per_site=sectors, picos_per_macro=6,
        users_per_macro=3, isd_m=isd_m), caps)
    assert caps["draw"] > 0 and caps["pico"] > 0


def test_generate_matches_reference_without_users():
    cfg = DeploymentConfig(seed=2, rings=1, sectors_per_site=3, users_per_macro=0)
    assert_matches_reference(cfg)
    dep = generate(cfg)
    assert dep.inst.users == () and dep.inst.rates.shape == (0, len(dep.inst.tps))


def reference_rates(cfg, rows):
    """reference_peak_rates on a (users x TPs) received-power table, whose
    columns are cfg.n_cells macros, then the picos."""
    users = [USER_ID_BASE + i for i in range(len(rows))]
    tps = list(range(len(rows[0])))
    rx = {(u, t): p for u, row in zip(users, rows) for t, p in zip(tps, row)}
    rates = reference_peak_rates(cfg, users, tps[:cfg.n_cells], tps[cfg.n_cells:], rx)
    return [[r for _, _, r in rates[i:i + len(tps)]]
            for i in range(0, len(rates), len(tps))]


@pytest.mark.parametrize("picos, rows", [
    # the first and last users see identical received powers, so their
    # macro/pico ratios tie on both picos
    (2, [[2e-9, 5e-10, 7e-10], [3e-9, 1e-10, 9e-10], [2e-9, 5e-10, 7e-10]]),
    # far picos: the SINR rounds away, the rate is exactly 0 and there is
    # no macro/pico ratio
    (1, [[2e-9, 1e-30], [2e-9, 1e-30]]),
], ids=["tied", "no_link"])
def test_tied_rates_match_scalar_reference(picos, rows):
    # ties are kept as computed: the solvers break them by id
    cfg = DeploymentConfig(rings=0, sectors_per_site=1, picos_per_macro=picos,
                           users_per_macro=len(rows))
    got = _peak_rates(cfg, np.array(rows))
    assert got.tolist() == reference_rates(cfg, rows)
    assert got[-1].tolist() == got[0].tolist()
    if picos == 1:
        assert got[:, 1].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("split", [SPLIT_OUT_OF_BAND, SPLIT_IN_BAND])
def test_interference_sums_keep_the_builtin_order(split):
    # the pico row summed left to right (Python 3.11's builtin order) differs
    # from numpy's pairwise sum and from the compensated sum of 3.12+, and
    # the difference shows in every pico rate
    cfg = DeploymentConfig(rings=0, sectors_per_site=1, picos_per_macro=21,
                           users_per_macro=1, split=split)
    rows = [[2e-9, 1.0] + [1e-16] * 20]
    left_to_right = functools.reduce(operator.add, rows[0][1:], 0.0)
    assert left_to_right != np.sum(rows[0][1:])
    assert left_to_right != math.fsum(rows[0][1:])
    got = _peak_rates(cfg, np.array(rows))
    assert [r.hex() for r in got[0].tolist()] == [
        r.hex() for r in reference_rates(cfg, rows)[0]]


# -- the keyed hash ----------------------------------------------------------------


def test_mix_gives_splitmix64_published_outputs():
    # SplitMix64 from state 0: each output is the finalizer of k·gamma
    got = [_mix(k * _GAMMA & _M64) for k in (1, 2, 3)]
    assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    words = np.array([k * _GAMMA & _M64 for k in (1, 2, 3)], dtype=np.uint64)
    assert _mix(words).tolist() == got


def test_shadowing_draws_are_standard_normal():
    # 10^5 draws of sd 1; each bound is about five standard errors, or the
    # 0.1% point of the Kolmogorov distribution for the KS statistic
    n = 100_000
    mean_bound, var_bound, ks_bound = 5 / math.sqrt(n), 5 * math.sqrt(2 / n), 1.95
    users = [USER_ID_BASE + i for i in range(100)]
    draws = _shadowing_db(11, users, list(range(1000)), [1.0] * 1000).ravel()
    assert draws.size == n
    assert abs(draws.mean()) <= mean_bound
    assert abs(draws.var() - 1.0) <= var_bound
    cdf = np.array([0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
                    for x in np.sort(draws).tolist()])
    ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    assert math.sqrt(n) * ks <= ks_bound


def test_seed_of_64_bits_and_more_is_its_own_key():
    # a seed of two 64-bit words builds, matches the reference, and is not
    # the seed of its low word
    cfg = DeploymentConfig(seed=2**64 + 5, rings=0, sectors_per_site=3,
                           picos_per_macro=2, users_per_macro=3)
    assert_matches_reference(cfg)
    wide, low = generate(cfg), generate(DeploymentConfig(
        seed=5, rings=0, sectors_per_site=3, picos_per_macro=2, users_per_macro=3))
    assert wide.pico_pos.keys() == low.pico_pos.keys()
    assert all(wide.pico_pos[b] != low.pico_pos[b] for b in low.pico_pos)
    assert all(wide.user_pos[u] != low.user_pos[u] for u in low.user_pos)
    assert not (wide.inst.rates == low.inst.rates).any()


# -- the size limit --------------------------------------------------------------


def test_pair_limit_rejects_before_building_anything():
    # cell counts from the ring formula, so absurd sizes fail at once
    with pytest.raises(ValueError, match="above the limit"):
        DeploymentConfig(rings=10**9, users_per_macro=10**9)
    n_cells = DeploymentConfig(rings=1, sectors_per_site=1).n_cells
    tps = n_cells * 11
    fits = MAX_PAIRS // (tps * n_cells)
    DeploymentConfig(rings=1, sectors_per_site=1, users_per_macro=fits)
    with pytest.raises(ValueError, match=f"{n_cells * (fits + 1)} users x {tps} TPs"):
        DeploymentConfig(rings=1, sectors_per_site=1, users_per_macro=fits + 1)
