"""Deployment generator, channel model, metrics and the max-SINR baseline."""

import math

import numpy as np
import pytest

from dcopt import (
    DeploymentConfig,
    generate,
    instance_to_json,
    max_sinr_baseline,
    rate_metrics,
    validate_instance,
)
from dcopt.scenario import (
    SPLIT_IN_BAND,
    SPLIT_OUT_OF_BAND,
    USER_ID_BASE,
    _noise_mw,
)

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
    assert a.rx_power_mw == b.rx_power_mw


def test_generated_instance_validates_clean():
    assert validate_instance(generate(SMALL).inst) == []


def test_unknown_split_rejected():
    with pytest.raises(ValueError, match="split"):
        generate(DeploymentConfig(split="fdd"))


def test_config_dict_round_trip():
    cfg = DeploymentConfig(seed=9, rings=1, min_rate_bps=1e5)
    assert DeploymentConfig.from_dict(cfg.to_dict()) == cfg


def test_streams_stable_under_user_count():
    # per-entity seeding: adding users must not move existing entities
    few = generate(SMALL)
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
            assert base.inst.rate(u, m) == quiet.inst.rate(u, m)
        for m in base.inst.macros:
            for b in base.inst.picos_of[m]:
                changed += base.inst.rate(u, b) != quiet.inst.rate(u, b)
    assert changed > 0


def test_rates_match_direct_sinr_recomputation():
    for split in (SPLIT_OUT_OF_BAND, SPLIT_IN_BAND):
        cfg = DeploymentConfig(seed=5, rings=1, sectors_per_site=1,
                               picos_per_macro=2, users_per_macro=3,
                               split=split)
        dep = generate(cfg)
        rx = dep.rx_power_mw
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
                # pico rates may carry tie-breaking jitter, macros never do
                tol = 1e-7 if t in dep.inst.pico_macro else 1e-12
                assert dep.inst.rate(u, t) == pytest.approx(want, rel=tol)


def test_macro_pico_ratios_never_tie():
    dep = generate(DeploymentConfig(seed=1, rings=1, sectors_per_site=1))
    for m in dep.inst.macros:
        for b in dep.inst.picos_of[m]:
            ratios = [dep.inst.rate(u, m) / dep.inst.rate(u, b)
                      for u in dep.inst.users]
            assert len(set(ratios)) == len(ratios)


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
    assert assoc.validate(dep.inst) == []
    counts: dict[int, int] = {}
    best = {}
    for u in dep.inst.users:
        t = max(dep.inst.tps, key=lambda t: dep.inst.rate(u, t))
        best[u] = t
        counts[t] = counts.get(t, 0) + 1
    for u in dep.inst.users:
        assert rates[u] == pytest.approx(
            dep.inst.rate(u, best[u]) / counts[best[u]])
        m, b = assoc.pairs[u]
        assert best[u] in (m, b)
        shares = fractions.gamma if b is not None else fractions.theta
        assert shares[(u, best[u])] == 1.0 / counts[best[u]]
