"""Deployment generator, channel model, metrics and the max-SINR baseline."""

import math
import os
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

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
    _first_outputs,
    _noise_mw,
    _normal_draws,
    _peak_rates,
    _seed_states,
    _shadowing_db,
    _streams,
    _ziggurat_tables,
    max_sinr_baseline,
)

from conftest import association_errors
from scenario_reference import _stream, reference_generate, reference_peak_rates

SMALL = DeploymentConfig(seed=3, rings=1, sectors_per_site=1,
                         picos_per_macro=2, users_per_macro=3)


def rx_items(dep):
    """A deployment's (users x TPs) received power as the reference's
    ((user, TP), mW) items, in the same order."""
    return [((u, t), p) for u, row in zip(dep.inst.users, dep.rx_power_mw.tolist())
            for t, p in zip(dep.inst.tps, row)]


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
    assert a.rx_power_mw.tobytes() == b.rx_power_mw.tobytes()


def test_generated_instance_validates_clean():
    inst = generate(SMALL).inst
    assert instance_errors(inst) == []
    # the tie nudge leaves every pico's linked users distinct macro/pico ratios
    for m in inst.macros:
        for b in inst.picos_of[m]:
            ratios = [inst.rate(u, m) / inst.rate(u, b) for u in inst.users
                      if inst.rate(u, m) > 0 and inst.rate(u, b) > 0]
            assert len(set(ratios)) == len(ratios)


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
        rx = dict(rx_items(dep))
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
    assert association_errors(assoc, dep.inst) == []
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


def assert_matches_reference(cfg, caps=None):
    got, want = generate(cfg), reference_generate(cfg, caps)
    assert_same_items(instance_to_json(got.inst).splitlines(),
                      instance_to_json(want.inst).splitlines())
    assert_same_items([(k, v.hex()) for k, v in rx_items(got)],
                      [(k, v.hex()) for k, v in want.rx_power_mw.items()])
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
    # the benchmark's sweep cells: 21 cells of 10 picos, loads 42 and 84
    assert_matches_reference(DeploymentConfig(
        seed=seed, rings=1, sectors_per_site=3, users_per_macro=users))


@pytest.mark.parametrize("isd_m, sectors", [(100.0, 1), (130.2, 3)])
def test_generate_matches_reference_when_placement_caps_hit(isd_m, sectors):
    # cells of radius 57.7 m (and 75.2 m): every pico draw (or about one in
    # three pico points) falls inside the 75 m site clearance, and the picos
    # cannot all keep 80 m apart
    caps = Counter()
    assert_matches_reference(DeploymentConfig(
        seed=4, rings=0, sectors_per_site=sectors, picos_per_macro=6,
        users_per_macro=3, isd_m=isd_m), caps)
    assert caps["draw"] > 0 and caps["pico"] > 0


def test_generate_matches_reference_without_users():
    cfg = DeploymentConfig(seed=2, rings=1, sectors_per_site=3, users_per_macro=0)
    assert_matches_reference(cfg)
    dep = generate(cfg)
    assert dep.inst.users == () and dep.rx_power_mw.shape == (0, len(dep.inst.tps))


def test_seed_states_and_draws_match_numpy_streams():
    rng = np.random.default_rng(11)
    for n_words in (1, 3, 4, 5, 7):
        keys = [[int(rng.integers(0, 2**32)) for _ in range(n_words)]
                for _ in range(20)]
        got = _seed_states(np.array(keys, dtype=np.uint32))
        for key, state in zip(keys, got):
            want = np.random.SeedSequence(key).generate_state(4, np.uint64)
            assert state.tolist() == want.tolist()
    for seed in (0, 7, 2**32 - 1, 2**32, 2**64 + 5):
        users = rng.choice(10**6, size=4, replace=False).tolist()
        tps = [0] + rng.choice(10**4, size=5, replace=False).tolist()
        sd = rng.uniform(0.0, 12.0, size=len(tps)).tolist()
        got = _shadowing_db(seed, users, tps, sd)
        for i, u in enumerate(users):
            for j, t in enumerate(tps):
                want = _stream(seed, 3, u, t).normal(0.0, sd[j])
                assert got[i, j].hex() == want.hex()


def test_streams_match_keyed_generators():
    # one reused generator, reloaded per key, against one generator per key
    keys = [(0, 0), (3, 7), (2**32 - 1, 5), (20, 2**31), (3, 7)]
    for seed in (0, 1, 2**32, 2**64 + 5):
        for kind in (1, 2):
            got = [rng.random(3).tolist() + [rng.uniform(-60.0, 60.0)]
                   for rng in _streams(seed, kind, keys)]
            want = [rng.random(3).tolist() + [rng.uniform(-60.0, 60.0)]
                    for rng in (_stream(seed, kind, a, b) for a, b in keys)]
            assert got == want
    assert list(_streams(1, 1, [])) == []


def reference_rates(cfg, rows):
    """reference_peak_rates on a (users x TPs) received-power table, whose
    columns are cfg.n_cells macros, then the picos."""
    users = [USER_ID_BASE + i for i in range(len(rows))]
    tps = list(range(len(rows[0])))
    rx = {(u, t): p for u, row in zip(users, rows) for t, p in zip(tps, row)}
    rates = reference_peak_rates(cfg, users, tps[:cfg.n_cells], tps[cfg.n_cells:], rx)
    return [[r for _, _, r in rates[i:i + len(tps)]]
            for i in range(0, len(rates), len(tps))]


def test_tie_nudge_matches_scalar_reference():
    cfg = DeploymentConfig(rings=0, sectors_per_site=1, picos_per_macro=2,
                           users_per_macro=3)
    # the first and last users see identical received powers, so their
    # macro/pico ratios tie on both picos
    rows = [[2e-9, 5e-10, 7e-10], [3e-9, 1e-10, 9e-10], [2e-9, 5e-10, 7e-10]]
    got = _peak_rates(cfg, np.array(rows))
    assert got.tolist() == reference_rates(cfg, rows)
    assert got[2, 1] != got[0, 1] and got[2, 2] != got[0, 2]


def test_tie_nudge_skips_picos_without_link():
    # far picos: the SINR rounds away, the rate is exactly 0 and there is
    # no macro/pico ratio to tie (this once divided by zero)
    cfg = DeploymentConfig(rings=0, sectors_per_site=1, picos_per_macro=1,
                           users_per_macro=2)
    rows = [[2e-9, 1e-30], [2e-9, 1e-30]]
    got = _peak_rates(cfg, np.array(rows))
    assert got.tolist() == reference_rates(cfg, rows)
    assert got[:, 1].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("split", [SPLIT_OUT_OF_BAND, SPLIT_IN_BAND])
def test_interference_sums_keep_the_builtin_order(split):
    # the pico row's builtin sum differs from numpy's pairwise sum, and the
    # difference shows in every pico rate
    cfg = DeploymentConfig(rings=0, sectors_per_site=1, picos_per_macro=21,
                           users_per_macro=1, split=split)
    rows = [[2e-9, 1.0] + [1e-16] * 20]
    assert sum(rows[0][1:]) != np.sum(rows[0][1:])
    got = _peak_rates(cfg, np.array(rows))
    assert [r.hex() for r in got[0].tolist()] == [
        r.hex() for r in reference_rates(cfg, rows)[0]]


# -- the numpy draw path: PCG64's first output and the ziggurat fast path ------


PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
M128 = 2**128


def seed_words_for(out, rng):
    """generate_state words whose PCG64 stream first outputs `out`: random
    increment words, and the seed solved from pcg64_set_seed's two LCG steps
    and the first step, which land on state `out` (zero high word)."""
    s2, s3 = (int(x) for x in rng.integers(0, 2**64, size=2, dtype=np.uint64))
    inc = (s2 << 65 | s3 << 1 | 1) % M128
    inv = pow(PCG64_MULT, -1, M128)
    seed = (((out - inc) * inv - inc) * inv - inc) % M128
    return [seed >> 64, seed % 2**64, s2, s3]


def numpy_draws(seeds, sd):
    """normal(0.0, sd) and the first raw output of each row's PCG64 stream,
    one fresh generator per draw."""
    draws, outs = [], []
    for (s0, s1, s2, s3), scale in zip(seeds, sd):
        inc = (s2 << 65 | s3 << 1 | 1) % M128
        state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                 "state": {"state": ((inc + (s0 << 64 | s1)) * PCG64_MULT + inc)
                           % M128, "inc": inc}}
        bits = np.random.PCG64()
        bits.state = state
        outs.append(int(bits.random_raw()))
        bits.state = state
        draws.append(np.random.Generator(bits).normal(0.0, scale))
    return np.array(draws), outs


def test_first_outputs_match_pcg64_streams():
    rng = np.random.default_rng(17)
    keys = [[int(x) for x in rng.integers(0, 2**32, size=n)]
            for n in (1, 4, 6) for _ in range(30)]
    for n in (1, 4, 6):
        rows = [k for k in keys if len(k) == n]
        got = _first_outputs(_seed_states(np.array(rows, dtype=np.uint32)))
        want = [int(np.random.PCG64(np.random.SeedSequence(k)).random_raw())
                for k in rows]
        assert got.tolist() == want
    crafted = [0, 1, 2**63, 2**64 - 1] + [int(x) for x in rng.integers(
        0, 2**64, size=20, dtype=np.uint64)]
    seeds = np.array([seed_words_for(o, rng) for o in crafted], dtype=np.uint64)
    assert _first_outputs(seeds).tolist() == crafted


def test_draw_paths_match_numpy_at_their_edges():
    wi, lo = _ziggurat_tables()
    assert lo.any(), "no ziggurat fast path on this numpy"
    rng = np.random.default_rng(23)
    top = 2**52
    rabs_of = {i: {int(lo[i]) - 1, int(lo[i])} if lo[i] else {0, 1}
               for i in range(256)}
    rabs_of[0] |= {0, int(lo[0]), (int(lo[0]) + top) // 2, top - 1}  # the tail
    rabs_of[1] |= {0, 1, 2**51, top - 1}          # lo[1] = 0 on numpy 2.4
    for i in (2, 100, 255):
        rabs_of[i] |= {0, 1}                       # x = ±0 or ±wi[i]
    outs = []
    for i, rabs_set in sorted(rabs_of.items()):
        for rabs in sorted(r for r in rabs_set if 0 <= r < top):
            for sign in (0, 1):
                for high in (0, 0b101 << 61):      # bits above rabs are unread
                    outs.append(high | rabs << 9 | sign << 8 | i)
    outs *= 4
    sd = np.repeat([8.0, 10.0, 0.0, 5e-324], len(outs) // 4)  # 5e-324·x rounds to ±0
    seeds = np.array([seed_words_for(o, rng) for o in outs], dtype=np.uint64)
    want, first = numpy_draws(seeds.tolist(), sd.tolist())
    assert first == outs
    got = _normal_draws(seeds, sd)
    assert got.tobytes() == want.tobytes()
    idx = np.array(outs, dtype=np.uint64) & 0xFF
    rabs = np.array(outs, dtype=np.uint64) >> 9 & (top - 1)
    fast = rabs < lo[idx.astype(np.intp)]
    assert fast.any() and not fast.all()


def test_shadowing_blocks_split_user_rows(monkeypatch):
    # blocks of whole user rows, with a short last block; and a row longer
    # than a block
    def stream_draws(seed, users, tps, sd):
        return np.array([[_stream(seed, 3, u, t).normal(0.0, s)
                          for t, s in zip(tps, sd)] for u in users])

    users = [USER_ID_BASE + 7 * k for k in range(70)]
    tps = list(range(77))
    sd = [8.0] * 7 + [10.0] * 70
    got = _shadowing_db(5, users, tps, sd)             # 5,390 pairs: 53 + 17 rows
    assert got.tobytes() == stream_draws(5, users, tps, sd).tobytes()
    monkeypatch.setattr(scenario, "_BLOCK_PAIRS", 7)
    for n_tps in (3, 9):
        args = (2**33, users[:5], tps[:n_tps], sd[-n_tps:])
        assert _shadowing_db(*args).tobytes() == stream_draws(*args).tobytes()
    assert _shadowing_db(1, [], tps, sd).shape == (0, 77)


def test_layout_mismatch_falls_back_to_per_pair_draws(monkeypatch):
    # a numpy whose normal ignored bit 8 as the sign would disagree with the
    # negative-sign probes: every lo goes to 0 and every draw is loaded
    real = scenario._loader

    def unsigned_loader():
        bits, rng, load = real()
        unsigned = SimpleNamespace(normal=lambda loc, sd: abs(rng.normal(loc, sd)))
        return bits, unsigned, load

    cfg = DeploymentConfig(seed=9, rings=1, sectors_per_site=3,
                           picos_per_macro=2, users_per_macro=3)
    _ziggurat_tables.cache_clear()
    try:
        with monkeypatch.context() as mp:
            mp.setattr(scenario, "_loader", unsigned_loader)
            wi, lo = _ziggurat_tables()
        assert wi.any() and not lo.any()
        got, want = generate(cfg), reference_generate(cfg)
        assert instance_to_json(got.inst) == instance_to_json(want.inst)
        assert ([v.hex() for _, v in rx_items(got)]
                == [v.hex() for v in want.rx_power_mw.values()])
    finally:
        _ziggurat_tables.cache_clear()
    assert _ziggurat_tables()[1].any()


def test_tables_are_probed_on_first_draw_not_at_import():
    code = ("import dcopt, dcopt.scenario as s; "
            "a = s._ziggurat_tables.cache_info().currsize; "
            "s.generate(s.DeploymentConfig(rings=0, users_per_macro=1)); "
            "print(a, s._ziggurat_tables.cache_info().currsize)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(scenario.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.split() == ["0", "1"], proc.stderr


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
