"""Synthetic heterogeneous deployments, channel model and metrics.

Hexagonal macro sites with optional 3-sector cells, picos dropped uniformly
per cell, users either clustered at picos (two of every three) or uniform.
Propagation follows the usual urban-macro / urban-pico curves with
log-normal shadowing; peak rates are Shannon over the configured band.
Every random draw comes from its own seeded stream keyed by entity ids, so
layouts are reproducible and insensitive to unrelated config changes.

The (user, TP) shadowing draws, one stream per pair, are computed in numpy
blocks: numpy's SeedSequence hash runs over every key at once on uint32
arrays, PCG64's first output follows on 32-bit limbs, and numpy's ziggurat
fast path turns it into the normal draw. Its tables are probed once per
process from the installed numpy, on the first draw. The about 1.5% of draws
off the fast path, and all of them if a probe disagrees with the layout the
fast path assumes, load their PCG64 state into one reused generator. Either
way each draw equals the keyed stream's bit for bit. Configs above
`MAX_PAIRS` (user, TP) pairs are rejected before anything is built.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

import numpy as np

from .net_model import (
    AllocationFractions,
    Association,
    NetworkInstance,
    make_instance,
)

SPLIT_IN_BAND = "in-band"
SPLIT_OUT_OF_BAND = "out-of-band"
# users x TPs; `generate` peaks near 0.7 GB of resident memory at the cap
MAX_PAIRS = 2_000_000


@dataclass(frozen=True)
class DeploymentConfig:
    seed: int = 1
    rings: int = 2                    # hex rings of macro sites around center
    sectors_per_site: int = 3
    picos_per_macro: int = 10
    users_per_macro: int = 6
    isd_m: float = 500.0
    bandwidth_hz: float = 10e6
    split: str = SPLIT_OUT_OF_BAND
    macro_bandwidth_hz: Optional[float] = None   # None: full band for the tier
    pico_bandwidth_hz: Optional[float] = None
    tx_macro_dbm: float = 46.0
    tx_pico_dbm: float = 40.0
    macro_antenna_dbi: float = 14.0
    pico_antenna_dbi: float = 5.0
    noise_figure_db: float = 9.0
    shadow_macro_db: float = 8.0
    shadow_pico_db: float = 10.0
    min_rate_bps: float = 0.0
    user_weight: float = 1.0

    def __post_init__(self) -> None:
        for name in ("shadow_macro_db", "shadow_pico_db", "min_rate_bps"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value!r}")
        for name, low in (("seed", 0), ("rings", 0), ("sectors_per_site", 1),
                          ("picos_per_macro", 0), ("users_per_macro", 0)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, int)
                    or value < low):
                raise ValueError(
                    f"{name} must be an integer of at least {low}, got {value!r}")
        for name in ("user_weight", "isd_m", "bandwidth_hz",
                     "macro_bandwidth_hz", "pico_bandwidth_hz"):
            value = getattr(self, name)
            if value is None and name.endswith("_bandwidth_hz"):
                continue   # the tier uses the full band
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(
                    f"{name} must be finite and positive, got {value!r}")
        for name in ("tx_macro_dbm", "tx_pico_dbm", "macro_antenna_dbi",
                     "pico_antenna_dbi", "noise_figure_db"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.split not in (SPLIT_IN_BAND, SPLIT_OUT_OF_BAND):
            raise ValueError(f"split must be {SPLIT_IN_BAND!r} or "
                             f"{SPLIT_OUT_OF_BAND!r}, got {self.split!r}")
        users = self.n_cells * self.users_per_macro
        tps = self.n_cells * (1 + self.picos_per_macro)
        if users * tps > MAX_PAIRS:
            raise ValueError(
                f"{users} users x {tps} TPs is {users * tps} (user, TP) pairs, "
                f"above the limit of {MAX_PAIRS}")

    @property
    def n_cells(self) -> int:
        """Macro cells: 1 + 3·rings·(rings + 1) hex sites times sectors."""
        return (1 + 3 * self.rings * (self.rings + 1)) * self.sectors_per_site


def _site_positions(rings: int, isd: float) -> list[tuple[float, float]]:
    """Hex lattice site centers, center first, then rings sorted by angle."""
    ax_u = np.array([isd, 0.0])
    ax_v = np.array([isd * 0.5, isd * math.sqrt(3.0) / 2.0])
    sites = []
    for i in range(-rings, rings + 1):
        for j in range(-rings, rings + 1):
            ring = max(abs(i), abs(j), abs(i + j))
            if ring > rings:
                continue
            p = i * ax_u + j * ax_v
            ang = math.atan2(p[1], p[0]) % (2.0 * math.pi) if ring else 0.0
            sites.append((ring, ang, float(p[0]), float(p[1])))
    sites.sort()
    return [(x, y) for _, _, x, y in sites]


def _wrap_deg(a: float) -> float:
    return (a + 180.0) % 360.0 - 180.0


def _sector_gain_db(cfg: DeploymentConfig, phi_deg: float, sectors: int) -> float:
    """3GPP horizontal sector pattern; omni when the site has one sector."""
    if sectors == 1:
        return cfg.macro_antenna_dbi
    return cfg.macro_antenna_dbi - min(12.0 * (phi_deg / 70.0) ** 2, 20.0)


def _pl_macro_db(d_m: float) -> float:
    return 128.1 + 37.6 * math.log10(max(d_m, 10.0) / 1000.0)


def _pl_pico_db(d_m: float) -> float:
    return 140.7 + 36.7 * math.log10(max(d_m, 10.0) / 1000.0)


def _noise_mw(bandwidth_hz: float, nf_db: float) -> float:
    return 10.0 ** ((-174.0 + 10.0 * math.log10(bandwidth_hz) + nf_db) / 10.0)


def _stream(*key: int) -> np.random.Generator:
    """The random stream keyed by ids; `_shadowing_db` batches its draws."""
    return np.random.default_rng(np.random.SeedSequence(list(key)))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's LCG multiplier (pcg64.h), for seeding many keyed streams at once
_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _key_words(n: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: little-endian uint32
    words, one word for zero."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """`SeedSequence(key).generate_state(4, np.uint64)` for every key, given
    as the rows of a (keys x words) uint32 array of their entropy words."""
    n_keys, n_words = entropy.shape
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return r ^ (r >> np.uint32(16))

    zero = np.zeros(n_keys, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < n_words else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, n_words):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    hash_const = _INIT_B
    state = np.empty((n_keys, 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
    words = state.astype("<u4", copy=False).view("<u8")
    return words.astype(np.uint64, copy=False)


_PCG64_MULT_INV = pow(_PCG64_MULT, -1, 1 << 128)
# pcg64_set_seed and one step: state1 = (inc + seed)·M² + inc·(M + 1) with
# inc = 2·seq + 1, that is seed·M² + seq·2B + B for B = M² + M + 1
_SEED_MULT = _PCG64_MULT * _PCG64_MULT & _MASK128
_STATE1_ADD = (_SEED_MULT + _PCG64_MULT + 1) & _MASK128
_SEQ_MULT = 2 * _STATE1_ADD & _MASK128
_RABS_MASK = (1 << 52) - 1
_BLOCK_PAIRS = 4096


def _first_outputs(seeds: np.ndarray) -> np.ndarray:
    """The first `next_uint64` of `PCG64(seed_sequence)` for every row
    (s0, s1, s2, s3) of `generate_state(4, np.uint64)` words, where s0·2^64
    + s1 is the seed and s2·2^64 + s3 the sequence: the state after one step
    in 128-bit arithmetic on 32-bit limbs, then the XSL-RR output."""
    words = seeds.astype("<u8").view("<u4").astype(np.uint64)
    acc = [np.full(len(seeds), _STATE1_ADD >> 32 * k & _MASK32, dtype=np.uint64)
           for k in range(4)]
    # little-endian limbs of the seed and the sequence; partial products are
    # split into 32-bit halves at once, so each limb sums to less than 2^36
    for cols, mult in (((2, 3, 0, 1), _SEED_MULT), ((6, 7, 4, 5), _SEQ_MULT)):
        for j in range(4):
            for i in range(4 - j):
                p = words[:, cols[i]] * (mult >> 32 * j & _MASK32)
                acc[i + j] += p & _MASK32
                if i + j < 3:
                    acc[i + j + 1] += p >> 32
    for k in range(3):
        acc[k + 1] += acc[k] >> 32
    hi = acc[3] << 32 | acc[2] & _MASK32
    lo = (acc[1] & _MASK32) << 32 | acc[0] & _MASK32
    xored, rot = hi ^ lo, hi >> 58
    return xored >> rot | xored << (64 - rot & 63)


def _loaded_normal() -> tuple[np.random.PCG64, Callable[[int, int, float], float]]:
    """A reused PCG64 generator and `draw(state, inc, sd)`, which loads the
    LCG state and increment and returns normal(0.0, sd)."""
    bits = np.random.PCG64(0)
    normal = np.random.Generator(bits).normal
    lcg = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": lcg, "has_uint32": 0, "uinteger": 0}

    def draw(state: int, inc: int, sd: float) -> float:
        lcg["state"], lcg["inc"] = state, inc
        bits.state = full
        return normal(0.0, sd)

    return bits, draw


@functools.cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's normal ziggurat as `Generator.normal` runs it, probed once:
    (wi, lo), where a first output with idx = out & 0xff, sign bit 8 and
    rabs = out >> 9 & (2^52 - 1) draws sd·(±rabs·wi[idx]) from that output
    alone whenever rabs < lo[idx]. lo is a certified lower bound on numpy's
    acceptance threshold, and all zeros (no fast path) when a probe
    disagrees with that layout."""
    bits, load_draw = _loaded_normal()

    def draw(rabs: int, idx: int, sign: int = 0) -> tuple[float, bool]:
        """normal(0.0, 1.0) from a state whose next output is chosen, and
        whether the draw read only that output: with inc = 1 and a zero
        high word, one step leaves the state equal to the output."""
        out = rabs << 9 | sign << 8 | idx
        value = load_draw((out - 1) * _PCG64_MULT_INV & _MASK128, 1, 1.0)
        return value, bits.state["state"]["state"] == out

    wi, lo, agree = [0.0] * 256, [0] * 256, True

    def fast_path(rabs: int, i: int) -> bool:
        """Whether the negative-sign draw at rabs reads one output; a
        one-output draw other than -rabs·wi[i] is a layout mismatch."""
        nonlocal agree
        value, fast = draw(rabs, i, sign=1)
        agree = agree and (not fast or value == -rabs * wi[i])
        return fast

    for i in range(256):
        value, fast = draw(1, i)
        if not fast:
            continue   # lo[i] = 0: every draw of layer i takes the slow path
        wi[i] = value
        fast_rabs, slow_rabs = 1, 1 << 52
        if i and wi[i - 1]:
            # numpy's threshold is 2^52·wi[i-1]/wi[i]; probe just below it
            guess = min(int(2**52 * wi[i - 1] / wi[i] * (1 - 1e-9)), _RABS_MASK)
            if fast_path(guess, i):
                lo[i] = guess + 1
                continue
            slow_rabs = guess
        while slow_rabs - fast_rabs > 1:
            mid = (fast_rabs + slow_rabs) // 2
            if fast_path(mid, i):
                fast_rabs = mid
            else:
                slow_rabs = mid
        # only a negative-sign probe certifies an entry
        lo[i] = fast_rabs + 1 if fast_rabs > 1 else 0
    if not agree:
        lo = [0] * 256
    return np.array(wi), np.array(lo, dtype=np.uint64)


def _normal_draws(seeds: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """normal(0.0, sd[k]) from `PCG64(seed_sequence)`, bit for bit, for every
    row k of `generate_state(4, np.uint64)` words.

    A draw whose first output takes the ziggurat fast path is computed in
    numpy; any other (about 1.5%) loads its stream's state, derived as
    pcg64_set_seed does it, into one reused generator."""
    wi, lo = _ziggurat_tables()
    out = _first_outputs(seeds)
    idx = (out & 0xFF).astype(np.intp)
    rabs = out >> 9 & _RABS_MASK
    x = rabs.astype(float) * wi[idx]
    draws = 0.0 + sd * np.where(out >> 8 & 1 == 1, -x, x)
    _, load_draw = _loaded_normal()
    for k in np.flatnonzero(rabs >= lo[idx]).tolist():
        s0, s1, s2, s3 = seeds[k].tolist()
        # inc = 2 * seq + 1, then two LCG steps, adding the seed between them
        inc = (s2 << 65 | s3 << 1 | 1) & _MASK128
        draws[k] = load_draw(((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc)
                             & _MASK128, inc, float(sd[k]))
    return draws


def _shadowing_db(seed: int, users: list[int], tps: list[int],
                  sd_db: list[float]) -> np.ndarray:
    """(users x TPs) shadowing: `_stream(seed, 3, u, t).normal(0.0, sd)` for
    every pair, with sd_db[j] the standard deviation of TP tps[j], bit for
    bit. Pairs go in blocks of whole user rows, about `_BLOCK_PAIRS` at a
    time, which keeps the temporaries small."""
    prefix = _key_words(seed) + _key_words(3)
    n_tps = len(tps)
    rows = max(1, _BLOCK_PAIRS // max(n_tps, 1))
    shadow = np.empty((len(users), n_tps))
    for start in range(0, len(users), rows):
        block = users[start:start + rows]
        entropy = np.empty((len(block) * n_tps, len(prefix) + 2), dtype=np.uint32)
        entropy[:, :len(prefix)] = prefix
        entropy[:, -2] = np.repeat(np.array(block, dtype=np.uint32), n_tps)
        entropy[:, -1] = np.tile(np.array(tps, dtype=np.uint32), len(block))
        draws = _normal_draws(_seed_states(entropy), np.tile(sd_db, len(block)))
        shadow[start:start + len(block)] = draws.reshape(len(block), n_tps)
    return shadow


@dataclass
class Deployment:
    """Generated network: geometry, received powers and the rate instance."""

    config: DeploymentConfig
    inst: NetworkInstance
    macro_pos: dict[int, tuple[float, float]]
    macro_azimuth_deg: dict[int, float]
    pico_pos: dict[int, tuple[float, float]]
    user_pos: dict[int, tuple[float, float]]
    rx_power_mw: dict[tuple[int, int], float] = field(repr=False)


USER_ID_BASE = 100_000
_HOT_RADIUS_M = 40.0
_MIN_MACRO_DIST_M = 35.0
_MIN_PICO_SITE_DIST_M = 75.0


def _draw_in_cell(
    rng: np.random.Generator,
    center: tuple[float, float],
    az_deg: float,
    sectors: int,
    radius: float,
    min_center_dist: float,
) -> tuple[float, float]:
    """Uniform point in the cell wedge (or disc), away from the site.

    Capped rejection sampling; the last draw wins if the cap is hit, which
    keeps generation total without biasing ordinary geometries.
    """
    for _ in range(200):
        if sectors == 1:
            ang = rng.uniform(0.0, 360.0)
        else:
            ang = az_deg + rng.uniform(-60.0, 60.0)
        r = radius * math.sqrt(rng.uniform(0.0, 1.0))
        if r >= min_center_dist:
            break
    a = math.radians(ang)
    return center[0] + r * math.cos(a), center[1] + r * math.sin(a)


def generate(cfg: DeploymentConfig) -> Deployment:
    """Build the deployment and its peak-rate instance from the config."""
    sites = _site_positions(cfg.rings, cfg.isd_m)
    sectors = cfg.sectors_per_site
    n_cells = cfg.n_cells
    cell_radius = cfg.isd_m / math.sqrt(3.0)

    macro_pos: dict[int, tuple[float, float]] = {}
    macro_az: dict[int, float] = {}
    pico_pos: dict[int, tuple[float, float]] = {}
    user_pos: dict[int, tuple[float, float]] = {}
    macros_spec: list[tuple[int, list[int]]] = []

    for cell in range(n_cells):
        site = sites[cell // sectors]
        macro_pos[cell] = site
        macro_az[cell] = (cell % sectors) * (360.0 / sectors)

    # picos, spread out from the site and from each other
    pico_base = n_cells
    for cell in range(n_cells):
        ids = []
        placed: list[tuple[float, float]] = []
        for k in range(cfg.picos_per_macro):
            b = pico_base + cell * cfg.picos_per_macro + k
            rng = _stream(cfg.seed, 1, cell, k)
            for _ in range(200):
                p = _draw_in_cell(
                    rng, macro_pos[cell], macro_az[cell], sectors,
                    cell_radius, _MIN_PICO_SITE_DIST_M,
                )
                if all(math.dist(p, q) >= 2 * _HOT_RADIUS_M for q in placed):
                    break
            placed.append(p)
            pico_pos[b] = p
            ids.append(b)
        macros_spec.append((cell, ids))

    # users: slots 0,1 mod 3 cluster at a pico, slot 2 mod 3 is uniform
    users_spec = []
    for cell in range(n_cells):
        pico_ids = macros_spec[cell][1]
        for slot in range(cfg.users_per_macro):
            u = USER_ID_BASE + cell * cfg.users_per_macro + slot
            rng = _stream(cfg.seed, 2, cell, slot)
            if slot % 3 != 2 and pico_ids:
                b = pico_ids[slot % len(pico_ids)]
                ang = rng.uniform(0.0, 2.0 * math.pi)
                r = _HOT_RADIUS_M * math.sqrt(rng.uniform(0.0, 1.0))
                p = (
                    pico_pos[b][0] + r * math.cos(ang),
                    pico_pos[b][1] + r * math.sin(ang),
                )
            else:
                p = _draw_in_cell(
                    rng, macro_pos[cell], macro_az[cell], sectors,
                    cell_radius, _MIN_MACRO_DIST_M,
                )
            user_pos[u] = p
            users_spec.append((u, cfg.user_weight, cfg.min_rate_bps, math.inf))

    # received power per (user, TP), shadowing keyed by the id pair
    users = [u for u, *_ in users_spec]
    macro_ids = list(range(n_cells))
    pico_ids_all = sorted(pico_pos)
    shadow = _shadowing_db(cfg.seed, users, macro_ids + pico_ids_all,
                           [cfg.shadow_macro_db] * n_cells
                           + [cfg.shadow_pico_db] * len(pico_ids_all))
    rx: dict[tuple[int, int], float] = {}
    for u, sh_array in zip(users, shadow):
        pu = user_pos[u]
        sh_row = sh_array.tolist()
        for m, sh in zip(macro_ids, sh_row):
            d = math.dist(pu, macro_pos[m])
            bearing = math.degrees(math.atan2(pu[1] - macro_pos[m][1],
                                              pu[0] - macro_pos[m][0]))
            phi = _wrap_deg(bearing - macro_az[m])
            gain = _sector_gain_db(cfg, phi, sectors)
            db = cfg.tx_macro_dbm + gain - _pl_macro_db(d) + sh
            rx[(u, m)] = 10.0 ** (db / 10.0)
        for b, sh in zip(pico_ids_all, sh_row[n_cells:]):
            d = math.dist(pu, pico_pos[b])
            db = cfg.tx_pico_dbm + cfg.pico_antenna_dbi - _pl_pico_db(d) + sh
            rx[(u, b)] = 10.0 ** (db / 10.0)

    rates = _peak_rates(cfg, users, macro_ids, pico_ids_all, rx)
    inst = make_instance(users_spec, macros_spec, rates)
    return Deployment(
        config=cfg,
        inst=inst,
        macro_pos=macro_pos,
        macro_azimuth_deg=macro_az,
        pico_pos=pico_pos,
        user_pos=user_pos,
        rx_power_mw=rx,
    )


def _peak_rates(
    cfg: DeploymentConfig,
    users: list[int],
    macro_ids: list[int],
    pico_ids: list[int],
    rx: Mapping[tuple[int, int], float],
) -> list[tuple[int, int, float]]:
    """Shannon peak rates; interference set depends on the band split."""
    w_macro = cfg.macro_bandwidth_hz if cfg.macro_bandwidth_hz else cfg.bandwidth_hz
    w_pico = cfg.pico_bandwidth_hz if cfg.pico_bandwidth_hz else cfg.bandwidth_hz
    if cfg.split == SPLIT_IN_BAND:
        w_macro = w_pico = cfg.bandwidth_hz
    noise_macro = _noise_mw(w_macro, cfg.noise_figure_db)
    noise_pico = _noise_mw(w_pico, cfg.noise_figure_db)
    n_macros = len(macro_ids)
    tps = macro_ids + pico_ids
    log2 = math.log2
    rows = []   # per user, rates in tps order
    for u in users:
        p = [rx[(u, t)] for t in tps]
        macro_sum, pico_sum = sum(p[:n_macros]), sum(p[n_macros:])
        if cfg.split == SPLIT_IN_BAND:   # one band: every TP interferes
            macro_sum = pico_sum = macro_sum + pico_sum
        rows.append(
            [w_macro * log2(1.0 + x / (noise_macro + (macro_sum - x)))
             for x in p[:n_macros]]
            + [w_pico * log2(1.0 + x / (noise_pico + (pico_sum - x)))
               for x in p[n_macros:]])

    # exact macro/pico ratio ties would break strict sort orders downstream;
    # nudge the pico rate by relative jitter until ratios are distinct
    for jb, b in enumerate(pico_ids, start=n_macros):
        jm = macro_ids.index((b - n_macros) // cfg.picos_per_macro)
        seen: set[float] = set()
        for row in rows:
            if row[jb] == 0.0:
                continue   # no link (the SINR rounded away), so no ratio
            for _ in range(16):
                ratio = row[jm] / row[jb]
                if ratio not in seen:
                    break
                row[jb] *= 1.0 + 1e-9
            seen.add(row[jm] / row[jb])
    return [(u, t, r) for u, row in zip(users, rows) for t, r in zip(tps, row)]


# -- metrics and the max-SINR reference ---------------------------------------


@dataclass
class Metrics:
    sum_rate_bps: float
    cell_se: float        # bit/s/Hz per macro cell
    p5_se: float          # 5th-percentile user spectral efficiency


def rate_metrics(
    user_rates: Mapping[int, float],
    n_cells: int,
    bandwidth_hz: float,
    all_users: Optional[list[int]] = None,
) -> Metrics:
    """Aggregate metrics; users missing from the map count as silent."""
    users = all_users if all_users is not None else sorted(user_rates)
    vals = np.array([user_rates.get(u, 0.0) for u in users], dtype=float)
    total = float(vals.sum())
    p5 = float(np.quantile(vals / bandwidth_hz, 0.05)) if len(vals) else 0.0
    return Metrics(
        sum_rate_bps=total,
        cell_se=total / (bandwidth_hz * max(n_cells, 1)),
        p5_se=p5,
    )


def max_sinr_baseline(
    inst: NetworkInstance,
) -> tuple[Association, AllocationFractions, dict[int, float]]:
    """Single connectivity to the strongest TP, equal share per TP; returns
    (association, fractions, rates)."""
    # a leading zero column stands for "no link": a TP must beat a zero
    # rate, and argmax keeps the first maximum; NaN and non-positive rates
    # count as no link
    links = np.where(inst.rates > 0.0, inst.rates, 0.0)
    padded = np.hstack([np.zeros((len(inst.users), 1)), links])
    best = (padded.argmax(axis=1) - 1).tolist()
    peak = padded.max(axis=1).tolist()
    counts = Counter(best)
    rates = {}
    pairs: dict[int, Optional[tuple[int, Optional[int]]]] = {}
    fractions = AllocationFractions()
    for u, j, r in zip(inst.users, best, peak):
        if j < 0:
            rates[u] = 0.0
            pairs[u] = None
        else:
            t = inst.tps[j]
            rates[u] = r / counts[j]
            if t in inst.pico_macro:
                pairs[u] = (inst.pico_macro[t], t)
                fractions.gamma[(u, t)] = 1.0 / counts[j]
            else:
                pairs[u] = (t, None)
                fractions.theta[(u, t)] = 1.0 / counts[j]
    return Association(pairs=pairs), fractions, rates
