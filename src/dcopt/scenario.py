"""Synthetic heterogeneous deployments, channel model and metrics.

Hexagonal macro sites with optional 3-sector cells, picos dropped uniformly
per cell, users either clustered at picos (two of every three) or uniform.
Propagation follows the usual urban-macro / urban-pico curves with
log-normal shadowing; peak rates are Shannon over the configured band.
Every random draw comes from its own stream, `default_rng(SeedSequence(k))`
for a key k of entity ids, so layouts are reproducible and insensitive to
unrelated config changes.

Nothing runs Python per (user, TP) pair. Keys are hashed in numpy, picos
and users load their stream's state into one reused generator, and the
shadowing draws come from PCG64's first output and numpy's ziggurat fast
path, computed in numpy blocks (about 1.5% of them load their state
instead). Received power, SINR and peak rates are (users x TPs) arrays whose
logarithms, powers and angles come from the `math` module and whose
interference sums are builtin `sum`s, so every value equals a pair-by-pair
computation bit for bit. Configs above `MAX_PAIRS` (user, TP) pairs are
rejected before anything is built.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional

import numpy as np

from .net_model import (
    AllocationFractions,
    Association,
    NetworkInstance,
    instance_from_columns,
)

SPLIT_IN_BAND = "in-band"
SPLIT_OUT_OF_BAND = "out-of-band"
# users x TPs; `generate` peaks near 0.27 GB of resident memory at the cap
MAX_PAIRS = 2_000_000


# Physical ranges, inclusive, of DeploymentConfig's float settings (in the
# units their names give); beyond them the channel model overflows or zeroes rates.
FLOAT_RANGES = {
    "isd_m": (10.0, 1e5), "min_rate_bps": (0.0, 1e12),
    "tx_macro_dbm": (0.0, 60.0), "tx_pico_dbm": (0.0, 60.0),
    "macro_antenna_dbi": (-10.0, 30.0), "pico_antenna_dbi": (-10.0, 30.0),
    "noise_figure_db": (0.0, 30.0), "shadow_macro_db": (0.0, 20.0),
    "shadow_pico_db": (0.0, 20.0), "bandwidth_hz": (1e3, 1e10),
    "macro_bandwidth_hz": (1e3, 1e10), "pico_bandwidth_hz": (1e3, 1e10),
    "user_weight": (1e-6, 1e6),
}


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
        for name, low in (("seed", 0), ("rings", 0), ("sectors_per_site", 1),
                          ("picos_per_macro", 0), ("users_per_macro", 0)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, int)
                    or value < low):
                raise ValueError(
                    f"{name} must be an integer of at least {low}, got {value!r}")
        for name, (low, high) in FLOAT_RANGES.items():
            value = getattr(self, name)
            if value is None and name.endswith("_bandwidth_hz"):
                continue   # the tier uses the full band
            if isinstance(value, bool) or not (isinstance(value, (int, float))
                                               and low <= value <= high):
                raise ValueError(f"{name} must be from {low:g} to {high:g}, got {value!r}")
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


def _noise_mw(bandwidth_hz: float, nf_db: float) -> float:
    return 10.0 ** ((-174.0 + 10.0 * math.log10(bandwidth_hz) + nf_db) / 10.0)


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


def _pcg64_state(s0: int, s1: int, s2: int, s3: int) -> tuple[int, int]:
    """PCG64's (state, inc) once seeded from `generate_state(4, np.uint64)`
    words: inc = 2 * seq + 1, then two LCG steps, adding the seed between
    them (pcg64_set_seed)."""
    inc = (s2 << 65 | s3 << 1 | 1) & _MASK128
    return ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128, inc


def _loader() -> tuple[np.random.PCG64, np.random.Generator,
                       Callable[[int, int], None]]:
    """A PCG64 bit generator, a Generator over it and `load(state, inc)`,
    which sets the LCG state and increment."""
    bits = np.random.PCG64(0)
    lcg = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": lcg, "has_uint32": 0, "uinteger": 0}

    def load(state: int, inc: int) -> None:
        lcg["state"], lcg["inc"] = state, inc
        bits.state = full

    return bits, np.random.Generator(bits), load


def _keyed_states(seed: int, kind: int, keys: np.ndarray | list) -> np.ndarray:
    """`_seed_states` of the keys (seed, kind, a, b), one per row (a, b) of
    keys, with a and b below 2^32."""
    prefix = _key_words(seed) + _key_words(kind)
    entropy = np.empty((len(keys), len(prefix) + 2), dtype=np.uint32)
    entropy[:, :len(prefix)] = prefix
    entropy[:, len(prefix):] = np.array(keys, dtype=np.uint32).reshape(-1, 2)
    return _seed_states(entropy)


def _streams(seed: int, kind: int,
             keys: list[tuple[int, int]]) -> Iterator[np.random.Generator]:
    """The stream of key (seed, kind, a, b) for each (a, b) in keys, in
    turn. All keys are hashed in one pass and each state is loaded into one
    reused generator, so a yielded generator is valid only until the next
    one is."""
    _, rng, load = _loader()
    for words in _keyed_states(seed, kind, keys).tolist():
        load(*_pcg64_state(*words))
        yield rng


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


@functools.cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's normal ziggurat as `Generator.normal` runs it, probed once:
    (wi, lo), where a first output with idx = out & 0xff, sign bit 8 and
    rabs = out >> 9 & (2^52 - 1) draws sd·(±rabs·wi[idx]) from that output
    alone whenever rabs < lo[idx]. lo is a certified lower bound on numpy's
    acceptance threshold, and all zeros (no fast path) when a probe
    disagrees with that layout."""
    bits, rng, load = _loader()

    def draw(rabs: int, idx: int, sign: int = 0) -> tuple[float, bool]:
        """normal(0.0, 1.0) from a state whose next output is chosen, and
        whether the draw read only that output: with inc = 1 and a zero
        high word, one step leaves the state equal to the output."""
        out = rabs << 9 | sign << 8 | idx
        load((out - 1) * _PCG64_MULT_INV & _MASK128, 1)
        return rng.normal(0.0, 1.0), bits.state["state"]["state"] == out

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
    _, rng, load = _loader()
    for k in np.flatnonzero(rabs >= lo[idx]).tolist():
        load(*_pcg64_state(*seeds[k].tolist()))
        draws[k] = rng.normal(0.0, float(sd[k]))
    return draws


def _shadowing_db(seed: int, users: list[int], tps: list[int],
                  sd_db: list[float]) -> np.ndarray:
    """(users x TPs) shadowing: normal(0.0, sd) from the stream of key
    (seed, 3, u, t) for every pair, with sd_db[j] the standard deviation of
    TP tps[j], bit for bit. Pairs go in blocks of whole user rows, about
    `_BLOCK_PAIRS` at a time, which keeps the temporaries small."""
    n_tps = len(tps)
    rows = max(1, _BLOCK_PAIRS // max(n_tps, 1))
    shadow = np.empty((len(users), n_tps))
    for start in range(0, len(users), rows):
        block = users[start:start + rows]
        keys = np.column_stack((np.repeat(block, n_tps), np.tile(tps, len(block))))
        draws = _normal_draws(_keyed_states(seed, 3, keys), np.tile(sd_db, len(block)))
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
    # (users x TPs) in mW, rows and columns in inst.users and inst.tps order
    rx_power_mw: np.ndarray = field(repr=False)


USER_ID_BASE = 100_000
_HOT_RADIUS_M = 40.0
_MIN_MACRO_DIST_M = 35.0
_MIN_PICO_SITE_DIST_M = 75.0
_PLACE_CAP = 200     # draws per candidate point, and candidate points per pico
_PLACE_BLOCK = 32    # (angle, radius) draws taken from a stream at a time


def _cell_points(
    rng: np.random.Generator,
    center: tuple[float, float],
    az_deg: float,
    sectors: int,
    radius: float,
    min_center_dist: float,
) -> Iterator[tuple[float, float]]:
    """Candidate points in the cell wedge (or disc), away from the site.

    Each is the first of up to `_PLACE_CAP` uniform (angle, radius) draws
    that lies min_center_dist or more from the site; the last draw wins if
    the cap is hit, which keeps generation total without biasing ordinary
    geometries. Draws come in blocks from `rng.random`, which yields the
    doubles one `rng.uniform` call per value would.
    """
    low, span = (0.0, 360.0) if sectors == 1 else (-60.0, 120.0)
    run = 0
    while True:
        u = rng.random(2 * _PLACE_BLOCK).tolist()
        for u_ang, u_r in zip(u[0::2], u[1::2]):
            ang = low + span * u_ang   # rng.uniform(low, low + span)
            r = radius * math.sqrt(u_r)
            run += 1
            if r >= min_center_dist or run == _PLACE_CAP:
                run = 0
                a = math.radians(ang if sectors == 1 else az_deg + ang)
                yield center[0] + r * math.cos(a), center[1] + r * math.sin(a)


def generate(cfg: DeploymentConfig) -> Deployment:
    """Build the deployment and its peak-rate instance from the config."""
    sites = _site_positions(cfg.rings, cfg.isd_m)
    sectors = cfg.sectors_per_site
    n_cells = cfg.n_cells
    cell_radius = cfg.isd_m / math.sqrt(3.0)

    macro_pos = {cell: sites[cell // sectors] for cell in range(n_cells)}
    macro_az = {cell: (cell % sectors) * (360.0 / sectors) for cell in range(n_cells)}

    # picos, spread out from the site and from each other
    pico_pos: dict[int, tuple[float, float]] = {}
    macros_spec: list[tuple[int, list[int]]] = []
    streams = _streams(cfg.seed, 1, [(cell, k) for cell in range(n_cells)
                                     for k in range(cfg.picos_per_macro)])
    for cell in range(n_cells):
        placed: list[tuple[float, float]] = []
        for rng in itertools.islice(streams, cfg.picos_per_macro):
            points = _cell_points(rng, macro_pos[cell], macro_az[cell], sectors,
                                  cell_radius, _MIN_PICO_SITE_DIST_M)
            for _, p in zip(range(_PLACE_CAP), points):
                if all(math.dist(p, q) >= 2 * _HOT_RADIUS_M for q in placed):
                    break
            placed.append(p)
        ids = list(range(n_cells + cell * cfg.picos_per_macro,
                         n_cells + (cell + 1) * cfg.picos_per_macro))
        pico_pos.update(zip(ids, placed))
        macros_spec.append((cell, ids))

    # users: slots 0,1 mod 3 cluster at a pico, slot 2 mod 3 is uniform
    user_pos: dict[int, tuple[float, float]] = {}
    streams = _streams(cfg.seed, 2, [(cell, slot) for cell in range(n_cells)
                                     for slot in range(cfg.users_per_macro)])
    for cell, pico_ids in macros_spec:
        for slot, rng in zip(range(cfg.users_per_macro), streams):
            u = USER_ID_BASE + cell * cfg.users_per_macro + slot
            if slot % 3 != 2 and pico_ids:
                x, y = pico_pos[pico_ids[slot % len(pico_ids)]]
                ang = rng.uniform(0.0, 2.0 * math.pi)
                r = _HOT_RADIUS_M * math.sqrt(rng.uniform(0.0, 1.0))
                user_pos[u] = (x + r * math.cos(ang), y + r * math.sin(ang))
            else:
                user_pos[u] = next(_cell_points(
                    rng, macro_pos[cell], macro_az[cell], sectors,
                    cell_radius, _MIN_MACRO_DIST_M))

    # received power per (user, TP), shadowing keyed by the id pair
    users = list(user_pos)
    tps = list(macro_pos) + list(pico_pos)
    shadow = _shadowing_db(cfg.seed, users, tps,
                           [cfg.shadow_macro_db] * n_cells
                           + [cfg.shadow_pico_db] * len(pico_pos))
    rx = _received_power_mw(
        cfg, np.array(list(user_pos.values())).reshape(-1, 2),
        np.array(list(macro_pos.values()) + list(pico_pos.values())),
        np.array(list(macro_az.values())), shadow)
    rates = _peak_rates(cfg, rx)
    inst = instance_from_columns(
        [(u, cfg.user_weight, cfg.min_rate_bps, math.inf) for u in users],
        macros_spec, np.repeat(users, len(tps)), np.tile(tps, len(users)),
        rates.ravel())
    return Deployment(
        config=cfg,
        inst=inst,
        macro_pos=macro_pos,
        macro_azimuth_deg=macro_az,
        pico_pos=pico_pos,
        user_pos=user_pos,
        rx_power_mw=rx,
    )


def _libm(f: Callable[..., float], *args) -> np.ndarray:
    """f over the broadcast arguments, one call on Python floats per
    element, so each result is the `math` module's (libm's) bit for bit;
    numpy's own log, pow and angle kernels do not always round alike."""
    arrays = np.broadcast_arrays(*args)
    lists = [a.ravel().tolist() for a in arrays]
    return np.fromiter(map(f, *lists), float, arrays[0].size).reshape(arrays[0].shape)


def _received_power_mw(cfg: DeploymentConfig, user_xy: np.ndarray,
                       tp_xy: np.ndarray, macro_az: np.ndarray,
                       shadow_db: np.ndarray) -> np.ndarray:
    """(users x TPs) received power in mW: transmit power and antenna gain
    (the 3GPP horizontal sector pattern when sites have several sectors),
    less the urban-macro or urban-pico path loss, plus shadowing. The
    len(macro_az) macros come first in tp_xy and shadow_db's columns."""
    n_macros = len(macro_az)
    dx = user_xy[:, :1] - tp_xy[:, 0]
    dy = user_xy[:, 1:] - tp_xy[:, 1]
    dist = _libm(math.hypot, dx, dy)            # math.dist(user, tp)
    macro = np.arange(tp_xy.shape[0]) < n_macros
    log_km = _libm(math.log10, np.maximum(dist, 10.0) / 1000.0)
    path_loss = np.where(macro, 128.1, 140.7) + np.where(macro, 37.6, 36.7) * log_km
    gain = cfg.macro_antenna_dbi
    if cfg.sectors_per_site != 1:
        bearing = _libm(math.degrees, _libm(math.atan2, dy[:, :n_macros],
                                            dx[:, :n_macros]))
        phi = (bearing - macro_az + 180.0) % 360.0 - 180.0
        gain = gain - np.minimum(12.0 * _libm(pow, phi / 70.0, 2), 20.0)
    eirp = np.empty_like(path_loss)
    eirp[:, :n_macros] = cfg.tx_macro_dbm + gain
    eirp[:, n_macros:] = cfg.tx_pico_dbm + cfg.pico_antenna_dbi
    return _libm(functools.partial(pow, 10.0), (eirp - path_loss + shadow_db) / 10.0)


def _peak_rates(cfg: DeploymentConfig, rx: np.ndarray) -> np.ndarray:
    """(users x TPs) Shannon peak rates from received power, cfg.n_cells
    macros first, then each macro's picos; the interference set depends on
    the band split."""
    w_macro = cfg.macro_bandwidth_hz if cfg.macro_bandwidth_hz else cfg.bandwidth_hz
    w_pico = cfg.pico_bandwidth_hz if cfg.pico_bandwidth_hz else cfg.bandwidth_hz
    if cfg.split == SPLIT_IN_BAND:
        w_macro = w_pico = cfg.bandwidth_hz
    n_users, n_macros = len(rx), cfg.n_cells
    # the builtin sum per row: left to right on Python 3.11, compensated on
    # 3.12+, and numpy's pairwise sum matches neither
    macro_sum = np.fromiter(map(sum, rx[:, :n_macros].tolist()), float, n_users)
    pico_sum = np.fromiter(map(sum, rx[:, n_macros:].tolist()), float, n_users)
    if cfg.split == SPLIT_IN_BAND:   # one band: every TP interferes
        macro_sum = pico_sum = macro_sum + pico_sum
    macro = np.arange(rx.shape[1]) < n_macros
    total = np.where(macro, macro_sum[:, None], pico_sum[:, None])
    noise = np.where(macro, _noise_mw(w_macro, cfg.noise_figure_db),
                     _noise_mw(w_pico, cfg.noise_figure_db))
    rates = np.where(macro, w_macro, w_pico) * _libm(
        math.log2, 1.0 + rx / (noise + (total - rx)))

    # exact macro/pico ratio ties would break strict sort orders downstream;
    # nudge the pico rate by relative jitter until ratios are distinct. Only
    # a pico column with a repeated ratio or a zero rate can need it.
    if cfg.picos_per_macro:
        jm = np.arange(rx.shape[1] - n_macros) // cfg.picos_per_macro
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = rates[:, jm] / rates[:, n_macros:]
        ordered = np.sort(ratio, axis=0)
        suspect = ((ordered[1:] == ordered[:-1]).any(axis=0)
                   | ~np.isfinite(ratio).all(axis=0))
        for j in np.flatnonzero(suspect).tolist():
            rates[:, n_macros + j] = _nudged(rates[:, jm[j]].tolist(),
                                             rates[:, n_macros + j].tolist())
    return rates


def _nudged(macro: list[float], pico: list[float]) -> list[float]:
    """One pico's rates, user by user, each scaled by 1 + 1e-9 (at most 16
    times) until its macro/pico ratio differs from the earlier users'."""
    seen: set[float] = set()
    for i, (rm, rb) in enumerate(zip(macro, pico)):
        if rb == 0.0:
            continue   # no link (the SINR rounded away), so no ratio
        for _ in range(16):
            if rm / rb not in seen:
                break
            rb *= 1.0 + 1e-9
        pico[i] = rb
        seen.add(rm / rb)
    return pico


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
