"""Synthetic heterogeneous deployments, channel model and metrics.

Hexagonal macro sites with optional 3-sector cells, picos dropped uniformly
per cell, users either clustered at picos (two of every three) or uniform.
Propagation follows the usual urban-macro / urban-pico curves with
log-normal shadowing; peak rates are Shannon over the configured band.

Every random value is a pure function of its key (seed, kind, a, b,
counter): the top 53 bits of a SplitMix64 hash chain, computed in numpy
uint64 arithmetic. Kind 1 keys a pico by (cell, k), kind 2 a user by (cell,
slot), and kind 3 a shadowing draw by (user, TP), a Box-Muller normal of
counters 0 and 1. So layouts are reproducible, do not move when an
unrelated count changes, and do not depend on the numpy or Python version.
No pico draw reads a user, so a process places a seed's picos once.

Nothing runs Python per (user, TP) pair. Received power, SINR and peak
rates are (users x TPs) arrays whose logarithms, powers and angles come
from the `math` module and whose interference sums run left to right, so
every value equals a pair-by-pair computation bit for bit. Configs above
`MAX_PAIRS` (user, TP) pairs are rejected before anything is built.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
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


_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15   # SplitMix64's increment, the golden ratio
_BLOCK = 64                   # uniforms of a placement key computed at a time


def _mix(z):
    """SplitMix64's finalizer of an int below 2^64, or of a uint64 array,
    modulo 2^64."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _M64
    return z ^ z >> 31


def _uniforms(seed: int, kind: int, *keys) -> np.ndarray:
    """The uniform in [0, 1) of every key (seed, kind, *keys), the keys
    broadcast against each other: the top 53 bits of a SplitMix64 chain over
    the seed's little-endian 64-bit words, their count, kind and the keys,
    each step `_mix((state ^ word) + gamma)`. The part before the keys is
    hashed in Python ints, since a numpy uint64 scalar warns on overflow."""
    words = [seed >> s & _M64 for s in range(0, max(seed.bit_length(), 1), 64)]
    h = 0
    for w in words + [len(words), kind]:
        h = _mix((h ^ w) + _GAMMA & _M64)
    h = np.full(1, h, dtype=np.uint64)
    for key in keys:
        h = _mix((h ^ np.asarray(key, dtype=np.uint64)) + _GAMMA)
    return (h >> 11) * 2.0**-53


def _key_streams(seed: int, kind: int, a: np.ndarray,
                 b: np.ndarray) -> Iterator[Iterator[float]]:
    """For each key (a[i], b[i]) in turn, its uniforms: counters 0, 1, ...
    of (seed, kind, a[i], b[i]). The first `_BLOCK` of every key come from
    one pass; later blocks are computed only for a key that runs past them."""
    first = _uniforms(seed, kind, np.reshape(a, (-1, 1)), np.reshape(b, (-1, 1)),
                      np.arange(_BLOCK)).tolist()

    def stream(ka, kb, row: list[float]) -> Iterator[float]:
        yield from row
        for c in itertools.count(_BLOCK, _BLOCK):
            yield from _uniforms(seed, kind, ka, kb, np.arange(c, c + _BLOCK)).tolist()

    return map(stream, a, b, first)


def _shadowing_db(seed: int, users: list[int], tps: list[int],
                  sd_db: list[float]) -> np.ndarray:
    """(users x TPs) shadowing: sd_db[j] times the Box-Muller normal of
    counters 0 and 1 of key (seed, 3, users[i], tps[j])."""
    u = _uniforms(seed, 3, np.reshape(users, (-1, 1, 1)),
                  np.reshape(tps, (1, -1, 1)), np.arange(2))
    radius = np.sqrt(-2.0 * _libm(math.log, 1.0 - u[:, :, 0]))
    return np.array(sd_db) * (radius * _libm(math.cos, 2.0 * math.pi * u[:, :, 1]))


@dataclass
class Deployment:
    """Generated network: geometry and the rate instance."""

    config: DeploymentConfig
    inst: NetworkInstance
    macro_pos: dict[int, tuple[float, float]]
    macro_azimuth_deg: dict[int, float]
    pico_pos: dict[int, tuple[float, float]]
    user_pos: dict[int, tuple[float, float]]


USER_ID_BASE = 100_000
_HOT_RADIUS_M = 40.0
_MIN_MACRO_DIST_M = 35.0
_MIN_PICO_SITE_DIST_M = 75.0
_PLACE_CAP = 200     # draws per candidate point, and candidate points per pico


def _cell_points(
    uniforms: Iterator[float],
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
    geometries. A draw takes the next two uniforms.
    """
    low, span = (0.0, 360.0) if sectors == 1 else (-60.0, 120.0)
    run = 0
    for u_ang, u_r in zip(uniforms, uniforms):
        ang = low + span * u_ang
        r = radius * math.sqrt(u_r)
        run += 1
        if r >= min_center_dist or run == _PLACE_CAP:
            run = 0
            a = math.radians(ang if sectors == 1 else az_deg + ang)
            yield center[0] + r * math.cos(a), center[1] + r * math.sin(a)


@functools.lru_cache(maxsize=1)
def _pico_layout(seed: int, rings: int, sectors_per_site: int, picos_per_macro: int,
                 isd_m: float) -> tuple[tuple[float, float], ...]:
    """Pico positions, cell by cell, spread out from the site and each other."""
    sites, sectors = _site_positions(rings, isd_m), sectors_per_site
    n_cells = len(sites) * sectors
    streams = _key_streams(seed, 1, np.repeat(range(n_cells), picos_per_macro),
                           np.tile(range(picos_per_macro), n_cells))
    layout: list[tuple[float, float]] = []
    for cell in range(n_cells):
        first = len(layout)
        for uniforms in itertools.islice(streams, picos_per_macro):
            points = _cell_points(uniforms, sites[cell // sectors],
                                  (cell % sectors) * (360.0 / sectors), sectors,
                                  isd_m / math.sqrt(3.0), _MIN_PICO_SITE_DIST_M)
            for _, p in zip(range(_PLACE_CAP), points):
                for q in layout[first:]:   # the first pico within 80 m rejects p
                    if math.dist(p, q) < 2 * _HOT_RADIUS_M:
                        break
                else:
                    break
            layout.append(p)
    return tuple(layout)


def generate(cfg: DeploymentConfig) -> Deployment:
    """Build the deployment and its peak-rate instance from the config."""
    sites = _site_positions(cfg.rings, cfg.isd_m)
    sectors = cfg.sectors_per_site
    n_cells = cfg.n_cells

    macro_pos = {cell: sites[cell // sectors] for cell in range(n_cells)}
    macro_az = {cell: (cell % sectors) * (360.0 / sectors) for cell in range(n_cells)}

    k = cfg.picos_per_macro   # picos per cell; ids run cell by cell from n_cells
    macros_spec = [(cell, list(range(n_cells + cell * k, n_cells + (cell + 1) * k)))
                   for cell in range(n_cells)]
    layout = _pico_layout(cfg.seed, cfg.rings, sectors, k, cfg.isd_m)
    pico_pos = dict(zip(range(n_cells, n_cells * (1 + k)), layout))

    # users: slots 0,1 mod 3 cluster at a pico, slot 2 mod 3 is uniform
    user_pos: dict[int, tuple[float, float]] = {}
    streams = _key_streams(cfg.seed, 2, np.repeat(range(n_cells), cfg.users_per_macro),
                           np.tile(range(cfg.users_per_macro), n_cells))
    for cell, pico_ids in macros_spec:
        for slot, uniforms in zip(range(cfg.users_per_macro), streams):
            u = USER_ID_BASE + cell * cfg.users_per_macro + slot
            if slot % 3 != 2 and pico_ids:
                x, y = pico_pos[pico_ids[slot % len(pico_ids)]]
                ang = 2.0 * math.pi * next(uniforms)
                r = _HOT_RADIUS_M * math.sqrt(next(uniforms))
                user_pos[u] = (x + r * math.cos(ang), y + r * math.sin(ang))
            else:
                user_pos[u] = next(_cell_points(
                    uniforms, macro_pos[cell], macro_az[cell], sectors,
                    cfg.isd_m / math.sqrt(3.0), _MIN_MACRO_DIST_M))

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
        [(u, 1.0, cfg.min_rate_bps, math.inf) for u in users],
        macros_spec, np.repeat(users, len(tps)), np.tile(tps, len(users)),
        rates.ravel())
    return Deployment(
        config=cfg,
        inst=inst,
        macro_pos=macro_pos,
        macro_azimuth_deg=macro_az,
        pico_pos=pico_pos,
        user_pos=user_pos,
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
    the band split. Tied macro/pico ratios stay tied: the solvers break
    such ties by id."""
    w_macro = cfg.macro_bandwidth_hz if cfg.macro_bandwidth_hz else cfg.bandwidth_hz
    w_pico = cfg.pico_bandwidth_hz if cfg.pico_bandwidth_hz else cfg.bandwidth_hz
    if cfg.split == SPLIT_IN_BAND:
        w_macro = w_pico = cfg.bandwidth_hz
    n_macros = cfg.n_cells
    # row sums left to right from a zero column, on every Python (the
    # builtin sum is compensated from 3.12 on, numpy's sum is pairwise)
    zero = np.zeros((len(rx), 1))
    macro_sum, pico_sum = (np.add.accumulate(np.hstack([zero, part]), axis=1)[:, -1]
                           for part in (rx[:, :n_macros], rx[:, n_macros:]))
    if cfg.split == SPLIT_IN_BAND:   # one band: every TP interferes
        macro_sum = pico_sum = macro_sum + pico_sum
    macro = np.arange(rx.shape[1]) < n_macros
    total = np.where(macro, macro_sum[:, None], pico_sum[:, None])
    noise = np.where(macro, _noise_mw(w_macro, cfg.noise_figure_db),
                     _noise_mw(w_pico, cfg.noise_figure_db))
    return np.where(macro, w_macro, w_pico) * _libm(
        math.log2, 1.0 + rx / (noise + (total - rx)))


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
