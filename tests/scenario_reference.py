"""Plain reference for the deployment generator.

The library hashes its random keys in numpy uint64 arrays, in blocks for
placement and all (user, TP) shadowing keys in one pass, and computes
received power, SINR and peak rates on whole (users x TPs) arrays. This
module keeps the version it must match bit for bit: SplitMix64 written
again in Python ints, one `_stream` per key, and the channel, the noise
power and the rate computed pair by pair in Python floats.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from typing import Iterator, Mapping, Optional

from dcopt.net_model import make_instance
from dcopt.scenario import (
    SPLIT_IN_BAND,
    SPLIT_OUT_OF_BAND,
    USER_ID_BASE,
    Deployment,
    DeploymentConfig,
    _HOT_RADIUS_M,
    _MIN_MACRO_DIST_M,
    _MIN_PICO_SITE_DIST_M,
    _noise_mw,
    _site_positions,
)


def _splitmix64(state: int) -> int:
    """The output of a SplitMix64 generator whose state before the step is
    `state` (Steele, Lea and Flood; Vigna's splitmix64.c)."""
    z = (state + 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def _stream(seed: int, kind: int, a: int, b: int) -> Iterator[float]:
    """The uniforms of key (seed, kind, a, b), counter 0 up: chain
    SplitMix64 over the seed's little-endian 64-bit words (one for 0), their
    count, kind, a, b and the counter, each step from the previous output
    XOR the next word; keep the top 53 bits."""
    words = []
    while True:
        words.append(seed % 2**64)
        seed //= 2**64
        if not seed:
            break
    h = 0
    for w in words + [len(words), kind, a, b]:
        h = _splitmix64(h ^ w)
    for counter in itertools.count():
        yield (_splitmix64(h ^ counter) >> 11) / 2**53


def _normal(seed: int, u: int, t: int) -> float:
    """Box-Muller on counters 0 and 1 of key (seed, 3, u, t)."""
    u1, u2 = itertools.islice(_stream(seed, 3, u, t), 2)
    return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)


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


def _draw_in_cell(
    uniforms: Iterator[float],
    center: tuple[float, float],
    az_deg: float,
    sectors: int,
    radius: float,
    min_center_dist: float,
    caps: Counter,
) -> tuple[float, float]:
    """Uniform point in the cell wedge (or disc), away from the site; the
    last of 200 draws wins if none is far enough (counted in caps["draw"])."""
    for _ in range(200):
        if sectors == 1:
            ang = 0.0 + 360.0 * next(uniforms)
        else:
            ang = az_deg + (-60.0 + 120.0 * next(uniforms))
        r = radius * math.sqrt(next(uniforms))
        if r >= min_center_dist:
            break
    else:
        caps["draw"] += 1
    a = math.radians(ang)
    return center[0] + r * math.cos(a), center[1] + r * math.sin(a)


def reference_generate(cfg: DeploymentConfig, caps: Optional[Counter] = None,
                       rx: Optional[dict] = None) -> Deployment:
    """generate() draw by draw and pair by pair. Placement caps hit are
    counted in caps: "draw" for a point whose 200 draws all fell too close
    to the site, "pico" for a pico whose 200 points all fell too close to an
    earlier pico of its cell. The received power in mW of each (user, TP)
    is stored in rx."""
    caps = Counter() if caps is None else caps
    rx = {} if rx is None else rx
    if cfg.split not in (SPLIT_IN_BAND, SPLIT_OUT_OF_BAND):
        raise ValueError(f"unknown split {cfg.split!r}")
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

    pico_base = n_cells
    for cell in range(n_cells):
        ids = []
        placed: list[tuple[float, float]] = []
        for k in range(cfg.picos_per_macro):
            b = pico_base + cell * cfg.picos_per_macro + k
            uniforms = _stream(cfg.seed, 1, cell, k)
            for _ in range(200):
                p = _draw_in_cell(
                    uniforms, macro_pos[cell], macro_az[cell], sectors,
                    cell_radius, _MIN_PICO_SITE_DIST_M, caps,
                )
                if all(math.dist(p, q) >= 2 * _HOT_RADIUS_M for q in placed):
                    break
            else:
                caps["pico"] += 1
            placed.append(p)
            pico_pos[b] = p
            ids.append(b)
        macros_spec.append((cell, ids))

    users_spec = []
    for cell in range(n_cells):
        pico_ids = macros_spec[cell][1]
        for slot in range(cfg.users_per_macro):
            u = USER_ID_BASE + cell * cfg.users_per_macro + slot
            uniforms = _stream(cfg.seed, 2, cell, slot)
            if slot % 3 != 2 and pico_ids:
                b = pico_ids[slot % len(pico_ids)]
                ang = 2.0 * math.pi * next(uniforms)
                r = _HOT_RADIUS_M * math.sqrt(next(uniforms))
                p = (
                    pico_pos[b][0] + r * math.cos(ang),
                    pico_pos[b][1] + r * math.sin(ang),
                )
            else:
                p = _draw_in_cell(
                    uniforms, macro_pos[cell], macro_az[cell], sectors,
                    cell_radius, _MIN_MACRO_DIST_M, caps,
                )
            user_pos[u] = p
            users_spec.append((u, 1.0, cfg.min_rate_bps, math.inf))

    users = [u for u, *_ in users_spec]
    macro_ids = list(range(n_cells))
    pico_ids_all = sorted(pico_pos)
    for u in users:
        pu = user_pos[u]
        for m in macro_ids:
            d = math.dist(pu, macro_pos[m])
            bearing = math.degrees(math.atan2(pu[1] - macro_pos[m][1],
                                              pu[0] - macro_pos[m][0]))
            phi = _wrap_deg(bearing - macro_az[m])
            gain = _sector_gain_db(cfg, phi, sectors)
            sh = cfg.shadow_macro_db * _normal(cfg.seed, u, m)
            db = cfg.tx_macro_dbm + gain - _pl_macro_db(d) + sh
            rx[(u, m)] = 10.0 ** (db / 10.0)
        for b in pico_ids_all:
            d = math.dist(pu, pico_pos[b])
            sh = cfg.shadow_pico_db * _normal(cfg.seed, u, b)
            db = cfg.tx_pico_dbm + cfg.pico_antenna_dbi - _pl_pico_db(d) + sh
            rx[(u, b)] = 10.0 ** (db / 10.0)

    rates = reference_peak_rates(cfg, users, macro_ids, pico_ids_all, rx)
    inst = make_instance(users_spec, macros_spec, rates)
    return Deployment(
        config=cfg,
        inst=inst,
        macro_pos=macro_pos,
        macro_azimuth_deg=macro_az,
        pico_pos=pico_pos,
        user_pos=user_pos,
    )


def reference_peak_rates(
    cfg: DeploymentConfig,
    users: list[int],
    macro_ids: list[int],
    pico_ids: list[int],
    rx: Mapping[tuple[int, int], float],
) -> list[tuple[int, int, float]]:
    """Shannon peak rates pair by pair."""
    w_macro = cfg.macro_bandwidth_hz if cfg.macro_bandwidth_hz else cfg.bandwidth_hz
    w_pico = cfg.pico_bandwidth_hz if cfg.pico_bandwidth_hz else cfg.bandwidth_hz
    n_macros = len(macro_ids)
    rates: list[tuple[int, int, float]] = []
    for u in users:
        macro_sum = functools.reduce(operator.add, (rx[(u, m)] for m in macro_ids), 0.0)
        pico_sum = functools.reduce(operator.add, (rx[(u, b)] for b in pico_ids), 0.0)
        for t in macro_ids + pico_ids:
            is_macro = t < n_macros
            if cfg.split == SPLIT_IN_BAND:
                w = cfg.bandwidth_hz
                interf = macro_sum + pico_sum - rx[(u, t)]
            elif is_macro:
                w = w_macro
                interf = macro_sum - rx[(u, t)]
            else:
                w = w_pico
                interf = pico_sum - rx[(u, t)]
            sinr = rx[(u, t)] / (_noise_mw(w, cfg.noise_figure_db) + interf)
            rates.append((u, t, w * math.log2(1.0 + sinr)))
    return rates
