"""Synthetic heterogeneous deployments, channel model and metrics.

Hexagonal macro sites with optional 3-sector cells, picos dropped uniformly
per cell, users either clustered at picos (two of every three) or uniform.
Propagation follows the usual urban-macro / urban-pico curves with
log-normal shadowing; peak rates are Shannon over the configured band.
Every random draw comes from its own seeded stream keyed by entity ids, so
layouts are reproducible and insensitive to unrelated config changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Mapping, Optional

import numpy as np

from .net_model import (
    AllocationFractions,
    Association,
    NetworkInstance,
    make_instance,
)

SPLIT_IN_BAND = "in-band"
SPLIT_OUT_OF_BAND = "out-of-band"


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
        for name, low in (("rings", 0), ("sectors_per_site", 1),
                          ("picos_per_macro", 0), ("users_per_macro", 0)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be at least {low}, got {value}")
        for name in ("isd_m", "bandwidth_hz"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")

    @property
    def n_cells(self) -> int:
        """Macro cells: hex sites in the rings times sectors per site."""
        return len(_site_positions(self.rings, self.isd_m)) * self.sectors_per_site

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: Mapping) -> "DeploymentConfig":
        return DeploymentConfig(**dict(d))


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
    return np.random.default_rng(np.random.SeedSequence(list(key)))


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
    rx: dict[tuple[int, int], float] = {}
    for u in users:
        pu = user_pos[u]
        for m in macro_ids:
            d = math.dist(pu, macro_pos[m])
            bearing = math.degrees(math.atan2(pu[1] - macro_pos[m][1],
                                              pu[0] - macro_pos[m][0]))
            phi = _wrap_deg(bearing - macro_az[m])
            gain = _sector_gain_db(cfg, phi, sectors)
            sh = _stream(cfg.seed, 3, u, m).normal(0.0, cfg.shadow_macro_db)
            db = cfg.tx_macro_dbm + gain - _pl_macro_db(d) + sh
            rx[(u, m)] = 10.0 ** (db / 10.0)
        for b in pico_ids_all:
            d = math.dist(pu, pico_pos[b])
            sh = _stream(cfg.seed, 3, u, b).normal(0.0, cfg.shadow_pico_db)
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
    n_macros = len(macro_ids)
    rate: dict[tuple[int, int], float] = {}
    for u in users:
        macro_sum = sum(rx[(u, m)] for m in macro_ids)
        pico_sum = sum(rx[(u, b)] for b in pico_ids)
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
            rate[(u, t)] = w * math.log2(1.0 + sinr)

    # exact macro/pico ratio ties would break strict sort orders downstream;
    # nudge the pico rate by relative jitter until ratios are distinct
    for b in pico_ids:
        m = (b - n_macros) // cfg.picos_per_macro
        seen: set[float] = set()
        for u in users:
            for _ in range(16):
                ratio = rate[(u, m)] / rate[(u, b)]
                if ratio not in seen:
                    break
                rate[(u, b)] *= 1.0 + 1e-9
            seen.add(rate[(u, m)] / rate[(u, b)])
    return [(u, t, rate[(u, t)]) for u in users for t in macro_ids + pico_ids]


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
    choice: dict[int, Optional[int]] = {}
    counts: dict[int, int] = {}
    for u in inst.users:
        best, best_r = None, 0.0
        for t in inst.tps:
            r = inst.rate(u, t)
            if r > best_r:
                best, best_r = t, r
        choice[u] = best
        if best is not None:
            counts[best] = counts.get(best, 0) + 1
    rates = {}
    pairs: dict[int, Optional[tuple[int, Optional[int]]]] = {}
    fractions = AllocationFractions()
    for u in inst.users:
        t = choice[u]
        if t is None:
            rates[u] = 0.0
            pairs[u] = None
        else:
            rates[u] = inst.rate(u, t) / counts[t]
            if t in inst.pico_macro:
                pairs[u] = (inst.pico_macro[t], t)
                fractions.gamma[(u, t)] = 1.0 / counts[t]
            else:
                pairs[u] = (t, None)
                fractions.theta[(u, t)] = 1.0 / counts[t]
    return Association(pairs=pairs), fractions, rates
