"""Network data model: instances, associations, allocation fractions.

A network is a set of macro TPs, each owning a disjoint set of pico TPs,
plus users with weights, optional minimum/maximum rate requirements and a
dense peak-rate table. Dual connectivity means a user may be served
simultaneously by one macro and one pico under that macro.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

import numpy as np

INF = math.inf


class InfeasibleError(ValueError):
    """Raised when minimum-rate requirements cannot be met within budgets."""


class TooLargeError(ValueError):
    """Raised when an exact/enumerative solver is asked to exceed its cap."""


class NotConvergedError(RuntimeError):
    """Raised when an iterative oracle fails to reach its tolerance."""


@dataclass(frozen=True)
class NetworkInstance:
    """Immutable network snapshot with dense peak rates.

    Ids are opaque integers. Internally everything is stored in arrays
    ordered by sorted id so that iteration order never depends on dict
    insertion history.
    """

    users: tuple[int, ...]
    macros: tuple[int, ...]
    picos_of: Mapping[int, tuple[int, ...]]
    weights: np.ndarray          # aligned with users
    rate_min: np.ndarray
    rate_max: np.ndarray         # math.inf marks "no cap"
    tps: tuple[int, ...]         # macros + picos, sorted
    rates: np.ndarray            # shape (len(users), len(tps))
    _uidx: Mapping[int, int] = field(repr=False)
    _tidx: Mapping[int, int] = field(repr=False)
    pico_macro: Mapping[int, int] = field(repr=False)

    # -- accessors -------------------------------------------------------

    def rate(self, user: int, tp: int) -> float:
        return float(self.rates[self._uidx[user], self._tidx[tp]])

    def weight(self, user: int) -> float:
        return float(self.weights[self._uidx[user]])

    def rmin(self, user: int) -> float:
        return float(self.rate_min[self._uidx[user]])

    def rmax(self, user: int) -> float:
        return float(self.rate_max[self._uidx[user]])

    @property
    def picos(self) -> tuple[int, ...]:
        return tuple(b for m in self.macros for b in self.picos_of[m])

    def macro_of(self, pico: int) -> int:
        return self.pico_macro[pico]


def make_instance(
    users: Iterable[tuple[int, float, float, float]],
    macros: Iterable[tuple[int, Iterable[int]]],
    peak_rates: Iterable[tuple[int, int, float]],
) -> NetworkInstance:
    """Build a NetworkInstance from (id, weight, rmin, rmax) user rows,
    (macro_id, pico_ids) rows and (user, tp, rate) triples.

    Missing (user, tp) pairs get rate 0. Duplicate ids raise ValueError.
    """
    urows = sorted(users)
    uids = [r[0] for r in urows]
    if len(set(uids)) != len(uids):
        raise ValueError("duplicate user id")

    mrows = sorted((m, tuple(sorted(ps))) for m, ps in macros)
    mids = [m for m, _ in mrows]
    pico_macro: dict[int, int] = {}
    for m, ps in mrows:
        for b in ps:
            if b in pico_macro:
                raise ValueError(f"pico {b} listed under two macros")
            pico_macro[b] = m
    tp_ids = sorted(mids + list(pico_macro))
    if len(set(tp_ids)) != len(tp_ids):   # user and tp ids may overlap
        raise ValueError("duplicate tp id")

    uidx = {u: i for i, u in enumerate(uids)}
    tidx = {t: i for i, t in enumerate(tp_ids)}
    rates = np.zeros((len(uids), len(tp_ids)))
    for u, t, r in peak_rates:
        if u not in uidx or t not in tidx:
            raise ValueError(f"peak rate refers to unknown id ({u}, {t})")
        rates[uidx[u], tidx[t]] = float(r)

    return NetworkInstance(
        users=tuple(uids),
        macros=tuple(mids),
        picos_of={m: ps for m, ps in mrows},
        weights=np.array([r[1] for r in urows], dtype=float),
        rate_min=np.array([r[2] for r in urows], dtype=float),
        rate_max=np.array([r[3] for r in urows], dtype=float),
        tps=tuple(tp_ids),
        rates=rates,
        _uidx=uidx,
        _tidx=tidx,
        pico_macro=pico_macro,
    )


def validate_instance(inst: NetworkInstance) -> list[str]:
    """Return a list of violation messages; empty means the instance is sound."""
    bad: list[str] = []
    for i, u in enumerate(inst.users):
        if not inst.weights[i] > 0:
            bad.append(f"user {u}: weight must be positive")
        if inst.rate_min[i] < 0:
            bad.append(f"user {u}: rate_min must be non-negative")
        if inst.rate_min[i] > inst.rate_max[i]:
            bad.append(f"user {u}: rate_min exceeds rate_max")
    if not np.all(np.isfinite(inst.rates)):
        bad.append("peak rates must be finite")
    where = np.argwhere(inst.rates <= 0)
    for i, j in where[:50]:
        bad.append(
            f"user {inst.users[i]}, tp {inst.tps[j]}: non-positive peak rate"
        )
    for m in inst.macros:
        for b in inst.picos_of[m]:
            ratios: dict[float, int] = {}
            for u in inst.users:
                rb = inst.rate(u, b)
                if rb <= 0 or inst.rate(u, m) <= 0:
                    continue
                r = inst.rate(u, m) / rb
                if r in ratios:
                    bad.append(
                        f"pico {b}: tied ratio between users {ratios[r]} and {u}"
                    )
                else:
                    ratios[r] = u
    return bad


# -- ground set ----------------------------------------------------------


@dataclass(frozen=True)
class GroundSet:
    """Candidate (user, pico, macro) association triples.

    A triple is present iff the pico belongs to the macro, the user has a
    link (positive peak rate) to both, and the user's minimum rate is
    attainable with both full budgets on that pair.
    """

    triples: tuple[tuple[int, int, int], ...]
    per_macro: Mapping[int, tuple[tuple[int, int], ...]]   # m -> ((u, b), ...)
    per_user: Mapping[int, tuple[tuple[int, int, int], ...]]

    def __len__(self) -> int:
        return len(self.triples)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, b) for u, b, _ in self.triples)


def build_ground_set(inst: NetworkInstance) -> GroundSet:
    """Enumerate feasible (user, pico, macro) triples, sorted by (user, pico)."""
    triples = []
    for u in inst.users:
        for m in inst.macros:
            rm = inst.rate(u, m)
            for b in inst.picos_of[m]:
                rb = inst.rate(u, b)
                if rm > 0 and rb > 0 and rm + rb >= inst.rmin(u):
                    triples.append((u, b, m))
    triples.sort()
    per_macro: dict[int, list[tuple[int, int]]] = {m: [] for m in inst.macros}
    per_user: dict[int, list[tuple[int, int, int]]] = {u: [] for u in inst.users}
    for u, b, m in triples:
        per_macro[m].append((u, b))
        per_user[u].append((u, b, m))
    return GroundSet(
        triples=tuple(triples),
        per_macro={m: tuple(v) for m, v in per_macro.items()},
        per_user={u: tuple(v) for u, v in per_user.items()},
    )


# -- association and fractions ------------------------------------------


@dataclass
class Association:
    """Dual-connectivity assignment: user -> (macro, pico) or None.

    A pair with pico None means the user is served by the macro alone;
    a None entry means the user is not served at all.
    """

    pairs: dict[int, Optional[tuple[int, Optional[int]]]]

    def validate(self, inst: NetworkInstance) -> list[str]:
        bad = []
        for u, mb in sorted(self.pairs.items()):
            if u not in inst._uidx:
                bad.append(f"unknown user {u}")
                continue
            if mb is None:
                continue
            m, b = mb
            if m not in inst.picos_of:
                bad.append(f"user {u}: unknown macro {m}")
            elif b is not None and b not in inst.picos_of[m]:
                bad.append(f"user {u}: pico {b} not under macro {m}")
        return bad

    def users_of_macro(self, m: int) -> dict[Optional[int], list[int]]:
        """Group this association's users of macro m by serving pico;
        macro-only users land under the None key."""
        out: dict[Optional[int], list[int]] = {}
        for u, mb in sorted(self.pairs.items()):
            if mb is not None and mb[0] == m:
                out.setdefault(mb[1], []).append(u)
        return out


@dataclass
class AllocationFractions:
    """Resource shares: theta[(user, macro)] and gamma[(user, pico)]."""

    theta: dict[tuple[int, int], float] = field(default_factory=dict)
    gamma: dict[tuple[int, int], float] = field(default_factory=dict)

    def merge(self, other: "AllocationFractions") -> None:
        self.theta.update(other.theta)
        self.gamma.update(other.gamma)


def compute_user_rates(
    inst: NetworkInstance, fractions: AllocationFractions
) -> dict[int, float]:
    """Aggregate rate per user: sum of share * peak rate over all serving TPs."""
    rate = {u: 0.0 for u in inst.users}
    for (u, m), th in fractions.theta.items():
        rate[u] += th * inst.rate(u, m)
    for (u, b), ga in fractions.gamma.items():
        rate[u] += ga * inst.rate(u, b)
    return rate


# -- JSON schema ---------------------------------------------------------


def instance_to_json(inst: NetworkInstance) -> str:
    """Serialize deterministically (sorted ids, rate_max omitted when inf)."""
    users = []
    for i, u in enumerate(inst.users):
        row: dict = {"id": u, "weight": inst.weights[i], "rate_min": inst.rate_min[i]}
        if math.isfinite(inst.rate_max[i]):
            row["rate_max"] = inst.rate_max[i]
        users.append(row)
    macros = [{"id": m, "picos": list(inst.picos_of[m])} for m in inst.macros]
    peaks = [
        [u, t, float(inst.rates[i, j])]
        for i, u in enumerate(inst.users)
        for j, t in enumerate(inst.tps)
        if inst.rates[i, j] != 0.0
    ]
    doc = {"users": users, "macros": macros, "peak_rates": peaks}
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)


def instance_from_json(text: str) -> NetworkInstance:
    doc = json.loads(text)
    users = [
        (r["id"], r["weight"], r.get("rate_min", 0.0), r.get("rate_max", INF))
        for r in doc["users"]
    ]
    macros = [(r["id"], r["picos"]) for r in doc["macros"]]
    peaks = [(u, t, r) for u, t, r in doc["peak_rates"]]
    return make_instance(users, macros, peaks)
