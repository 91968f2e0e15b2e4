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
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

INF = math.inf
WEIGHTED_RATE_SUM_MAX = 1e300   # cap on sum(weight x peak rate): solvers' sums stay finite


class InfeasibleError(ValueError):
    """Raised when minimum-rate requirements cannot be met within budgets."""


class TooLargeError(ValueError):
    """Raised when an exact/enumerative solver is asked to exceed its cap."""


class NotConvergedError(RuntimeError):
    """Raised when an iterative oracle fails to reach its tolerance."""


class VerificationError(RuntimeError):
    """Raised when a solution fails its optimality certificate or a check."""


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


def make_instance(
    users: Iterable[tuple[int, float, float, float]],
    macros: Iterable[tuple[int, Iterable[int]]],
    peak_rates: Iterable[tuple[int, int, float]],
) -> NetworkInstance:
    """Build a NetworkInstance from (id, weight, rmin, rmax) user rows,
    (macro_id, pico_ids) rows and (user, tp, rate) triples.

    Missing (user, tp) pairs get rate 0. User, macro, pico and peak-rate
    ids must be ints (not bools); duplicate ids and duplicate (user, tp)
    pairs raise ValueError.
    """
    return instance_from_columns(users, macros, *_peak_columns(list(peak_rates)))


def _first_repeat(ids: list[int]) -> Optional[int]:
    """The first id a sorted id list holds twice, or None."""
    return next((a for a, b in zip(ids, ids[1:]) if a == b), None)


def instance_from_columns(
    users: Iterable[tuple[int, float, float, float]],
    macros: Iterable[tuple[int, Iterable[int]]],
    peak_users: Sequence[int] | np.ndarray,
    peak_tps: Sequence[int] | np.ndarray,
    peak_rates: Sequence[float] | np.ndarray,
) -> NetworkInstance:
    """make_instance with the peak rates given as three aligned columns of
    integer user ids, integer TP ids and rates (sequences or arrays)."""
    users = list(users)
    macros = [(m, list(ps)) for m, ps in macros]
    _check_types([r[0] for r in users], (int,), "user id", "an integer")
    _check_types([m for m, _ in macros], (int,), "macro id", "an integer")
    _check_types([b for _, ps in macros for b in ps], (int,), "pico id", "an integer")
    urows = sorted(users)
    uids = [r[0] for r in urows]
    if (u := _first_repeat(uids)) is not None:
        raise ValueError(f"user id {u} listed twice")

    mrows = sorted((m, tuple(sorted(ps))) for m, ps in macros)
    mids = [m for m, _ in mrows]
    pico_macro: dict[int, int] = {}
    for m, ps in mrows:
        for b in ps:
            if b in pico_macro:
                where = (f"twice under macro {m}" if pico_macro[b] == m
                         else f"under macros {pico_macro[b]} and {m}")
                raise ValueError(f"pico {b} listed {where}")
            pico_macro[b] = m
    tp_ids = sorted(mids + list(pico_macro))
    if (t := _first_repeat(tp_ids)) is not None:   # user and tp ids may overlap
        raise ValueError(f"tp id {t} used twice")

    # each peak's row and column by binary search in the sorted ids
    uid_keys, tp_keys, peak_u, peak_t = _id_arrays(uids, tp_ids, peak_users, peak_tps)
    rows, cols = _positions(uid_keys, peak_u), _positions(tp_keys, peak_t)
    rates = np.zeros((len(uids), len(tp_ids)))
    unknown = (rows < 0) | (cols < 0)
    if unknown.any():
        k = int(np.argmax(unknown))
        raise ValueError(
            f"peak rate refers to unknown id ({peak_users[k]}, {peak_tps[k]})")
    cells = rows * len(tp_ids) + cols
    if np.bincount(cells, minlength=rates.size).max(initial=0) > 1:
        _, first = np.unique(cells, return_index=True)
        k = int(np.setdiff1d(np.arange(cells.size), first)[0])
        raise ValueError(f"peak rate for ({peak_users[k]}, {peak_tps[k]}) listed twice")
    rates.flat[cells] = _floats(
        peak_rates, lambda k: f"peak rate for ({peak_users[k]}, {peak_tps[k]})")

    return NetworkInstance(
        users=tuple(uids),
        macros=tuple(mids),
        picos_of={m: ps for m, ps in mrows},
        weights=_floats([r[1] for r in urows], lambda k: f"user {uids[k]}: weight"),
        rate_min=_floats([r[2] for r in urows], lambda k: f"user {uids[k]}: rate_min"),
        rate_max=_floats([r[3] for r in urows], lambda k: f"user {uids[k]}: rate_max"),
        tps=tuple(tp_ids),
        rates=rates,
        _uidx={u: i for i, u in enumerate(uids)},
        _tidx={t: i for i, t in enumerate(tp_ids)},
        pico_macro=pico_macro,
    )


def _peak_columns(peaks: list) -> tuple[list, list, list]:
    """(user, tp, rate) rows as three columns; each row must have three
    entries, and the ids must be ints (not bools)."""
    if set(map(len, peaks)) - {3}:
        raise ValueError("each peak rate must be a [user, tp, rate] triple")
    users, tps, rates = ([r[i] for r in peaks] for i in range(3))
    _check_types(users, (int,), "peak-rate user id", "an integer")
    _check_types(tps, (int,), "peak-rate tp id", "an integer")
    return users, tps, rates


def _id_arrays(*columns) -> list[np.ndarray]:
    """Integer id columns as int64 arrays, or all as arrays of Python ints
    when one id does not fit in int64."""
    try:
        return [np.asarray(c, dtype=np.int64) for c in columns]
    except OverflowError:
        return [np.array(list(c), dtype=object) for c in columns]


def _floats(values, name: Callable[[int], str]) -> np.ndarray:
    """values as a float array; an integer too large for a float raises
    ValueError, naming the entry at index k as name(k)."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        for k, v in enumerate(values):
            try:
                float(v)
            except OverflowError:
                raise ValueError(f"{name(k)} is too large for a float") from None
        raise


def _positions(ids: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """The index of each wanted id in the sorted ids, -1 where absent."""
    at = np.searchsorted(ids, wanted)
    found = at < len(ids)
    found[found] = ids[at[found]] == wanted[found]
    return np.where(found, at, -1)


def _check_types(values, types: tuple, what: str, kind: str) -> None:
    """Every value's type must be one of `types` exactly, so bools fail."""
    if set(map(type, values)) - set(types):
        bad = next(v for v in values if type(v) not in types)
        raise ValueError(f"{what} {bad!r} is not {kind}")


def instance_errors(inst: NetworkInstance) -> list[str]:
    """Violations no solver can take: weights must be positive and finite,
    minimum rates non-negative, finite and at most the maximum rate, peak
    rates non-negative and finite. A zero peak rate means "no link". Then
    weight x peak rate, summed over all links, must be at most
    WEIGHTED_RATE_SUM_MAX."""
    bad: list[str] = []
    for i, u in enumerate(inst.users):
        w, lo, hi = inst.weights[i], inst.rate_min[i], inst.rate_max[i]
        if not (w > 0 and math.isfinite(w)):
            bad.append(f"user {u}: weight must be positive and finite")
        if not (lo >= 0 and math.isfinite(lo)):
            bad.append(f"user {u}: rate_min must be non-negative and finite")
        if lo > hi:
            bad.append(f"user {u}: rate_min exceeds rate_max")
        if math.isnan(hi):
            bad.append(f"user {u}: rate_max must not be NaN")
    where = np.argwhere(~((inst.rates >= 0) & np.isfinite(inst.rates)))
    for i, j in where[:50]:
        bad.append(
            f"user {inst.users[i]}, tp {inst.tps[j]}: "
            "peak rate must be non-negative and finite"
        )
    with np.errstate(all="ignore"):
        wr = inst.weights[:, None] * inst.rates
        total = wr.sum()
    if not (bad or total <= WEIGHTED_RATE_SUM_MAX):
        bad.append(f"weight x peak rate summed over all links is {total:g}, above "
                   f"{WEIGHTED_RATE_SUM_MAX:g} (user {inst.users[wr.max(axis=1).argmax()]} "
                   "has the largest)")
    return bad


# -- ground set and cluster checks -------------------------------------------


Pair = tuple[int, int]   # (user, pico); the pico determines the macro


def build_ground_set(inst: NetworkInstance) -> tuple[Pair, ...]:
    """Candidate (user, pico) association pairs, sorted.

    A pair is present iff the user has a link (positive peak rate) to the
    pico and to the pico's macro, and the user's minimum rate is attainable
    with both full budgets on that pair.
    """
    picos = sorted(inst.pico_macro)
    rb = inst.rates[:, [inst._tidx[b] for b in picos]]
    rm = inst.rates[:, [inst._tidx[inst.pico_macro[b]] for b in picos]]
    with np.errstate(all="ignore"):   # inf + -inf and overflow stay silent, as for floats
        ok = (rm > 0) & (rb > 0) & (rm + rb >= inst.rate_min[:, None])
    rows, cols = np.nonzero(ok)   # row-major: sorted by (user, pico)
    return tuple((inst.users[i], picos[j]) for i, j in zip(rows.tolist(), cols.tolist()))


def order_cluster(inst: NetworkInstance, macro: int, pico_users: Mapping[int, Sequence[int]],
                  key: Callable, macro_only: Sequence[int] = (),
                  pico_needs_macro: bool = True) -> dict[int, list]:
    """Check one macro cluster: the macro exists, each non-empty pico lies
    under it, no user appears twice, and every user has positive (not NaN)
    peak rates to the macro and to its pico; with pico_needs_macro false, a
    pico user's macro rate may also be 0 (no macro link). Returns, per
    non-empty pico in id order, the sorted key(r_macro, r_pico, user) values."""
    if macro not in inst.picos_of:
        raise ValueError(f"unknown macro {macro}")
    seen: set[int] = set()
    ordered: dict[int, list] = {}
    rate, row, tm = inst.rates.item, inst._uidx, inst._tidx[macro]
    for b in sorted(pico_users):
        users = pico_users[b]
        if not users:
            continue
        if b not in inst.picos_of[macro]:
            raise ValueError(f"pico {b} not under macro {macro}")
        tb = inst._tidx[b]
        keyed = []
        for u in users:
            if u in seen:
                raise ValueError(f"user {u} attached to two picos")
            seen.add(u)
            r1, rb = rate(row[u], tm), rate(row[u], tb)
            if not ((r1 > 0 or r1 == 0 and not pico_needs_macro) and rb > 0):
                raise ValueError(f"user {u} needs positive peak rates")
            keyed.append(key(r1, rb, u))
        keyed.sort()
        ordered[b] = keyed
    for u in macro_only:
        if u in seen:
            raise ValueError(f"user {u} attached to two picos")
        seen.add(u)
        if not rate(row[u], tm) > 0:
            raise ValueError(f"user {u} needs positive peak rates")
    return ordered


# -- association and fractions ------------------------------------------


@dataclass
class Association:
    """Dual-connectivity assignment: user -> (macro, pico) or None.

    A pair with pico None means the user is served by the macro alone;
    a None entry means the user is not served at all.
    """

    pairs: dict[int, Optional[tuple[int, Optional[int]]]]

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
    peak, row, col = inst.rates.item, inst._uidx, inst._tidx
    rate = {u: 0.0 for u in inst.users}
    for (u, m), th in fractions.theta.items():
        rate[u] += th * peak(row[u], col[m])
    for (u, b), ga in fractions.gamma.items():
        rate[u] += ga * peak(row[u], col[b])
    return rate


# -- JSON schema ---------------------------------------------------------


def instance_to_json(inst: NetworkInstance) -> str:
    """Serialize deterministically: the text of `json.dumps(doc, sort_keys=True,
    separators=(",", ": "), indent=1)`, laid out here because `indent` makes
    json use its pure-Python encoder. rate_max is omitted when not finite."""
    rows, cols = np.nonzero(inst.rates)   # row-major, and NaN counts as nonzero
    heads = np.array([f"[\n   {u},\n   " for u in _numbers(inst.users)], dtype=object)
    tps = np.array([f"{t},\n   " for t in _numbers(inst.tps)], dtype=object)
    peaks = ["\n  ],\n  "] * (4 * len(rows))   # (user, TP, rate, separator) per peak
    peaks[0::4], peaks[1::4] = heads[rows].tolist(), tps[cols].tolist()
    peaks[2::4] = _numbers(inst.rates[rows, cols].tolist())
    users = [f'{{\n   "id": {u},\n' + (f'   "rate_max": {hi},\n' if capped else "")
             + f'   "rate_min": {lo},\n   "weight": {w}\n  }}' for u, w, lo, hi, capped in zip(
                 _numbers(inst.users), _numbers(inst.weights), _numbers(inst.rate_min),
                 _numbers(inst.rate_max), np.isfinite(inst.rate_max).tolist())]
    macros = [f'{{\n   "id": {m},\n   "picos": {_array(_numbers(inst.picos_of[mid]), 3)}\n  }}'
              for mid, m in zip(inst.macros, _numbers(inst.macros))]
    blocks = {"macros": macros, "peak_rates": ["".join(peaks)[:-4]] if peaks else [],
              "users": users}   # [:-4] cuts the last separator's ",\n  "
    return "{\n" + ",\n".join(f' "{k}": {_array(v, 1)}' for k, v in blocks.items()) + "\n}"


def _numbers(values: Sequence) -> list[str]:
    """Each int or float as json's C encoder writes it: repr, NaN, Infinity."""
    return json.dumps(list(values))[1:-1].split(", ") if len(values) else []


def _array(items: list[str], depth: int) -> str:
    """A JSON array of written items, laid out as indent=1 does at this depth."""
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]" if items else "[]"


def instance_from_json(text: str) -> NetworkInstance:
    """Parse instance JSON. A missing key, a document or row of the wrong
    shape, or a rate that is not a number raises ValueError."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("instance JSON nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("instance must be a JSON object")
    users = []
    for r in _rows(doc, "users", "instance", dict):
        where = f"user {_key(r, 'id', 'user row')!r}"
        row = (r["id"], _key(r, "weight", where), r.get("rate_min", 0.0),
               r.get("rate_max", INF))
        _check_types(row[1:], (int, float), f"{where}: rate or weight", "a number")
        users.append(row)
    macros = [
        (_key(r, "id", "macro row"), _rows(r, "picos", f"macro {r['id']!r}"))
        for r in _rows(doc, "macros", "instance", dict)
    ]
    peak_users, peak_tps, rates = _peak_columns(_rows(doc, "peak_rates", "instance", list))
    _check_types(rates, (int, float), "peak rate", "a number")
    return instance_from_columns(users, macros, peak_users, peak_tps, rates)


def _key(obj: dict, name: str, where: str):
    if name not in obj:
        raise ValueError(f"{where} has no {name!r} key")
    return obj[name]


def _rows(obj: dict, name: str, where: str, kind: Optional[type] = None) -> list:
    """obj[name], which must be a JSON array of entries of the given kind."""
    rows = _key(obj, name, where)
    if not isinstance(rows, list):
        raise ValueError(f"{where}: {name!r} must be a JSON array")
    if kind is not None and set(map(type, rows)) - {kind}:
        what = "object" if kind is dict else "array"
        raise ValueError(f"{where}: each {name!r} entry must be a JSON {what}")
    return rows
