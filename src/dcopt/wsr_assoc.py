"""Weighted sum-rate user association across macro clusters.

The association value f(G) of a set of (user, pico) tuples is the sum over
macros of the optimal cluster WSR given unit budgets; users may stay
unassociated. f is normalized, non-negative and submodular over the
feasible sets (and generally non-monotone once minimum rates bind), so the
solver is a greedy stage followed by local search over swap, deletion and
addition moves, rerun on the complement ground set, best of the two kept.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .net_model import (
    Association,
    GroundSet,
    InfeasibleError,
    NetworkInstance,
    build_ground_set,
)
from .wsr_alloc import ClusterProblem, allocate_cluster

Pair = tuple[int, int]   # (user, pico)

MEMO_CAP = 200_000       # cluster values kept by SetFunctionCache (LRU)


class SetFunctionCache:
    """Memoized per-macro WSR values keyed by the exact cluster content.

    The association value decomposes across macros, so candidate moves only
    re-evaluate the one or two clusters they touch; everything else is a
    cache hit. Clusters whose users all have zero minimum and no maximum
    rate admit a closed-form optimum (full pico budget to the best weighted
    pico rate, full macro budget to the best weighted macro rate), used as
    a fast path unless disabled.
    """

    def __init__(
        self,
        inst: NetworkInstance,
        ground_set: Optional[GroundSet] = None,
        use_fast_path: bool = True,
    ):
        self.inst = inst
        self.ground_set = ground_set or build_ground_set(inst)
        self.use_fast_path = use_fast_path
        self._memo: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def macro_value(self, macro: int, pairs: tuple[Pair, ...]) -> Optional[float]:
        """Optimal cluster WSR for one macro's tuples; None if infeasible."""
        if not pairs:
            return 0.0
        key = (macro, pairs)
        got = self._memo.get(key)
        if got is not None or key in self._memo:
            self.hits += 1
            self._memo.move_to_end(key)
            return got
        self.misses += 1
        val = self._compute(macro, pairs)
        self._memo[key] = val
        if len(self._memo) > MEMO_CAP:
            self._memo.popitem(last=False)
        return val

    def _compute(self, macro: int, pairs: tuple[Pair, ...]) -> Optional[float]:
        inst = self.inst
        if self.use_fast_path and all(
            inst.rmin(u) == 0.0 and math.isinf(inst.rmax(u)) for u, _ in pairs
        ):
            best_macro = 0.0
            best_pico: dict[int, float] = {}
            for u, b in pairs:
                best_macro = max(best_macro, inst.weight(u) * inst.rate(u, macro))
                wv = inst.weight(u) * inst.rate(u, b)
                if wv > best_pico.get(b, 0.0):
                    best_pico[b] = wv
            return best_macro + sum(best_pico.values())
        pico_users: dict[int, list[int]] = {}
        for u, b in pairs:
            pico_users.setdefault(b, []).append(u)
        try:
            cl = ClusterProblem.build(inst, macro, pico_users)
            return allocate_cluster(cl).value
        except InfeasibleError:
            return None

    def value(self, pairs: Iterable[Pair]) -> Optional[float]:
        """f over an arbitrary tuple set; validates distinct users."""
        inst = self.inst
        allowed = set(self.ground_set.pairs())
        by_macro: dict[int, list[Pair]] = {}
        seen_users: set[int] = set()
        for u, b in pairs:
            if (u, b) not in allowed:
                raise ValueError(f"tuple ({u}, {b}) outside the ground set")
            if u in seen_users:
                raise ValueError(f"user {u} appears in two tuples")
            seen_users.add(u)
            by_macro.setdefault(inst.macro_of(b), []).append((u, b))
        total = 0.0
        for m in sorted(by_macro):
            v = self.macro_value(m, tuple(sorted(by_macro[m])))
            if v is None:
                return None
            total += v
        return total


def f_wsr(
    inst: NetworkInstance,
    pairs: Iterable[Pair],
    cache: Optional[SetFunctionCache] = None,
) -> Optional[float]:
    """Association set-function value; None marks an infeasible set."""
    cache = cache or SetFunctionCache(inst)
    return cache.value(pairs)


def allocation_for_pairs(inst: NetworkInstance, pairs: Iterable[Pair]):
    """Optimal per-cluster fractions realizing f over the given tuples."""
    from .net_model import AllocationFractions

    by_macro: dict[int, dict[int, list[int]]] = {}
    for u, b in sorted(pairs):
        by_macro.setdefault(inst.macro_of(b), {}).setdefault(b, []).append(u)
    fractions = AllocationFractions()
    for m in sorted(by_macro):
        cl = ClusterProblem.build(inst, m, by_macro[m])
        fractions.merge(allocate_cluster(cl).fractions)
    return fractions


def check_admission_control(
    inst: NetworkInstance, ground_set: Optional[GroundSet] = None
) -> bool:
    """True iff each macro could serve twice every candidate user's minimum
    rate from half its own budget; guarantees every ground-set subset with
    distinct users is feasible."""
    gs = ground_set or build_ground_set(inst)
    for m in inst.macros:
        users = {u for u, _ in gs.per_macro.get(m, ())}
        load = 0.0
        for u in sorted(users):
            rm = inst.rate(u, m)
            if inst.rmin(u) > 0 and rm <= 0:
                return False
            if inst.rmin(u) > 0:
                load += 2.0 * inst.rmin(u) / rm
        if load > 1.0 + 1e-12:
            return False
    return True


# -- greedy + local search -----------------------------------------------------


@dataclass
class LocalSearchParams:
    epsilon: float = 0.5
    max_iter: Optional[int] = None      # None -> 50 * |ground set|


@dataclass
class LocalSearchResult:
    association: Association
    pairs: frozenset[Pair]
    value: float
    greedy_pairs: frozenset[Pair]
    greedy_value: float
    trace: list[tuple[str, float, float]] = field(default_factory=list)


class _RunState:
    """Current set, value and per-macro decomposition during one run."""

    def __init__(self, cache: SetFunctionCache):
        self.cache = cache
        self.inst = cache.inst
        self.slices: dict[int, tuple[Pair, ...]] = {}
        self.values: dict[int, float] = {}
        self.owner: dict[int, Pair] = {}
        self.total = 0.0

    def pairs(self) -> frozenset[Pair]:
        return frozenset(self.owner.values())

    def slice_of(self, macro: int) -> tuple[Pair, ...]:
        return self.slices.get(macro, ())

    def apply(self, out: Optional[Pair], inc: Optional[Pair]) -> None:
        for pair, sign in ((out, -1), (inc, +1)):
            if pair is None:
                continue
            u, b = pair
            m = self.inst.macro_of(b)
            cur = list(self.slices.get(m, ()))
            if sign < 0:
                cur.remove(pair)
                del self.owner[u]
            else:
                cur.append(pair)
                self.owner[u] = pair
            sl = tuple(sorted(cur))
            old = self.values.get(m, 0.0)
            new = self.cache.macro_value(m, sl)
            assert new is not None, "accepted move left an infeasible cluster"
            self.slices[m] = sl
            self.values[m] = new
            self.total += new - old


def _greedy_stage(state: _RunState, omega: Sequence[Pair]) -> None:
    """Lazy greedy: repeatedly add the feasible tuple with the best positive
    marginal value. Stale heap gains are upper bounds by submodularity, so
    an entry recomputed against the current set and still on top is exact."""
    inst = state.inst
    version: dict[int, int] = {}
    heap: list[tuple[float, int, int, int]] = []
    for u, b in omega:
        m = inst.macro_of(b)
        v = state.cache.macro_value(m, tuple(sorted(state.slice_of(m) + ((u, b),))))
        if v is None:
            continue
        gain = v - state.values.get(m, 0.0)
        if gain > 0:
            heapq.heappush(heap, (-gain, u, b, version.get(m, 0)))
    while heap:
        neg, u, b, ver = heapq.heappop(heap)
        if u in state.owner:
            continue
        m = inst.macro_of(b)
        if ver != version.get(m, 0):
            v = state.cache.macro_value(
                m, tuple(sorted(state.slice_of(m) + ((u, b),)))
            )
            if v is None:
                continue
            gain = v - state.values[m]
            if gain > 0:
                heapq.heappush(heap, (-gain, u, b, version.get(m, 0)))
            continue
        if -neg <= 0:
            break
        state.apply(None, (u, b))
        version[m] = version.get(m, 0) + 1


def _local_search(
    state: _RunState,
    omega: Sequence[Pair],
    delta: float,
    max_iter: int,
    trace: list[tuple[str, float, float]],
) -> None:
    inst = state.inst
    cache = state.cache
    kind_rank = {"del": 0, "swap": 1, "add": 2}

    for _ in range(max_iter):
        threshold = delta * state.total
        best: Optional[tuple[float, int, int, int, str, Optional[Pair], Optional[Pair]]] = None

        def consider(kind: str, gain: float, out: Optional[Pair], inc: Optional[Pair]):
            nonlocal best
            u, b = inc if inc is not None else out
            key = (-gain, kind_rank[kind], u, b)
            if best is None or key < best[:4]:
                best = key + (kind, out, inc)

        current = state.pairs()
        drops: list[tuple[float, Pair]] = []
        for o in sorted(current):
            m = inst.macro_of(o[1])
            sl = tuple(p for p in state.slice_of(m) if p != o)
            v = cache.macro_value(m, sl)
            assert v is not None
            dg = v - state.values[m]
            drops.append((dg, o))
            consider("del", dg, o, None)
        drops.sort(key=lambda t: (-t[0], t[1]))

        for t in omega:
            if t in current:
                continue
            u, b = t
            m_t = inst.macro_of(b)
            own = state.owner.get(u)
            if own is None:
                sl_add = tuple(sorted(state.slice_of(m_t) + (t,)))
                av = cache.macro_value(m_t, sl_add)
                if av is not None:
                    add_gain = av - state.values.get(m_t, 0.0)
                    consider("add", add_gain, None, t)
                    # best cross-macro partner for a swap
                    for dg, o in drops:
                        if inst.macro_of(o[1]) != m_t:
                            consider("swap", add_gain + dg, o, t)
                            break
                # same-macro swaps must be evaluated jointly
                for dg, o in drops:
                    if inst.macro_of(o[1]) != m_t or o[0] == u:
                        continue
                    sl = tuple(sorted([p for p in state.slice_of(m_t) if p != o] + [t]))
                    v = cache.macro_value(m_t, sl)
                    if v is not None:
                        consider("swap", v - state.values[m_t], o, t)
            else:
                m_o = inst.macro_of(own[1])
                if m_o == m_t:
                    sl = tuple(sorted([p for p in state.slice_of(m_t) if p != own] + [t]))
                    v = cache.macro_value(m_t, sl)
                    if v is not None:
                        consider("swap", v - state.values[m_t], own, t)
                else:
                    av = cache.macro_value(m_t, tuple(sorted(state.slice_of(m_t) + (t,))))
                    if av is not None:
                        sl_o = tuple(p for p in state.slice_of(m_o) if p != own)
                        vo = cache.macro_value(m_o, sl_o)
                        assert vo is not None
                        gain = (av - state.values.get(m_t, 0.0)) + (vo - state.values[m_o])
                        consider("swap", gain, own, t)

        if best is None:
            break
        gain = -best[0]
        kind, out, inc = best[4], best[5], best[6]
        if gain < threshold or gain <= 0.0:
            break
        state.apply(out, inc)
        trace.append((kind, gain, threshold))


def _single_run(
    cache: SetFunctionCache,
    omega: Sequence[Pair],
    delta: float,
    max_iter: int,
) -> tuple[_RunState, float, frozenset[Pair], list[tuple[str, float, float]]]:
    state = _RunState(cache)
    _greedy_stage(state, omega)
    greedy_value = state.total
    greedy_pairs = state.pairs()
    trace: list[tuple[str, float, float]] = []
    _local_search(state, omega, delta, max_iter, trace)
    return state, greedy_value, greedy_pairs, trace


def local_search_associate(
    inst: NetworkInstance,
    params: Optional[LocalSearchParams] = None,
) -> LocalSearchResult:
    """Greedy-seeded local search for the WSR association problem.

    Runs greedy plus local search on the full ground set, then again on the
    complement of the first result, and returns the better of the two; the
    local-search acceptance threshold scales with epsilon / |ground set|^4.
    """
    params = params or LocalSearchParams()
    gs = build_ground_set(inst)
    cache = SetFunctionCache(inst, gs)
    omega = sorted(gs.pairs())
    if not omega:
        return LocalSearchResult(
            association=Association(pairs={u: None for u in inst.users}),
            pairs=frozenset(),
            value=0.0,
            greedy_pairs=frozenset(),
            greedy_value=0.0,
        )
    delta = params.epsilon / float(len(omega) ** 4)
    max_iter = params.max_iter if params.max_iter is not None else 50 * len(omega)

    first, greedy_value, greedy_pairs, trace1 = _single_run(
        cache, omega, delta, max_iter
    )
    taken = first.pairs()
    rest = [t for t in omega if t not in taken]
    second, _, _, trace2 = _single_run(cache, rest, delta, max_iter)
    winner = first if first.total >= second.total else second

    assoc = {u: None for u in inst.users}
    for u, b in sorted(winner.pairs()):
        assoc[u] = (inst.macro_of(b), b)
    return LocalSearchResult(
        association=Association(pairs=assoc),
        pairs=winner.pairs(),
        value=winner.total,
        greedy_pairs=greedy_pairs,
        greedy_value=greedy_value,
        trace=trace1 + trace2,
    )
