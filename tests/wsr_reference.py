"""Plain references for the WSR cluster allocator and local search.

The library shares per-pico allocator work between clusters, keeps move
gains across scans, rescoring only the macros and users a move touched, and
screens closed-form moves in numpy. This module keeps the plain versions it
must match bit for bit: an allocator that rebuilds every pico's data, start
point and segments per call from `inst.*` reads, a cache whose closed form
reads every rate through the instance and which values one-tuple clusters
like any other (not from the library's precomputed array), a greedy stage
that scores each singleton through the cache, and a local search that
re-scores every candidate of the ground set on every scan. The library names
a tuple by its ground-set position; the greedy stage and the local search
here work in (user, pico) pairs and break ties by pair, and use positions
only where they call the library.
"""

from __future__ import annotations

import heapq
import math
from types import SimpleNamespace
from typing import Optional, Sequence

from dcopt import AllocationFractions, InfeasibleError, wsr_assoc
from dcopt.wsr_alloc import (
    RES_TOL, SlopeCurve, _apply_event, _apply_move, _initial_state, _trace_segments,
)
from dcopt.wsr_assoc import Pair, SetFunctionCache, _RunState


class _View:
    """One pico's users and their data, read through the instance."""

    def __init__(self, cl, b):
        inst = cl.inst
        self.uid = list(cl.pico_users[b])
        self.w = [inst.weight(u) for u in self.uid]
        self.r1 = [inst.rate(u, cl.macro) for u in self.uid]
        self.rb = [inst.rate(u, b) for u in self.uid]
        self.rmin = [inst.rmin(u) for u in self.uid]
        self.rmax = [inst.rmax(u) for u in self.uid]
        self.budget = cl.pico_budgets[b]


def reference_allocate(cl):
    """allocate_cluster rebuilt per call: value, fractions and curve as
    attributes; raises InfeasibleError likewise. Also checks the
    label order of `cl` against the pico/macro ratio sort key."""
    inst = cl.inst
    picos = sorted(cl.pico_users)
    for b in picos:
        by_ratio = sorted(cl.pico_users[b],
                          key=lambda u: (-inst.rate(u, b) / inst.rate(u, cl.macro), u))
        assert tuple(by_ratio) == tuple(cl.pico_users[b])
    views = {b: _View(cl, b) for b in picos}
    inits = {b: _initial_state(views[b]) for b in picos}
    total_need = sum(inits[b][1] for b in picos)
    if total_need > cl.macro_budget + RES_TOL:
        raise InfeasibleError("macro budget below total minimum need")
    traced = {b: _trace_segments(views[b], inits[b][0].clone(), 1.0 - inits[b][1])
              for b in picos}
    # the merge reads segments; the replay also applies zero-width events
    streams = {b: [s for s in traced[b] if s[0] is not None] for b in picos}
    curve = SlopeCurve(
        start=total_need,
        base_value=sum(sum(w * r for w, r in zip(views[b].w, views[b].rmin)) + inits[b][2]
                       for b in picos),
    )
    heads = {b: 0 for b in picos}
    taken = {b: 0.0 for b in picos}
    budget_left = max(cl.macro_budget - total_need, 0.0)
    domain_left = max(1.0 - total_need, 0.0)
    while domain_left > RES_TOL:
        pick = None
        for b in picos:
            if heads[b] < len(streams[b]) and (
                    pick is None or streams[b][heads[b]][0] > streams[pick][heads[pick]][0]):
                pick = b
        if pick is None:
            break
        slope, width, _, _ = streams[pick][heads[pick]]
        take = min(width, domain_left)
        curve.widths.append(take)
        curve.slopes.append(slope)
        if budget_left > RES_TOL:
            spend = min(take, budget_left)
            taken[pick] += spend
            budget_left -= spend
        domain_left -= take
        heads[pick] += 1

    fractions = AllocationFractions()
    value = 0.0
    for b in picos:
        st = inits[b][0]
        p = views[b]
        left = taken[b]
        for slope, width, i, ib in traced[b]:
            if slope is None:
                _apply_event(p, st, (slope, i, ib), width)
                continue
            t = min(width, left)
            if t > 0.0:
                _apply_move(p, st, (slope, i, ib), t)
                left -= t
            if left <= RES_TOL:
                break
        value += sum(w * r for w, r in zip(p.w, st.rate))
        for i, u in enumerate(p.uid):
            if st.theta[i] > 0.0:
                fractions.theta[(u, cl.macro)] = st.theta[i]
            if st.gamma[i] > 0.0:
                fractions.gamma[(u, b)] = st.gamma[i]
    return SimpleNamespace(value=value, fractions=fractions, curve=curve)


class ReferenceCache(SetFunctionCache):
    def __init__(self, inst):
        super().__init__(inst)
        self._values = {}

    def macro_value(self, sl, out=None, inc=None):
        """A plain memo over the edited slice, built here as a sorted tuple
        and valued from scratch: one-tuple clusters go through `_compute`
        like any other, so allocate_cluster values them, not the cache's
        `single`, and no kept cluster is edited."""
        ts = tuple(sorted([p for p in sl if p != out] + ([] if inc is None else [inc])))
        if not ts:
            return 0.0
        if ts in self._values:
            self.hits += 1
            return self._values[ts]
        self.misses += 1
        value = self._values[ts] = self._compute(ts)
        return value

    def _compute(self, ts):
        inst = self.inst
        pairs = [self.ground_set[t] for t in ts]
        if all(
            inst.rmin(u) == 0.0 and math.isinf(inst.rmax(u)) for u, _ in pairs
        ):
            macro = inst.pico_macro[pairs[0][1]]
            best_macro = 0.0
            best_pico: dict[int, float] = {}
            for u, b in pairs:
                best_macro = max(best_macro, inst.weight(u) * inst.rate(u, macro))
                wv = inst.weight(u) * inst.rate(u, b)
                if wv > best_pico.get(b, 0.0):
                    best_pico[b] = wv
            return best_macro + sum(best_pico.values())
        try:   # read through the module, so a test's patch of the allocator applies
            return wsr_assoc.allocate_cluster(self._prepare(ts)).value
        except InfeasibleError:
            return None


class _InPairs:
    """A run state read and changed in (user, pico) pairs and macro ids: the
    reference searches in pairs, breaks ties by pair, and names tuples by
    ground-set position only where it calls the library."""

    def __init__(self, state: _RunState):
        self.state, self.cache, self.inst = state, state.cache, state.cache.inst
        self.row = {m: j for j, m in enumerate(self.inst.macros)}
        self.at = {p: t for t, p in enumerate(self.cache.ground_set)}

    def slice_of(self, m: int) -> tuple[Pair, ...]:
        return tuple(self.cache.ground_set[t] for t in self.state.slices[self.row[m]])

    def value_of(self, m: int) -> float:
        return self.state.values[self.row[m]]

    def owner(self, u: int) -> Optional[Pair]:
        t = self.state.owner[self.inst._uidx[u]]
        return None if t < 0 else self.cache.ground_set[t]

    def f(self, pairs) -> Optional[float]:
        """The cache's value of one macro's tuples."""
        return self.cache.macro_value(tuple(sorted(self.at[p] for p in pairs)))

    def apply(self, out: Optional[Pair], inc: Optional[Pair]) -> None:
        at = self.at
        self.state.apply(None if out is None else at[out], None if inc is None else at[inc])


def greedy_stage(state: _RunState, omega: Sequence[int]) -> None:
    run = _InPairs(state)
    inst = run.inst
    version: dict[int, int] = {}
    heap: list[tuple[float, int, int, int]] = []
    for u, b in (run.cache.ground_set[t] for t in omega):
        m = inst.pico_macro[b]
        v = run.f(run.slice_of(m) + ((u, b),))
        if v is None:
            continue
        gain = v - run.value_of(m)
        if gain > 0:
            heapq.heappush(heap, (-gain, u, b, version.get(m, 0)))
    while heap:
        neg, u, b, ver = heapq.heappop(heap)
        if run.owner(u) is not None:
            continue
        m = inst.pico_macro[b]
        if ver != version.get(m, 0):
            v = run.f(run.slice_of(m) + ((u, b),))
            if v is None:
                continue
            gain = v - run.value_of(m)
            if gain > 0:
                heapq.heappush(heap, (-gain, u, b, version.get(m, 0)))
            continue
        if -neg <= 0:
            break
        run.apply(None, (u, b))
        version[m] = version.get(m, 0) + 1


def local_search(
    state: _RunState,
    omega: Sequence[int],
    delta: float,
    max_iter: int,
    trace: list[tuple[str, float, float]],
) -> bool:
    """Full-rescan local search; True when it stops at max_iter moves with
    an improving move left."""
    run = _InPairs(state)
    inst = run.inst
    kind_rank = {"del": 0, "swap": 1, "add": 2}

    for it in range(max_iter + 1):
        threshold = max(delta, wsr_assoc._GAIN_FLOOR) * state.total
        best: Optional[tuple] = None

        def consider(kind: str, gain: float, out: Optional[Pair], inc: Optional[Pair]):
            nonlocal best
            u, b = inc if inc is not None else out
            key = (-gain, kind_rank[kind], u, b)
            if best is None or key < best[:4]:
                best = key + (kind, out, inc)

        current = state.pairs()
        drops: list[tuple[float, Pair]] = []
        for o in sorted(current):
            m = inst.pico_macro[o[1]]
            v = run.f(p for p in run.slice_of(m) if p != o)
            assert v is not None
            dg = v - run.value_of(m)
            drops.append((dg, o))
            consider("del", dg, o, None)
        drops.sort(key=lambda t: (-t[0], t[1]))

        for t in (run.cache.ground_set[k] for k in omega):
            if t in current:
                continue
            u, b = t
            m_t = inst.pico_macro[b]
            own = run.owner(u)
            if own is None:
                av = run.f(run.slice_of(m_t) + (t,))
                if av is not None:
                    add_gain = av - run.value_of(m_t)
                    consider("add", add_gain, None, t)
                    for dg, o in drops:
                        if inst.pico_macro[o[1]] != m_t:
                            consider("swap", add_gain + dg, o, t)
                            break
                for dg, o in drops:
                    if inst.pico_macro[o[1]] != m_t or o[0] == u:
                        continue
                    v = run.f([p for p in run.slice_of(m_t) if p != o] + [t])
                    if v is not None:
                        consider("swap", v - run.value_of(m_t), o, t)
            else:
                m_o = inst.pico_macro[own[1]]
                if m_o == m_t:
                    v = run.f([p for p in run.slice_of(m_t) if p != own] + [t])
                    if v is not None:
                        consider("swap", v - run.value_of(m_t), own, t)
                else:
                    av = run.f(run.slice_of(m_t) + (t,))
                    if av is not None:
                        vo = run.f(p for p in run.slice_of(m_o) if p != own)
                        assert vo is not None
                        gain = (av - run.value_of(m_t)) + (vo - run.value_of(m_o))
                        consider("swap", gain, own, t)

        if best is None:
            return False
        gain = -best[0]
        kind, out, inc = best[4], best[5], best[6]
        if gain < threshold or gain <= 0.0:
            return False
        if it == max_iter:
            return True
        run.apply(out, inc)
        trace.append((kind, gain, threshold))
    return False


def reference_associate(monkeypatch, inst, **params):
    """`local_search_associate` run on the reference cache, greedy and scan."""
    with monkeypatch.context() as mp:
        mp.setattr(wsr_assoc, "SetFunctionCache", ReferenceCache)
        mp.setattr(wsr_assoc, "_greedy_stage", greedy_stage)
        mp.setattr(wsr_assoc, "_local_search", local_search)
        return wsr_assoc.local_search_associate(inst, **params)
