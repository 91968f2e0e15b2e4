"""Full-rescan reference for the WSR greedy + local search.

The library keeps move gains across scans, rescoring only the macros and
users a move touched and screening closed-form moves in numpy. This module
keeps the plain version it must match bit for bit: a cache whose closed
form reads every rate through the instance, a greedy stage that scores each
singleton through the cache, and a local search that re-scores every
candidate of the ground set on every scan.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional, Sequence

from dcopt import wsr_assoc
from dcopt.wsr_assoc import Pair, SetFunctionCache, _RunState


class ReferenceCache(SetFunctionCache):
    def _compute(self, macro, pairs):
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
        return super()._compute(macro, pairs)


def greedy_stage(state: _RunState, omega: Sequence[Pair]) -> None:
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


def local_search(
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
                    for dg, o in drops:
                        if inst.macro_of(o[1]) != m_t:
                            consider("swap", add_gain + dg, o, t)
                            break
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


def reference_associate(monkeypatch, inst, params=None):
    """`local_search_associate` run on the reference cache, greedy and scan."""
    with monkeypatch.context() as mp:
        mp.setattr(wsr_assoc, "SetFunctionCache", ReferenceCache)
        mp.setattr(wsr_assoc, "_greedy_stage", greedy_stage)
        mp.setattr(wsr_assoc, "_local_search", local_search)
        return wsr_assoc.local_search_associate(inst, params)
