"""Spans around the public functions of each dcopt layer, recorded from outside.

The tracer replaces every module-level reference to a traced function inside
the loaded ``dcopt`` modules with a timing wrapper, so calls made through
``from .x import f`` bindings are caught as well as direct ones. The library
itself is not modified; ``uninstall`` puts the original functions back.

A span is ``[id, name, start, end, parent, op]``: ``parent`` is the id of the
enclosing span (``None`` at the top) and ``op`` is the id of the root span of
the CLI call it belongs to. Spans are kept in memory and written once, by the
caller, when the benchmark ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs timed as layer boundaries, named "module.function"
TARGETS = (
    ("scenario", "generate"),
    ("scenario", "max_sinr_baseline"),
    ("scenario", "rate_metrics"),
    ("net_model", "instance_from_json"),
    ("net_model", "build_ground_set"),
    ("net_model", "compute_user_rates"),
    ("wsr_alloc", "allocate_cluster"),
    ("wsr_assoc", "local_search_associate"),
    ("pf_assoc", "staged_pf_associate"),
    ("pf_assoc", "single_tp_pf_solve"),
    ("pf_assoc", "dc_pf_value"),
    ("pf_alloc", "pf_bisection"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.residual_max = 0.0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._caches: list = []          # SetFunctionCache objects not yet read
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs, after=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        op = self._stack[0] if self._stack else sid
        span = [sid, name, time.perf_counter(), None, parent, op]
        self.spans.append(span)
        self._stack.append(sid)
        try:
            out = fn(*args, **kwargs)
        except Exception as e:
            self.counts[f"{name}.raised.{type(e).__name__}"] += 1
            raise
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        if after is not None:
            after(out)
        return out

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Summed duration, summed self time and call count per span name."""
        dur: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        calls: Counter = Counter()
        for sid, name, start, end, parent, _ in self.spans:
            d = end - start
            dur[name] += d
            calls[name] += 1
            if parent is not None:
                child[parent] += d
        self_t: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            self_t[name] += (end - start) - child[sid]
        return dur, self_t, calls

    # -- installation -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        import dcopt  # noqa: F401  (loads every submodule)

        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "dcopt" or n.startswith("dcopt."))]
        for mod_name, fn_name in TARGETS:
            mod = sys.modules.get(f"dcopt.{mod_name}")
            orig = getattr(mod, fn_name, None)
            if orig is None:
                if f"{mod_name}.{fn_name}" not in self.missing:
                    self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrapper(f"{mod_name}.{fn_name}", orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._restore.append((m, attr, orig))
                        setattr(m, attr, wrapper)

        cache_cls = getattr(sys.modules["dcopt.wsr_assoc"], "SetFunctionCache", None)
        if cache_cls is None:
            if "wsr_assoc.SetFunctionCache" not in self.missing:
                self.missing.append("wsr_assoc.SetFunctionCache")
            return
        orig_init = cache_cls.__init__
        caches = self._caches

        def init(obj, *a, **k):
            orig_init(obj, *a, **k)
            caches.append(obj)

        self._restore.append((cache_cls, "__init__", orig_init))
        cache_cls.__init__ = init

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _wrapper(self, name: str, fn):
        after = {
            "net_model.build_ground_set": self._after_ground_set,
            "wsr_assoc.local_search_associate": self._after_local_search,
            "pf_alloc.pf_bisection": self._after_bisection,
        }.get(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return self.call(name, fn, args, kwargs, after)

        return wrapped

    # -- counters read at the layer boundaries -------------------------------

    def _after_ground_set(self, gs) -> None:
        self.counts["ground_set_size"] += len(gs)

    def _after_local_search(self, res) -> None:
        self.counts["ls_moves"] += len(res.trace)
        for cache in self._caches:
            self.counts["cache_hits"] += cache.hits
            self.counts["cache_misses"] += cache.misses
        self._caches.clear()   # drop the memo tables as soon as they are read

    def _after_bisection(self, sol) -> None:
        self.residual_max = max(self.residual_max, float(sol.residual))
