"""Per-layer tracing of the engine from outside.

``Tracer.install()`` wraps every public function of the engine modules and
rebinds the wrapper in *every* ``finsemi`` module that holds the original
object, so calls through ``from .homs import enumerate_homs`` are seen as
well as calls through ``homs.enumerate_homs``.  No engine file is changed.

Each wrapped call is a span.  A span's self time is its duration minus the
time covered by its child spans; ``total_s`` counts only the outermost
active call of a function, so recursion is not counted twice.  Tiny
helpers that run millions of times are not wrapped; their time lands in
the self time of the caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

ENGINE_MODULES = ("core", "homs", "summands", "semisimple", "projinj", "auditor")

# Bit-set helpers: `bits` alone runs ~14M times in the fixtures workload.
TINY = frozenset({"bits", "mask_of", "full_mask"})

# Named counts taken from a function's return value.
RESULT_COUNTS = {
    "core.enumerate_congruences": ("found", len),
    "auditor.enumerate_semirings": ("found", len),
    "homs.enumerate_homs": ("maps", len),
    "projinj.hom_monoid": ("cells", lambda result: result[0].order ** 2),
}

# Functions whose per-call durations are kept for percentiles.
KEEP_DURATIONS = frozenset({"auditor.audit_instance"})


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "active", "count", "durations")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.active = 0
        self.count = 0
        self.durations = []


def engine_modules() -> dict:
    return {name: importlib.import_module(f"finsemi.{name}") for name in ENGINE_MODULES}


def finsemi_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "finsemi" or name.startswith("finsemi."))]


def traceable(module) -> dict:
    """Public functions defined in ``module``, tiny helpers excepted."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or name in TINY or isinstance(obj, type):
            continue
        if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
            out[name] = obj
    return out


def caches() -> dict:
    """Every lru_cache found in the loaded ``finsemi`` modules, by function name."""
    found = {}
    for mod in finsemi_modules():
        for obj in vars(mod).values():
            obj = getattr(obj, "_traced_original", obj)
            if callable(getattr(obj, "cache_info", None)):
                found[obj.__name__] = obj
    return dict(sorted(found.items()))


def cache_metrics() -> dict:
    out = {}
    for name, fn in caches().items():
        info = fn.cache_info()
        lookups = info.hits + info.misses
        out[f"cache.{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out[f"cache.{name}.currsize"] = info.currsize
    return out


def clear_caches() -> None:
    for fn in caches().values():
        fn.cache_clear()


class Tracer:
    """Spans and counts for the public engine functions, keyed
    ``<module>.<function>``."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        # (parent key, child key) -> number of calls
        self.edges: dict[tuple[str, str], int] = {}
        self._stack: list[list] = []  # [key, time covered by children]
        self._rebound: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for mod_name, mod in engine_modules().items():
            for fn_name, fn in traceable(mod).items():
                key = f"{mod_name}.{fn_name}"
                self.stats[key] = _Stat()
                wrappers[id(fn)] = self._wrap(key, fn)
        for mod in finsemi_modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._rebound.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._rebound):
            setattr(mod, attr, obj)
        self._rebound.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, key: str, fn):
        st = self.stats[key]
        stack = self._stack
        edges = self.edges
        counter = RESULT_COUNTS.get(key)
        keep = key in KEEP_DURATIONS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            edges[parent, key] = edges.get((parent, key), 0) + 1
            frame = [key, 0.0]
            stack.append(frame)
            st.active += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                st.active -= 1
                st.calls += 1
                st.self_s += dur - frame[1]
                if not st.active:
                    st.total_s += dur
                if keep:
                    st.durations.append(dur)
                if stack:
                    stack[-1][1] += dur
            if counter is not None:
                st.count += counter[1](result)
            return result

        traced._traced_original = fn
        return traced

    def calls_from(self, parent: str, child: str) -> int:
        return self.edges.get((parent, child), 0)

    def module_self_s(self) -> dict:
        out = {name: 0.0 for name in ENGINE_MODULES}
        for key, st in self.stats.items():
            out[key.split(".", 1)[0]] += st.self_s
        return out

    def metrics(self) -> dict:
        """Flat ``<module>.<function>.<stat>`` metrics, plus module self time."""
        out = {}
        for key, st in sorted(self.stats.items()):
            out[f"{key}.calls"] = st.calls
            out[f"{key}.self_s"] = st.self_s
            out[f"{key}.total_s"] = st.total_s
            if key in RESULT_COUNTS:
                out[f"{key}.{RESULT_COUNTS[key][0]}"] = st.count
            if key in KEEP_DURATIONS:
                out.update({f"{key}.{k}": v for k, v in percentiles(st.durations).items()})
        closures = self.calls_from("core.enumerate_congruences", "core.congruence_closure")
        found = self.stats["core.enumerate_congruences"].count
        out["core.enumerate_congruences.closures"] = closures
        out["core.enumerate_congruences.found_per_closure"] = found / closures if closures else 0.0
        for mod, self_s in self.module_self_s().items():
            out[f"{mod}.self_s"] = self_s
        return out


def percentiles(durations: list[float]) -> dict:
    """Nearest-rank p50, p90 and max; zeros when nothing was recorded."""
    if not durations:
        return {"p50_s": 0.0, "p90_s": 0.0, "max_s": 0.0}
    ds = sorted(durations)

    def rank(p: int) -> float:
        return ds[max(0, -(-len(ds) * p // 100) - 1)]

    return {"p50_s": rank(50), "p90_s": rank(90), "max_s": ds[-1]}
