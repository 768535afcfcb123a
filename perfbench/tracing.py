"""Layer tracing from outside the library.

The tracer wraps public functions of the ``aql`` modules, records one span
per call (function, item, start, end, parent span) in memory, and derives
per-function call counts and self times from the spans.  ``HalfInt`` and
friends are too hot to time, so their class attributes are patched for call
counts only.  ``lru_cache`` statistics are read from ``cache_info()``
without wrapping the cached functions.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, function, measure) for every timed function; `measure` turns the
# result into an extra count recorded under "<module>.<function>.<name>".
TIMED: Tuple[Tuple[str, str, Optional[Tuple[str, Callable]]], ...] = (
    ("parabolic", "inf_char_aq", None),
    ("parabolic", "lowest_k_type", None),
    ("parabolic", "k_types_bounded", ("cone_points", len)),
    ("parabolic", "algebra_from_pair", None),
    ("parabolic", "enumerate_standard", None),
    ("parabolic", "enumerate_packet", ("members", len)),
    ("arthur", "psi_lambda_q", None),
    ("arthur", "theta_lift_param", None),
    ("thetalift", "build_source", None),
    ("thetalift", "verify_parameter_identity", None),
    ("thetalift", "verify_inf_char", None),
    ("thetalift", "verify_k_type", None),
    ("thetalift", "verify_min_degree", None),
    ("thetalift", "full_report", None),
    ("partitions", "enumerate_compatible", ("kept", len)),
    ("partitions", "is_compatible", None),
    ("convergence", "is_convergent", None),
    ("convergence", "atlas", None),
    ("cli", "run", None),
)

# (module, class, attribute) patched for call counts only.
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("halfint", "HalfInt", "from_twice"),
    ("halfint", "Weight", "__add__"),
    ("halfint", "CharMultiset", "__init__"),
)


def aql_modules() -> List[object]:
    return [m for n, m in list(sys.modules.items()) if n == "aql" or n.startswith("aql.")]


def lru_caches() -> Dict[str, Callable]:
    """Every ``lru_cache`` reachable from an ``aql`` module, by defining name."""
    found = {}
    for mod in aql_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_info", None)) and callable(
                getattr(value, "cache_clear", None)
            ):
                module = value.__module__.removeprefix("aql.")
                found[f"{module}.{value.__qualname__}"] = value
    return found


def clear_caches() -> None:
    for fn in lru_caches().values():
        fn.cache_clear()


def cache_counts() -> Dict[str, Tuple[int, int]]:
    return {name: fn.cache_info()[:2] for name, fn in lru_caches().items()}


class CacheDelta:
    """Accumulates lru_cache hits and misses over the measured stretches.
    Clear the caches before ``start`` when a stretch must begin cold."""

    def __init__(self):
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()
        self._before: Dict[str, Tuple[int, int]] = {}

    def start(self) -> None:
        self._before = cache_counts()

    def stop(self) -> None:
        for name, (hits, misses) in cache_counts().items():
            h0, m0 = self._before.get(name, (0, 0))
            self.hits[name] += hits - h0
            self.misses[name] += misses - m0

    def metrics(self) -> Dict[str, float]:
        out = {}
        for name in set(self.hits) | set(self.misses):
            h, m = self.hits[name], self.misses[name]
            out[f"{name}.hits"] = h
            out[f"{name}.misses"] = m
            out[f"{name}.hit_ratio"] = h / (h + m) if h + m else 0.0
        return out


class Tracer:
    """Records spans around the TIMED functions and counts the COUNTED ones."""

    def __init__(self):
        self.names: List[str] = []
        self.spans: list = []
        self.counts: Counter = Counter()
        self.item = -1
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._undo: list = []

    def _index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _timed(self, idx: int, fn: Callable, measure) -> Callable:
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts
        extra = f"{self.names[idx]}.{measure[0]}" if measure else None

        def wrapper(*args, **kwargs):
            pos = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(pos)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[pos] = (idx, self.item, start, end, parent)
            if extra:
                counts[extra] += measure[1](result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Patch every aql namespace that holds a TIMED function, so that
        calls through a name imported into another module are seen too."""
        modules = aql_modules()
        for module, func, measure in TIMED:
            home = sys.modules.get(f"aql.{module}")
            original = getattr(home, func, None)
            if original is None:
                if f"{module}.{func}" not in self.missing:
                    self.missing.append(f"{module}.{func}")
                continue
            wrapper = self._timed(self._index(f"{module}.{func}"), original, measure)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))
        for module, cls_name, attr in COUNTED:
            cls = getattr(sys.modules.get(f"aql.{module}"), cls_name, None)
            raw = cls.__dict__.get(attr) if cls is not None else None
            if raw is None:
                if f"{module}.{cls_name}.{attr}" not in self.missing:
                    self.missing.append(f"{module}.{cls_name}.{attr}")
                continue
            name = f"{module}.{cls_name}.{attr}.calls"
            if isinstance(raw, classmethod):
                patched = classmethod(self._counted(name, raw.__func__))
            else:
                patched = self._counted(name, raw)
            setattr(cls, attr, patched)
            self._undo.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextlib.contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def metrics(self) -> Dict[str, float]:
        """Per function: calls, total span time and self time (span time
        minus the time covered by its direct child spans)."""
        child = [0.0] * len(self.spans)
        for idx, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        total = Counter()
        self_s = Counter()
        for pos, (idx, _, start, end, _) in enumerate(self.spans):
            calls[idx] += 1
            total[idx] += end - start
            self_s[idx] += end - start - child[pos]
        out: Dict[str, float] = dict(self.counts)
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[idx]
            out[f"{name}.total_s"] = total[idx]
            out[f"{name}.self_s"] = self_s[idx]
        return out

    def write(self, path) -> None:
        """Dump the spans as tab-separated lines: name, item, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\titem\tstart\tend\tparent\n")
            for idx, item, start, end, parent in self.spans:
                fh.write(f"{self.names[idx]}\t{item}\t{start:.9f}\t{end:.9f}\t{parent}\n")
