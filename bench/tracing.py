"""Per-layer counters and timers for the traced run.

:class:`Tracer` replaces the functions each graphcanon module imports from
the others with counting timers, keyed by the layer that owns the function
and the module that calls it. A name missing from its module is an error,
never a silent skip: the counter it fed would read 0 and look like a gain.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# (calling module, imported name) -> counter key
WRAPPED = {
    ("graphcanon.search", "make_equitable"): "refine.search",
    ("graphcanon.emitter", "make_equitable"): "refine.emitter",
    ("graphcanon.search", "hash_colored"): "invariant.search",
    ("graphcanon.emitter", "hash_colored"): "invariant.emitter",
    ("graphcanon.checker", "hash_colored"): "invariant.checker",
    # core's own global is the one is_automorphism calls.
    ("graphcanon.core", "relabel_graph"): "relabel.core",
    ("graphcanon.search", "relabel_graph"): "relabel.search",
    ("graphcanon.emitter", "relabel_graph"): "relabel.emitter",
    ("graphcanon.checker", "relabel_graph"): "relabel.checker",
    ("graphcanon.cli", "relabel_graph"): "relabel.cli",
    ("graphcanon.checker", "split"): "checker.split",
    ("graphcanon.checker", "is_automorphism"): "checker.is_automorphism",
    ("graphcanon.emitter", "canonical_form"): "emitter.canonical_form",
}


class TraceError(RuntimeError):
    """A function the tracer must wrap is gone from its module."""


class Tracer:
    """Counts calls and accumulates seconds per key while installed."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.seconds: Counter[str] = Counter()
        self.automorphisms: set[tuple[int, ...]] = set()
        self._saved: list[tuple[object, str, object]] = []

    def seconds_under(self, prefix: str) -> float:
        return sum(s for k, s in self.seconds.items() if k.startswith(prefix))

    def calls_under(self, prefix: str) -> int:
        return sum(c for k, c in self.calls.items() if k.startswith(prefix))

    def _timed(self, key: str, fn):
        calls, seconds = self.calls, self.seconds

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += time.perf_counter() - t0
                calls[key] += 1

        return wrapper

    def _automorphism_probe(self, fn):
        found = self.automorphisms

        def wrapper(g, pi0, sigma):
            ok = fn(g, pi0, sigma)
            if ok:
                found.add(tuple(sigma))
            return ok

        return wrapper

    def __enter__(self) -> "Tracer":
        missing = []
        targets = []
        for (module_name, name), key in WRAPPED.items():
            module = importlib.import_module(module_name)
            if not hasattr(module, name):
                missing.append(f"{module_name}.{name}")
                continue
            targets.append((module, name, key))
        if missing:
            raise TraceError("cannot trace missing names: " + ", ".join(missing))
        for module, name, key in targets:
            original = getattr(module, name)
            wrapped = original
            if key == "checker.is_automorphism":
                wrapped = self._automorphism_probe(wrapped)
            self._saved.append((module, name, original))
            setattr(module, name, self._timed(key, wrapped))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
