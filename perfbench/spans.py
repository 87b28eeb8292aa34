"""Outside-in tracing of gpspec's layers, installed from the benchmark.

`install()` wraps the public functions listed in LAYERS by rebinding every
`gpspec.*` module attribute that refers to them, wraps the named methods on
their classes, every `harness.Context` cached property and every catalog
check.  Nothing under `src/` is edited.

Each wrapper keeps a span stack: a call's self time is its duration minus
the time spent in wrapped calls it made.  Counters record deterministic
facts (calls, cache hits read from `cache_info()` deltas, sizes of results),
so that two traced runs on the same inputs give identical counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# metric prefix -> (module, attribute path); a dotted path names a method
LAYERS = {
    "intlinalg.hnf": ("gpspec.intlinalg", "hermite_normal_form"),
    "intlinalg.snf": ("gpspec.intlinalg", "smith_normal_form"),
    "intlinalg.lattice_contains": ("gpspec.intlinalg", "lattice_contains"),
    "intlinalg.order_in_quotient": ("gpspec.intlinalg", "element_order_in_quotient"),
    "numtheory.divisors": ("gpspec.numtheory", "divisors"),
    "numtheory.factorize": ("gpspec.numtheory", "factorize"),
    "numtheory.is_prime": ("gpspec.numtheory", "is_prime"),
    "algebra.enumerate_submodules": ("gpspec.algebra", "enumerate_submodules"),
    "algebra.colon": ("gpspec.algebra", "GradedSubmodule.colon"),
    "algebra.quotient_invariants": ("gpspec.algebra", "GradedSubmodule.quotient_invariants"),
    "algebra.quotient_module": ("gpspec.algebra", "quotient_module"),
    "spectra.is_graded_prime": ("gpspec.spectra", "is_graded_prime"),
    "spectra.is_graded_primary": ("gpspec.spectra", "is_graded_primary"),
    "spectra.graded_radical": ("gpspec.spectra", "graded_radical"),
    "spectra.in_primary_spectrum": ("gpspec.spectra", "in_primary_spectrum"),
    "spectra.spectrum_points": ("gpspec.spectra", "spectrum_points"),
    "spectra.is_multiplication": ("gpspec.spectra", "is_multiplication"),
    "topology.build_space": ("gpspec.topology", "build_space"),
    "topology.variety": ("gpspec.topology", "variety"),
    "topology.closure": ("gpspec.topology", "closure"),
    "topology.analyze_space": ("gpspec.topology", "analyze_space"),
    "maps.analyze_natural_map": ("gpspec.maps", "analyze_natural_map"),
    "maps.induced_apply": ("gpspec.maps", "InducedSpectrumMap.apply"),
    "harness.run_checks": ("gpspec.harness", "run_checks"),
    "dsl.parse_model": ("gpspec.dsl", "parse_model"),
    "dsl.to_json_text": ("gpspec.dsl", "to_json_text"),
    "cli.run": ("gpspec.cli", "run"),
}


# Layers reported by call count only: their time stays in the caller's self
# time, so the BFS containment tests count as enumeration.
COUNT_ONLY = {
    "intlinalg.lattice_contains",
    "intlinalg.order_in_quotient",
    "algebra.quotient_invariants",
    "topology.closure",
}


def _after_enumerate(tracer, name, result):
    tracer.count(f"{name}.submodules", len(result))


def _after_radical(tracer, name, result):
    for strategy in result.strategies:
        tracer.count(f"{name}.strategy.{strategy}")
    if result.status == "unknown":
        tracer.count(f"{name}.unknown")


def _after_space(tracer, name, result):
    tracer.count(f"{name}.points", len(result.points))
    tracer.count(f"{name}.closed_sets", len(result.closed_masks))


AFTER = {
    "algebra.enumerate_submodules": _after_enumerate,
    "spectra.graded_radical": _after_radical,
    "topology.build_space": _after_space,
}


class Tracer:
    """Span stack, per-name call counts and self times, and counters."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.missing = []
        self._stack = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap(self, name, fn, after=None):
        stack, calls, self_s, total_s = self._stack, self.calls, self.self_s, self.total_s
        info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hits = info().hits if info else 0
            child = [0.0]
            stack.append(child)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - child[0]
                total_s[name] += dur
                if stack:
                    stack[-1][0] += dur
            if info and info().hits > hits:
                self.count(f"{name}.hits")
            if after:
                after(self, name, result)
            return result

        return wrapper

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "missing": list(self.missing),
        }


def _rebind(old, new) -> None:
    """Point every gpspec.* module attribute that refers to `old` at `new`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "gpspec" or modname.startswith("gpspec.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install() -> Tracer:
    """Wrap every layer listed in LAYERS, the Context cached properties and
    the catalog checks; return the tracer that collects their spans."""
    tracer = Tracer()
    importlib.import_module("gpspec.cli")  # loads every gpspec module
    for name, (modname, path) in LAYERS.items():
        mod = sys.modules[modname]
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        fn = getattr(owner, attr, None)
        if fn is None:
            tracer.missing.append(name)
            continue
        if name in COUNT_ONLY:
            wrapped = tracer.counter(name, fn)
        else:
            wrapped = tracer.wrap(name, fn, AFTER.get(name))
        if owner_name:
            setattr(owner, attr, wrapped)
        else:
            _rebind(fn, wrapped)
    _install_harness(tracer)
    return tracer


def _install_harness(tracer: Tracer) -> None:
    harness = sys.modules["gpspec.harness"]
    ctx_cls = harness.Context
    for attr, prop in list(vars(ctx_cls).items()):
        if isinstance(prop, functools.cached_property):
            new = functools.cached_property(
                tracer.wrap(f"harness.context.{attr}", prop.func)
            )
            new.__set_name__(ctx_cls, attr)
            setattr(ctx_cls, attr, new)
    old = harness.CATALOG
    new_catalog = tuple(
        type(c)(c.check_id, c.title, tracer.wrap(f"harness.check.{c.check_id}", c.fn))
        for c in old
    )
    _rebind(old, new_catalog)


def dump(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.snapshot(), fh)


def merge(total: dict, part: dict) -> None:
    """Add one process's snapshot into a running total."""
    for key in ("calls", "self_s", "total_s", "counts"):
        bucket = total.setdefault(key, {})
        for name, value in part.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value
    for name in part.get("missing", []):
        if name not in total.setdefault("missing", []):
            total["missing"].append(name)
