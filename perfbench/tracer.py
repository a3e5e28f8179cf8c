"""Spans and counters recorded from outside the program.

A Tracer replaces a function at every place it is bound (a module
attribute, a class attribute or a dict slot) with a wrapper that times
the call and, optionally, counts something about its arguments or
result. Nothing under src/ is edited: the wrappers are installed on the
imported modules and removed again by restore().

Each span name keeps its total time, its self time (total minus the
time of spans that ran inside it) and its call count. Spans nest through
one stack, so self times add up along the chain classify -> chains ->
complement_components.
"""

from __future__ import annotations

import gc
import json
import os
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Iterable, Optional, Tuple

Site = Tuple[object, str]


def rule_metric(rule_id: str) -> str:
    return "classifier.rule." + rule_id.replace("/", ".")


def count_result(counts: Counter, result) -> None:
    """Trace and step counts of one ClassificationResult, and the rule
    histogram over its exclusion traces and its existence argument."""
    counts["classifier.traces"] += len(result.traces)
    for step in result.argument:
        counts[rule_metric(step.rule)] += 1
    for trace in result.traces:
        counts["classifier.steps"] += len(trace.steps)
        for step in trace.steps:
            counts[rule_metric(step.rule)] += 1


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.gc_pause = 0.0
        self.gc_collections = Counter()
        self._stack = []
        self._patches = []
        self._gc_started: Optional[float] = None

    # -- wrapping ----------------------------------------------------------

    def wrap(self, sites: Iterable[Site], name: str,
             count: Optional[Callable] = None) -> None:
        """Time every call of the function bound at `sites` under `name`.

        All sites must hold the same function object (a module that did
        `from x import f` holds its own binding of f). `count`, when
        given, is called as count(counter, result, args) after the call.
        """
        sites = list(sites)
        original = _get(*sites[0])
        for site in sites[1:]:
            if _get(*site) is not original:
                raise RuntimeError(f"{name}: {site[1]} is bound to another function")
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                tracer.total[name] += dt
                tracer.self_time[name] += dt - inner
                tracer.calls[name] += 1
                if stack:
                    stack[-1] += dt
            if count is not None:
                count(tracer.counts, out, args)
            return out

        for container, key in sites:
            self._patches.append((container, key, _get(container, key)))
            _set(container, key, wrapper)

    # -- garbage collector -------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        elif self._gc_started is not None:
            self.gc_pause += perf_counter() - self._gc_started
            self.gc_collections[info["generation"]] += 1
            self._gc_started = None

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)
        self._patches.append((None, "gc", self._on_gc))

    # -- teardown ----------------------------------------------------------

    def restore(self) -> None:
        while self._patches:
            container, key, original = self._patches.pop()
            if container is None:
                gc.callbacks.remove(original)
            else:
                _set(container, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _get(container, key):
    if isinstance(container, dict):
        return container[key]
    return getattr(container, key)


def _set(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


# ---------------------------------------------------------------------------
# The layers of anosurf, as wrapping specs.


def trace_resources(tracer: Tracer) -> None:
    """Count data files read and bytes hashed by the loaders."""
    from anosurf import _resources

    def read(counts, _out, _args):
        counts["resources.files_read"] += 1

    def hashed(counts, _out, args):
        counts["resources.files_read"] += 1
        relpath = args[0]
        counts["resources.bytes_hashed"] += os.path.getsize(_resources.resolve(relpath))

    tracer.wrap([(_resources, "load_json")], "resources.load_json", read)
    tracer.wrap([(_resources, "sha256_of")], "resources.sha256_of", hashed)


def trace_classification(tracer: Tracer, extra_classify_sites=()) -> None:
    """Spans over the classify path: candidates, chains and their helpers,
    serialization, plus the trace/step/rule counters of every result."""
    from anosurf import branched_surface, classifier

    def candidates(counts, out, _args):
        counts["catalog.candidates"] += len(out)

    def classified(counts, out, _args):
        count_result(counts, out)

    def serialized(counts, out, _args):
        counts["classifier.serialized_bytes"] += len(out.encode("utf-8"))

    tracer.wrap([(classifier, "classify"), *extra_classify_sites], "classify", classified)
    tracer.wrap([(classifier, "candidates_for")], "candidates", candidates)
    tracer.wrap([(classifier, "complement_components")], "complement_components")
    tracer.wrap([(classifier, "is_transversely_orientable")], "orientability")
    tracer.wrap([(branched_surface, "euler_characteristic")], "euler")
    for kind in list(classifier._CHAINS):
        tracer.wrap([(classifier._CHAINS, kind)], "chains")
    tracer.wrap([(classifier.ClassificationResult, "to_json")], "serialize")
    tracer.wrap([(json, "dumps")], "serialize", serialized)


def trace_laws(tracer: Tracer) -> None:
    """Spans over slope_law_check: enumeration, class folding, law check."""
    from anosurf import catalog, traintrack

    def solutions(counts, out, _args):
        counts["traintrack.solutions"] += len(out)

    def classes(counts, out, _args):
        counts["traintrack.classes"] += len(out.classes)

    def violations(counts, out, _args):
        counts["traintrack.violations"] += len(out.violations)

    tracer.wrap([(traintrack, "_component_solutions")], "enumerate", solutions)
    tracer.wrap([(traintrack, "carried_classes")], "fold", classes)
    tracer.wrap([(catalog, "check_law"), (traintrack, "check_law")], "law", violations)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced pass, keyed by metric name."""
    t, s, c = tracer.total, tracer.self_time, tracer.calls
    out = {
        "catalog.candidates_s": t["candidates"],
        "catalog.complement_components_s": t["complement_components"],
        "catalog.complement_components.calls": c["complement_components"],
        "branched_surface.orientability_s": t["orientability"],
        "branched_surface.orientability.calls": c["orientability"],
        "branched_surface.euler_s": t["euler"],
        "branched_surface.euler.calls": c["euler"],
        "classifier.chains_s": s["chains"],
        "classifier.classify_self_s": s["classify"],
        "classifier.serialize_s": t["serialize"],
        "gc.pause_s": tracer.gc_pause,
        "gc.collections.gen0": tracer.gc_collections[0],
        "gc.collections.gen1": tracer.gc_collections[1],
        "gc.collections.gen2": tracer.gc_collections[2],
        "traintrack.enumerate_s": t["enumerate"],
        "traintrack.fold_s": s["fold"],
        "traintrack.law_s": s["law"],
    }
    for key in ("catalog.candidates", "classifier.traces", "classifier.steps",
                "classifier.serialized_bytes", "traintrack.solutions",
                "traintrack.classes", "traintrack.violations"):
        out[key] = tracer.counts[key]
    for key, value in tracer.counts.items():
        if key.startswith("classifier.rule."):
            out[key] = value
    return out
