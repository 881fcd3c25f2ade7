"""Benchmark-side spans around the program's layer entry points.

The benchmark does not change the program to trace it.  In a traced
pass it wraps the public functions of each layer (listed in
:data:`ENTRY_POINTS`) with a recorder that keeps one span per call in
memory: name, start, end, and the index of the enclosing span.  The
spans are handed to the parent run when the pass ends, which writes them
to a file when the run ends.

A layer's self time is the duration of its spans minus the part of
that interval their direct child spans cover.  Spans are strictly
nested because every pass runs on one thread (``--jobs 1``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: Span name -> (module, attribute path, self-time metric) of each
#: wrapped entry point.
ENTRY_POINTS = {
    "experiments.execute": ("repro.experiments.executor", "execute",
                            "experiments.self_s"),
    "experiments.plan": ("repro.experiments.executor", "plan_experiments",
                         "experiments.self_s"),
    "parallel.simulate_many": ("repro.parallel", "simulate_many",
                               "parallel.sweep_self_s"),
    "parallel.simulate_placements": ("repro.parallel", "simulate_placements",
                                     "parallel.sweep_self_s"),
    "cache.get": ("repro.cache.store", "ArtifactCache.get", "cache.get_s"),
    "cache.put": ("repro.cache.store", "ArtifactCache.put", "cache.put_s"),
    "prepare": ("repro.experiments.common", "ExperimentSession.prepare",
                "prepare.s"),
    "core.map_azul": ("repro.core.azul_mapping", "map_azul",
                      "core.map_azul_s"),
    "dataflow.compile": ("repro.sim.machine", "AzulMachine.compile",
                         "dataflow.compile_s"),
    "sim.simulate_iteration": ("repro.sim.machine",
                               "AzulMachine.simulate_iteration",
                               "sim.simulate_s"),
    "sim.verify_iteration": ("repro.sim.machine", "verify_iteration",
                             "sim.verify_s"),
}


class SpanRecorder:
    """In-memory span list filled by the wrapped entry points."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.recording = False

    def wrap(self, name, fn):
        """``fn`` with a span named ``name`` around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()

        return traced

    def instrument(self):
        """Wrap every entry point of :data:`ENTRY_POINTS`.

        Methods are replaced on their class.  Functions are replaced
        wherever a loaded ``repro`` module or the mapper registry holds
        a reference, so ``from x import f`` copies are traced too.
        """
        from repro.core.registry import MAPPERS

        for name, (module_name, path, _) in ENTRY_POINTS.items():
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            traced = self.wrap(name, original)
            if outer:
                setattr(owner, attr, traced)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
            for key, value in MAPPERS.items():
                if value is original:
                    MAPPERS[key] = traced

    def export(self, origin):
        """Spans as dicts with times in seconds since ``origin``."""
        return [
            {"name": name, "start": start - origin, "end": end - origin,
             "parent": parent}
            for name, start, end, parent in self.spans
        ]


def self_times(spans):
    """Per-metric self time and per-span call counts of exported spans."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals = {metric: 0.0 for _, _, metric in ENTRY_POINTS.values()}
    calls = {name: 0 for name in ENTRY_POINTS}
    for index, span in enumerate(spans):
        duration = span["end"] - span["start"]
        metric = ENTRY_POINTS[span["name"]][2]
        totals[metric] += duration - child_time[index]
        calls[span["name"]] += 1
    return totals, calls


def covered(spans, start, end):
    """Seconds of ``[start, end)`` covered by top-level spans."""
    return sum(
        max(0.0, min(span["end"], end) - max(span["start"], start))
        for span in spans if span["parent"] is None
    )
