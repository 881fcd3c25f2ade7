"""The benchmark's workloads: set-up, timed body and checks of one pass.

One pass runs in a fresh process with a private, empty artifact cache
(``REPRO_CACHE_DIR`` is set by ``run.py``).  Each workload function
imports the program, calls :meth:`Pass.ready`, does its set-up, runs
its timed body inside :meth:`Pass.timed`, and then checks every point
it simulated through :class:`Ledger`, outside the timed region.

``SIZES`` holds the input sets: ``full`` is what the benchmark
measures, ``reduced`` is the small set the self-test runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import resource
import time

SIZES = {
    "full": {
        "cold_plan": {
            "experiments": ("fig21", "fig22", "fig23", "abl_quantiles"),
            "matrices": ("thermal2",),
            "quantile_matrix": "thermal2",
            "quantile_counts": (0, 5),
            "mesh": None,
        },
        "sim_sweep": {
            "matrices": ("G3_circuit",),
            "mappers": ("round_robin", "block", "sparsep", "azul"),
            "pes": ("azul", "azul_single", "dalorex"),
            "mesh": 8,
        },
        "scale_up": {
            "matrix": "G3_circuit",
            "scale": 2,
            "mappers": ("azul", "round_robin"),
            "mesh": 16,
        },
    },
    "reduced": {
        "cold_plan": {
            "experiments": ("fig21", "fig22", "fig23", "abl_quantiles"),
            "matrices": ("thermal2",),
            "quantile_matrix": "thermal2",
            "quantile_counts": (0, 2),
            "mesh": 4,
        },
        "sim_sweep": {
            "matrices": ("thermal2",),
            "mappers": ("round_robin", "azul"),
            "pes": ("azul", "dalorex"),
            "mesh": 4,
        },
        "scale_up": {
            "matrix": "thermal2",
            "scale": 1,
            "mappers": ("azul", "round_robin"),
            "mesh": 8,
        },
    },
}

#: PE model the headline metrics compare mappings on.
HEADLINE_PE = "azul"


# ----------------------------------------------------------------------
# Points: correctness and digests
# ----------------------------------------------------------------------
def point_stats(result):
    """Exact simulated statistics of one PCG iteration."""
    kernels = result.kernel_results
    op_counts = {}
    for kernel in kernels:
        for kind, count in kernel.op_counts.items():
            op_counts[kind] = op_counts.get(kind, 0) + int(count)
    n_tiles = result.config.num_tiles
    return {
        "cycles": int(result.total_cycles),
        "vector_cycles": int(result.vector_cycles),
        "kernel_cycles": [int(k.cycles) for k in kernels],
        "op_counts": op_counts,
        "ops": sum(op_counts.values()),
        "link_activations": int(sum(k.link_activations for k in kernels)),
        "link_queue_delay": int(sum(k.link_queue_delay for k in kernels)),
        "spills": int(sum(k.spills for k in kernels)),
        "busy_slots": int(sum(k.busy_slots for k in kernels)),
        "slots": int(sum(k.cycles for k in kernels)) * n_tiles,
        "gflops": result.gflops(),
    }


def digest(value) -> str:
    """Short content digest of a JSON-serialisable value."""
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Ledger:
    """Points attempted and failed in one pass, with their statistics.

    A point fails if the program raised while computing it, if
    ``verify_iteration`` rejects its outputs, or (for experiments) if
    the executor's outcome is not ``ok``.
    """

    def __init__(self):
        self.points = {}
        self.outcomes = {}
        self.failures = {}

    @property
    def attempted(self) -> int:
        return len(self.points) + len(self.outcomes) + len(self.failures)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, label: str, reason: str) -> None:
        self.failures[label] = reason

    def check(self, label: str, result, matrix, lower, b) -> None:
        """Verify one simulated iteration against the CSR reference."""
        from repro.sim.machine import verify_iteration

        if result is None:
            self.fail(label, "no result")
            return
        try:
            verify_iteration(result, matrix, lower, b)
            stats = point_stats(result)
        except Exception as exc:  # noqa: BLE001 — counted, not raised
            self.fail(label, repr(exc))
            return
        if stats["cycles"] <= 0:
            self.fail(label, "non-positive cycle count")
            return
        self.points[label] = dict(stats, digest=digest(stats))

    def outcome(self, experiment_id: str, outcome) -> None:
        """Record one executor outcome; its result rows are digested."""
        if outcome.status != "ok" or outcome.result is None:
            self.fail(experiment_id, outcome.error or outcome.status)
            return
        # Wall-clock columns (``*_s``) are measurements, not outputs.
        rows = [
            {k: v for k, v in row.items() if not k.endswith("_s")}
            for row in outcome.result.rows
        ]
        self.outcomes[experiment_id] = digest(rows)

    def headline(self):
        """(mapping_gain_gmean, azul_gflops_gmean) over the matrices."""
        gains, gflops = [], []
        for label, stats in self.points.items():
            name, mapper, pe = label.split("/")
            if mapper != "azul" or pe != HEADLINE_PE:
                continue
            baseline = self.points.get(f"{name}/round_robin/{pe}")
            if baseline is not None:
                gains.append(baseline["cycles"] / stats["cycles"])
            gflops.append(stats["gflops"])
        return _gmean(gains), _gmean(gflops)


def _gmean(values) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _label(name, mapper, pe) -> str:
    return f"{name}/{mapper}/{getattr(pe, 'name', pe)}"


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
class Pass:
    """Timing, tracing and the ledger of one pass."""

    def __init__(self, started: float, traced: bool):
        self.started = started
        self.traced = traced
        self.ledger = Ledger()
        self.recorder = None
        self.body_start = None
        self.body_end = None
        self.peak_rss_mb = None
        self.obs_snapshot = None

    def ready(self) -> None:
        """Imports are done: start tracing (traced passes only).

        Only the program's ``obs`` metrics are enabled, never its
        tracing switch, which would record issue traces in the
        simulator and change the work measured.
        """
        if not self.traced:
            return
        import repro.obs as obs

        from spans import SpanRecorder

        obs.enable(metrics=True, tracing=False)
        self.recorder = SpanRecorder()
        self.recorder.instrument()
        self.recorder.recording = True

    @contextlib.contextmanager
    def timed(self):
        """The timed body; tracing stops when it ends."""
        self.body_start = time.perf_counter()
        try:
            yield
        finally:
            self.body_end = time.perf_counter()
            self.peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            if self.recorder is not None:
                import repro.obs as obs

                self.recorder.recording = False
                self.obs_snapshot = obs.snapshot()

    def report(self) -> dict:
        """The pass's result, as the parent run reads it."""
        from repro.config import overrides

        gain, gflops = self.ledger.headline()
        out = {
            "setup_s": self.body_start - self.started,
            "wall_s": self.body_end - self.body_start,
            "peak_rss_mb": self.peak_rss_mb,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "failures": self.ledger.failures,
            "points": self.ledger.points,
            "outcomes": self.ledger.outcomes,
            "mapping_gain_gmean": gain,
            "azul_gflops_gmean": gflops,
            "overrides": overrides(),
        }
        if self.recorder is not None:
            spans = self.recorder.export(self.started)
            out["spans"] = spans
            out["layers"] = self._layers(spans)
        return out

    def _layers(self, spans) -> dict:
        """Per-layer metrics of a traced pass."""
        from spans import covered, self_times

        counters = self.obs_snapshot.get("counters", {})
        histograms = self.obs_snapshot.get("histograms", {})

        def hist(name, field="sum"):
            return float(histograms.get(name, {}).get(field, 0.0))

        def count(name):
            return float(counters.get(name, 0.0))

        totals, calls = self_times(spans)
        points = self.ledger.points.values()
        ops = sum(p["ops"] for p in points)
        slots = sum(p["slots"] for p in points)
        busy = sum(p["busy_slots"] for p in points)
        requests = count("compile.requests")
        body_start = self.body_start - self.started
        body_end = self.body_end - self.started
        layers = dict(totals)
        layers.update({
            "experiments.plan_s": sum(
                (s["end"] - s["start"] for s in spans
                 if s["name"] == "experiments.plan"), 0.0
            ),
            "experiments.reduce_s": hist("exec.reduce.seconds"),
            "experiments.points_total": count("exec.points.total"),
            "experiments.points_unique": count("exec.points.unique"),
            "cache.hits": count("cache.hits_memory")
            + count("cache.hits_disk"),
            "cache.misses": count("cache.misses"),
            "cache.writes": count("cache.writes"),
            "precond.ic0_s": hist("solve.kernel.ic0.seconds"),
            "hypergraph.coarsen_s": hist("partition.coarsen.seconds"),
            "hypergraph.initial_s": hist("partition.initial.seconds"),
            "hypergraph.refine_s": hist("partition.refine.seconds"),
            "hypergraph.bisections": hist("partition.bisect.seconds",
                                          "count"),
            "hypergraph.refine_calls": hist("partition.refine.seconds",
                                            "count"),
            "dataflow.compile_builds": float(calls["dataflow.compile"]),
            "dataflow.program_hit_ratio": (
                count("compile.cache_hits") / requests if requests else 0.0
            ),
            "sim.ops": float(ops),
            "sim.host_us_per_op": (
                totals["sim.simulate_s"] / ops * 1e6 if ops else 0.0
            ),
            "sim.cycles": float(sum(p["cycles"] for p in points)),
            "sim.link_activations": float(
                sum(p["link_activations"] for p in points)),
            "sim.link_queue_delay": float(
                sum(p["link_queue_delay"] for p in points)),
            "sim.spills": float(sum(p["spills"] for p in points)),
            "sim.stall_slot_ratio": (slots - busy) / slots if slots else 0.0,
            "trace.setup_s": body_start,
            "trace.wall_s": body_end - body_start,
            "trace.uncovered_setup_s": body_start - covered(spans, 0.0,
                                                            body_start),
            "trace.uncovered_wall_s": (body_end - body_start
                                       - covered(spans, body_start,
                                                 body_end)),
        })
        return layers


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def cold_plan(ctx: Pass, size: dict, seed: int) -> None:
    """The executor regenerates figures with an empty artifact cache.

    Runs the registered experiments as users do, so the partitioner
    seed is the program's fixed seed 0 and ``seed`` is unused.
    """
    from repro.cache import MISS, PICKLE, ArtifactCache
    from repro.config import AzulConfig
    from repro.experiments import executor
    from repro.experiments.common import SIMULATION_NAMESPACE
    from repro.experiments.runner import load_specs

    specs = load_specs(size["experiments"])
    overrides = {
        "matrices": list(size["matrices"]),
        "matrix": size["quantile_matrix"],
        "quantile_counts": tuple(size["quantile_counts"]),
    }
    if size["mesh"] is not None:
        overrides["config"] = AzulConfig(mesh_rows=size["mesh"],
                                         mesh_cols=size["mesh"])
    ctx.ready()
    report = None
    with ctx.timed():
        try:
            report = executor.execute(specs, jobs=1, keep_going=True,
                                      overrides=overrides)
        except Exception as exc:  # noqa: BLE001 — counted, not raised
            for spec in specs:
                ctx.ledger.fail(spec.id, repr(exc))
    if report is not None:
        for outcome in report.outcomes:
            ctx.ledger.outcome(outcome.experiment_id, outcome)

    cache = ArtifactCache.default()
    entries, _ = executor.plan_experiments(specs, jobs=1,
                                           overrides=overrides)
    for entry in entries:
        for point_key, key in entry.point_keys.items():
            point = entry.resolved[point_key]
            label = _label(point.name, point.mapper, point.pe)
            if label in ctx.ledger.points:
                continue
            result = cache.get(SIMULATION_NAMESPACE, key, PICKLE)
            prepared = entry.plan.session.prepare(point.name, point.scale)
            ctx.ledger.check(label, None if result is MISS else result,
                             prepared.matrix, prepared.lower, prepared.b)


def sim_sweep(ctx: Pass, size: dict, seed: int) -> None:
    """Simulate a mapper x PE sweep over placements built in set-up."""
    import numpy as np

    from repro.cache import NPZ, ArtifactCache
    from repro.config import AzulConfig
    from repro.core import Placement, get_mapper
    from repro.experiments.common import (
        PLACEMENT_NAMESPACE,
        ExperimentSession,
    )
    from repro.hypergraph import PartitionerOptions

    ctx.ready()
    config = AzulConfig(mesh_rows=size["mesh"], mesh_cols=size["mesh"])
    session = ExperimentSession(config)
    # Placements reach the body through the on-disk cache, as they do
    # for a user who re-runs a sweep: the writer's memory tier is not
    # the session's.
    writer = ArtifactCache.from_env()
    keys = {}
    for name in size["matrices"]:
        prepared = session.prepare(name)
        for mapper in size["mappers"]:
            options = (
                {"options": PartitionerOptions.speed(seed=seed)}
                if mapper == "azul" else {}
            )
            placement = get_mapper(mapper)(
                prepared.matrix, prepared.lower, config.num_tiles, **options
            )
            key = writer.key("perfbench-placement", name, mapper, seed,
                             config.cache_key())
            writer.put(PLACEMENT_NAMESPACE, key, {
                "a_tile": placement.a_tile,
                "l_tile": placement.l_tile,
                "vec_tile": placement.vec_tile,
                "mapper": placement.mapper,
            }, NPZ)
            keys[name, mapper] = key

    labels = []
    results = None
    with ctx.timed():
        try:
            points = []
            for (name, mapper), key in keys.items():
                arrays = session.cache.get(PLACEMENT_NAMESPACE, key, NPZ)
                placement = Placement(
                    n_tiles=config.num_tiles,
                    a_tile=np.asarray(arrays["a_tile"]),
                    l_tile=np.asarray(arrays["l_tile"]),
                    vec_tile=np.asarray(arrays["vec_tile"]),
                    mapper=str(arrays["mapper"]),
                )
                for pe in size["pes"]:
                    points.append({"placement": placement, "name": name,
                                   "pe": pe})
                    labels.append(_label(name, mapper, pe))
            results = session.simulate_placements(None, points, check=True,
                                                  jobs=1)
        except Exception as exc:  # noqa: BLE001 — counted, not raised
            for name, mapper in keys:
                for pe in size["pes"]:
                    ctx.ledger.fail(_label(name, mapper, pe), repr(exc))
    if results is not None:
        for label, result in zip(labels, results):
            prepared = session.prepare(label.split("/")[0])
            ctx.ledger.check(label, result, prepared.matrix, prepared.lower,
                             prepared.b)


def scale_up(ctx: Pass, size: dict, seed: int) -> None:
    """A cold prepare -> map -> compile -> simulate -> verify pipeline
    on a larger machine and matrix."""
    from repro.config import AzulConfig
    from repro.core import get_mapper
    from repro.experiments.common import ExperimentSession
    from repro.hypergraph import PartitionerOptions
    from repro.sim import AZUL_PE, AzulMachine

    ctx.ready()
    config = AzulConfig(mesh_rows=size["mesh"], mesh_cols=size["mesh"])
    session = ExperimentSession(config, scale=size["scale"],
                                use_cache=False)
    name = size["matrix"]
    results = {}
    prepared = None
    with ctx.timed():
        try:
            prepared = session.prepare(name)
            for mapper in size["mappers"]:
                options = (
                    {"options": PartitionerOptions.speed(seed=seed)}
                    if mapper == "azul" else {}
                )
                placement = get_mapper(mapper)(
                    prepared.matrix, prepared.lower, config.num_tiles,
                    **options
                )
                machine = AzulMachine(config, AZUL_PE)
                results[mapper] = machine.simulate_pcg(
                    prepared.matrix, prepared.lower, placement, prepared.b,
                    check=True,
                )
        except Exception as exc:  # noqa: BLE001 — counted, not raised
            for mapper in size["mappers"]:
                if mapper not in results:
                    ctx.ledger.fail(_label(name, mapper, AZUL_PE), repr(exc))
    for mapper, result in results.items():
        ctx.ledger.check(_label(name, mapper, AZUL_PE), result,
                         prepared.matrix, prepared.lower, prepared.b)


WORKLOADS = {
    "cold_plan": cold_plan,
    "sim_sweep": sim_sweep,
    "scale_up": scale_up,
}


def run_pass(workload: str, size: str, seed: int, traced: bool,
             started: float) -> dict:
    """Run one pass of ``workload`` and return its report."""
    ctx = Pass(started, traced)
    WORKLOADS[workload](ctx, SIZES[size][workload], seed)
    return ctx.report()
