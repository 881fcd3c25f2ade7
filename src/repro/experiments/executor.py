"""Staged, deduplicating, resumable executor for experiment specs.

The executor is the one way an experiment runs: the runner, the CLI
and :func:`repro.experiments.runner.run_experiment` all call
:func:`execute`.  It runs four stages over the declarative specs
(:mod:`repro.experiments.spec`), so shared points are simulated once,
a crash loses only unfinished experiments, and one bad experiment
need not abort the rest:

1. **Plan** — build every selected experiment's
   :class:`~repro.experiments.spec.ExperimentPlan` (cheap by
   contract) and resolve each keyed point to its content-addressed
   simulation cache key.
2. **Dedup globally** — merge the points of *all* experiments by
   cache key: one ``simulate_many`` fan-out serves every experiment
   that needs a given point.  A full-suite run shares dozens of
   azul/azul and dalorex points between the headline figures, the
   breakdown figures, and the efficiency studies; the merged sweep
   simulates each exactly once.  ``--plan`` prints this as a dry-run
   (per-experiment point counts, global unique count, predicted
   cache hits) without simulating anything.
3. **Sweep** — one :func:`repro.parallel.simulate_many` call over
   the unique points (``--jobs`` workers, cache short-circuit,
   serial fallback).
4. **Reduce + checkpoint** — each experiment's ``reduce`` runs in
   isolation; the finished :class:`~repro.perf.ExperimentResult` is
   checkpointed through :mod:`repro.cache`, so ``--resume`` skips
   completed experiments after a crash or Ctrl-C (and the simulation
   cache covers points finished mid-sweep).  With ``keep_going`` a
   failing experiment is recorded and the rest still run; the report
   aggregates the exit code.

Instrumented through :mod:`repro.obs` as ``exec.*`` counters and
spans (no-ops unless observability is enabled).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import repro.obs as obs
from repro.cache import MISS, PICKLE, ArtifactCache
from repro.cache.keys import canonical_encode
from repro.experiments.spec import ExperimentPlan, ExperimentSpec
from repro.parallel import SimPoint, resolve_point, simulate_many
from repro.perf import ExperimentResult

__all__ = [
    "EXPERIMENT_NAMESPACE",
    "EXPERIMENT_SCHEMA",
    "ExperimentFailure",
    "ExperimentOutcome",
    "ExecutionReport",
    "SweepPlan",
    "plan_experiments",
    "execute",
]

#: Cache namespace holding per-experiment result checkpoints.
EXPERIMENT_NAMESPACE = "experiments"

#: Checkpoint schema: bump when ExperimentResult's pickled shape or
#: the checkpoint key derivation changes incompatibly.
EXPERIMENT_SCHEMA = "v1"


class ExperimentFailure(RuntimeError):
    """One experiment failed and ``keep_going`` was off."""

    def __init__(self, experiment_id: str, cause: BaseException):
        super().__init__(
            f"experiment {experiment_id!r} failed: {cause!r} "
            "(run with --keep-going to continue past failures)"
        )
        self.experiment_id = experiment_id
        self.cause = cause


# ----------------------------------------------------------------------
# Plan containers
# ----------------------------------------------------------------------
@dataclass
class _Entry:
    """One selected experiment's planning state."""

    spec: ExperimentSpec
    overrides: Dict[str, Any]
    plan: Optional[ExperimentPlan] = None
    #: Build-time failure (reported; excluded from the sweep).
    error: Optional[BaseException] = None
    #: point key -> fully-resolved SimPoint.
    resolved: Dict[str, SimPoint] = field(default_factory=dict)
    #: point key -> global simulation cache key.
    point_keys: Dict[str, str] = field(default_factory=dict)
    checkpoint_key: str = ""
    #: Checkpointed result found during planning (``resume`` runs).
    checkpointed: Any = MISS


@dataclass
class SweepPlan:
    """The dry-run view: what a run *would* simulate.

    ``experiments`` rows carry per-experiment counts; the totals show
    the global-dedup effect (``unique_points`` < ``sum_unique`` means
    cross-experiment sharing; both are < ``total_points`` when an
    experiment repeats a point internally).
    """

    experiments: List[dict] = field(default_factory=list)
    total_points: int = 0
    #: Sum of per-experiment unique counts (no cross-experiment dedup).
    sum_unique: int = 0
    #: Globally unique points across all experiments.
    unique_points: int = 0
    predicted_cache_hits: int = 0
    to_compute: int = 0
    resumed: int = 0
    build_failures: int = 0

    @property
    def deduplicated(self) -> int:
        return self.total_points - self.unique_points

    def render(self) -> str:
        """The ``--plan`` table."""
        lines = [
            f"{'experiment':18s} {'status':10s} {'points':>6s} "
            f"{'unique':>6s} {'cached':>6s}"
        ]
        lines.append("-" * len(lines[0]))
        for row in self.experiments:
            lines.append(
                f"{row['id']:18s} {row['status']:10s} "
                f"{row['points']:6d} {row['unique']:6d} "
                f"{row['cached']:6d}"
            )
        lines.append("")
        lines.append(
            f"plan: {self.total_points} points, "
            f"{self.unique_points} unique globally "
            f"({self.deduplicated} deduplicated; per-experiment sum "
            f"{self.sum_unique}), {self.predicted_cache_hits} predicted "
            f"cache hits, {self.to_compute} to simulate"
        )
        if self.resumed:
            lines.append(
                f"resume: {self.resumed} experiment(s) already "
                "checkpointed — skipped entirely"
            )
        if self.build_failures:
            lines.append(
                f"WARNING: {self.build_failures} experiment(s) failed "
                "to build a plan"
            )
        return "\n".join(lines)


@dataclass
class ExperimentOutcome:
    """What happened to one experiment in an executor run."""

    experiment_id: str
    #: ``ok`` | ``resumed`` | ``failed``.
    status: str
    result: Optional[ExperimentResult] = None
    error: Optional[str] = None
    seconds: float = 0.0


@dataclass
class ExecutionReport:
    """Aggregated run result: per-experiment outcomes + sweep stats."""

    outcomes: List[ExperimentOutcome] = field(default_factory=list)
    sweep: SweepPlan = field(default_factory=SweepPlan)
    #: ``simulate_many`` observability counters for the merged sweep.
    sweep_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return 1 if any(o.status == "failed" for o in self.outcomes) else 0

    def failures(self) -> List[ExperimentOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    def results(self) -> Dict[str, ExperimentResult]:
        return {
            o.experiment_id: o.result
            for o in self.outcomes if o.result is not None
        }


# ----------------------------------------------------------------------
# Key derivation
# ----------------------------------------------------------------------
def _override_fingerprint(overrides: Dict[str, Any]) -> str:
    """Stable encoding of builder overrides for the checkpoint key.

    ``jobs`` never appears here (parallelism cannot change results).
    Values outside the canonical cache-key vocabulary fall back to
    ``repr`` — stable for the dataclasses and tuples experiments use.
    """
    parts = []
    for name in sorted(overrides):
        value = overrides[name]
        try:
            encoded = canonical_encode(value)
        except TypeError:
            encoded = f"r:{value!r}"
        parts.append(f"{name}={encoded}")
    return ";".join(parts)


def _checkpoint_key(cache: ArtifactCache, entry: _Entry) -> str:
    """Content-addressed key of one experiment's result checkpoint.

    Keyed on the experiment id, the override fingerprint, and the
    sorted simulation keys of its points, so a checkpoint can never
    be replayed against a different machine config, matrix set, or
    simulation schema.
    """
    return cache.key(
        "experiment", entry.spec.id, EXPERIMENT_SCHEMA,
        _override_fingerprint(entry.overrides),
        sorted(entry.point_keys.values()),
    )


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def plan_experiments(
    experiments: Sequence[ExperimentSpec], *,
    jobs: Optional[int] = None,
    resume: bool = False,
    overrides: Optional[Dict[str, Any]] = None,
    keep_going: bool = False,
    cache: Optional[ArtifactCache] = None,
) -> tuple:
    """Stage 1+2: build plans, resolve keys, compute the global dedup.

    Returns ``(entries, sweep_plan)``.  ``overrides`` are forwarded
    to each builder filtered by what it declares (an override a
    builder does not take is simply not offered to it).  With
    ``resume``, experiments whose checkpoint exists are marked
    resumed and contribute no points.  A builder failure aborts
    unless ``keep_going``.
    """
    cache = cache if cache is not None else ArtifactCache.default()
    overrides = dict(overrides or {})
    overrides.pop("jobs", None)
    specs = list(experiments)

    entries: List[_Entry] = []
    with obs.span("exec.plan", experiments=len(specs)):
        for spec in specs:
            accepted = {
                name: value for name, value in overrides.items()
                if spec.accepts(name)
            }
            entry = _Entry(spec=spec, overrides=accepted)
            entries.append(entry)
            try:
                entry.plan = spec.plan(jobs=jobs, **accepted)
                for point_key, point in entry.plan.points.items():
                    resolved, key = resolve_point(entry.plan.session, point)
                    entry.resolved[point_key] = resolved
                    entry.point_keys[point_key] = key
                entry.checkpoint_key = _checkpoint_key(cache, entry)
                if resume:
                    entry.checkpointed = cache.get(
                        EXPERIMENT_NAMESPACE, entry.checkpoint_key,
                        PICKLE,
                    )
            except Exception as exc:  # noqa: BLE001 — isolation contract
                entry.error = exc
                if not keep_going:
                    raise ExperimentFailure(spec.id, exc) from exc

        sweep = _summarize(entries, cache)

    obs.counter("exec.experiments", len(entries))
    obs.counter("exec.points.total", sweep.total_points)
    obs.counter("exec.points.unique", sweep.unique_points)
    obs.counter("exec.points.deduplicated", sweep.deduplicated)
    obs.counter("exec.points.predicted_cache_hits",
                sweep.predicted_cache_hits)
    if sweep.resumed:
        obs.counter("exec.resumed", sweep.resumed)
    return entries, sweep


def _summarize(entries: List[_Entry], cache: ArtifactCache) -> SweepPlan:
    """Fold per-experiment plans into the global SweepPlan."""
    from repro.experiments.common import SIMULATION_NAMESPACE

    sweep = SweepPlan()
    global_keys: Dict[str, bool] = {}
    for entry in entries:
        if entry.error is not None:
            status = "error"
            keys: List[str] = []
        elif entry.checkpointed is not MISS:
            status = "resumed"
            keys = []
            sweep.resumed += 1
        else:
            status = "pending"
            keys = list(entry.point_keys.values())
        cached = 0
        for key in set(keys):
            if key not in global_keys:
                global_keys[key] = cache.contains(
                    SIMULATION_NAMESPACE, key, PICKLE
                )
            cached += int(global_keys[key])
        sweep.experiments.append({
            "id": entry.spec.id,
            "status": status,
            "points": len(keys),
            "unique": len(set(keys)),
            "cached": cached,
        })
        sweep.total_points += len(keys)
        sweep.sum_unique += len(set(keys))
        sweep.build_failures += int(entry.error is not None)
    sweep.unique_points = len(global_keys)
    sweep.predicted_cache_hits = sum(global_keys.values())
    sweep.to_compute = sweep.unique_points - sweep.predicted_cache_hits
    return sweep


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def execute(
    experiments: Sequence[ExperimentSpec], *,
    jobs: Optional[int] = None,
    keep_going: bool = False,
    resume: bool = False,
    overrides: Optional[Dict[str, Any]] = None,
    cache: Optional[ArtifactCache] = None,
    on_outcome: Optional[Callable[[ExperimentOutcome], None]] = None,
) -> ExecutionReport:
    """Run experiments through the staged executor.

    Parameters
    ----------
    experiments:
        Experiment ids (resolved through the runner registry) or
        :class:`ExperimentSpec` objects.
    jobs:
        Worker processes for the merged sweep, and the uniform
        ``jobs`` every builder receives for its internal pools.
    keep_going:
        Record a failing experiment and continue with the rest; the
        report's ``exit_code`` aggregates to 1.  Off: the first
        failure raises :class:`ExperimentFailure`.
    resume:
        Skip experiments whose checkpointed result is already in the
        artifact cache (written at the end of every successful
        experiment), returning the checkpointed result instead.
    overrides:
        Builder overrides (e.g. ``matrices=[...]``), forwarded to
        each spec filtered by what its builder declares.
    on_outcome:
        Callback invoked as each experiment completes (streaming
        output for the runner).
    """
    cache = cache if cache is not None else ArtifactCache.default()
    report = ExecutionReport()
    with obs.timer("exec.run", experiments=len(list(experiments))):
        entries, report.sweep = plan_experiments(
            experiments, jobs=jobs, resume=resume, overrides=overrides,
            keep_going=keep_going, cache=cache,
        )

        # Stage 3: one merged fan-out over the globally-unique points.
        pending = [
            e for e in entries
            if e.error is None and e.checkpointed is MISS
        ]
        results_by_key: Dict[str, Any] = {}
        unique: Dict[str, SimPoint] = {}
        for entry in pending:
            for point_key, global_key in entry.point_keys.items():
                unique.setdefault(
                    global_key, entry.resolved[point_key]
                )
        if unique:
            sweep_session = next(
                e.plan.session for e in pending if e.point_keys
            )
            with obs.span("exec.sweep", unique_points=len(unique)):
                ordered = list(unique)
                results = simulate_many(
                    sweep_session, [unique[k] for k in ordered], jobs,
                    stats=report.sweep_stats,
                )
                results_by_key = dict(zip(ordered, results))

        # Stage 4: reduce + checkpoint, isolating failures.
        for entry in entries:
            outcome = _finish(entry, results_by_key, cache)
            report.outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)
            if outcome.status == "failed" and not keep_going:
                obs.counter("exec.failures", 1)
                cause = (entry.error if entry.error is not None
                         else RuntimeError(outcome.error or "unknown"))
                raise ExperimentFailure(
                    outcome.experiment_id, cause
                ) from cause

    failures = len(report.failures())
    if failures:
        obs.counter("exec.failures", failures)
    obs.counter("exec.completed",
                sum(o.status == "ok" for o in report.outcomes))
    return report


def _finish(entry: _Entry, results_by_key: Dict[str, Any],
            cache: ArtifactCache) -> ExperimentOutcome:
    """Reduce one experiment (or surface its earlier failure)."""
    experiment_id = entry.spec.id
    if entry.error is not None:
        return ExperimentOutcome(
            experiment_id=experiment_id, status="failed",
            error="".join(traceback.format_exception_only(entry.error))
            .strip(),
        )
    if entry.checkpointed is not MISS:
        return ExperimentOutcome(
            experiment_id=experiment_id, status="resumed",
            result=entry.checkpointed,
        )
    start = time.perf_counter()
    try:
        with obs.timer("exec.reduce", experiment=experiment_id):
            sims = {
                point_key: results_by_key[global_key]
                for point_key, global_key in entry.point_keys.items()
            }
            result = entry.plan.reduce(sims)
        cache.put(EXPERIMENT_NAMESPACE, entry.checkpoint_key, result,
                  PICKLE)
        return ExperimentOutcome(
            experiment_id=experiment_id, status="ok", result=result,
            seconds=time.perf_counter() - start,
        )
    except Exception as exc:  # noqa: BLE001 — isolation contract
        entry.error = exc
        return ExperimentOutcome(
            experiment_id=experiment_id, status="failed",
            error="".join(
                traceback.format_exception_only(exc)
            ).strip(),
            seconds=time.perf_counter() - start,
        )
