"""Parallel sweep execution across processes.

Experiment sweeps are embarrassingly parallel across their points: each
point is an independent simulation.  Two public entry points build the
points, and one private core, :func:`_sweep`, runs them:

* :func:`simulate_many` sweeps registry points (:class:`SimPoint`:
  matrix, mapper, PE, scale, preset, config), keyed exactly like
  :meth:`ExperimentSession.simulate`, whose drop-in replacement it is.
* :func:`simulate_placements` sweeps explicit placements (partitioner,
  seed and multicast ablations), keyed on the placement content.

The core gives both the same semantics:

* **Cache short-circuit** — every point is looked up in the shared
  on-disk artifact cache *before* any worker is spawned; a fully-cached
  sweep never pays process start-up.
* **In-flight deduplication** — points resolving to the same cache key
  are computed once and fanned back to every requesting index.
* **One cache policy** — the sweep's resolved ``use_cache`` travels
  with every point, to the workers and to the serial path alike.
* **PE grouping** — pending points that differ only in their PE are
  one unit of work: one compile, and each kernel's static tables built
  once for all of them (kernel-outer ``simulate_variants``).
* **Shared artifact cache** — workers open the parent session's cache
  (its settings travel with each unit, and each worker process keeps
  one cache per settings), so their results land in the same store the
  parent (and the next run) reads.
* **Graceful degradation** — a crashed worker, a broken pool, or an
  unpicklable result demotes only the affected points to an in-process
  serial computation; a sweep never fails because of parallel
  machinery.

Results are returned in point order and are identical to what a serial
``jobs=1`` run produces (simulation is deterministic; see
``tests/test_parallel.py``).
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple,
                    Union)

import repro.obs as obs
from repro.cache import MISS, PICKLE
from repro.config import ENV_JOBS, AzulConfig
from repro.sim.pe import PEModel

if TYPE_CHECKING:
    from repro.cache import ArtifactCache
    from repro.core import Placement

__all__ = ["SimPoint", "simulate_many", "simulate_placements",
           "resolve_point", "default_jobs", "ENV_JOBS"]

#: Sentinel marking a worker failure (distinct from any result).
_FAILED = object()


@dataclass(frozen=True)
class SimPoint:
    """One sweep point for :func:`simulate_many`.

    ``scale``/``preset``/``config`` default to the owning session's
    values when ``None``.  ``pe`` accepts either a registered model
    name or a :class:`~repro.sim.pe.PEModel` instance (ablations sweep
    synthetic PEs).
    """

    name: str
    mapper: str = "azul"
    pe: Union[str, PEModel] = "azul"
    scale: Optional[int] = None
    preset: Optional[str] = None
    check: bool = True
    config: Optional[AzulConfig] = None
    #: Record per-op issue traces; ``None`` follows the parent's
    #: :func:`repro.obs.tracing_enabled` (workers never inherit obs
    #: enablement, so the resolved flag travels with the point).
    trace: Optional[bool] = None


@dataclass(frozen=True)
class _Task:
    """One resolved sweep point with its cache key (picklable).

    ``placement`` is ``None`` for registry points, whose placement
    comes from the session's mapper; explicit placements bring their
    own and a ``multicast`` mode.
    """

    key: str
    point: SimPoint
    use_cache: bool
    placement: Optional["Placement"] = None
    multicast: str = "tree"


def default_jobs() -> int:
    """Worker count when unspecified: ``REPRO_JOBS`` or a capped cpu count."""
    env = os.environ.get(ENV_JOBS, "")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, min(8, os.cpu_count() or 1))


def _coerce(point) -> SimPoint:
    if isinstance(point, SimPoint):
        return point
    if isinstance(point, str):
        return SimPoint(name=point)
    if isinstance(point, dict):
        return SimPoint(**point)
    raise TypeError(
        f"sweep point must be a SimPoint, matrix name, or dict; "
        f"got {type(point).__name__}"
    )


def resolve_point(session, point) -> Tuple[SimPoint, str]:
    """A point with its ``None`` fields filled from ``session``, and
    the simulation cache key it hits.

    A resolved point is session-independent: any session may fan it
    out and it still lands on the same cache key, which is what lets
    the experiment executor merge points across experiments.
    """
    point = _coerce(point)
    resolved = dataclasses.replace(
        point,
        scale=session.scale if point.scale is None else int(point.scale),
        preset=session.preset if point.preset is None else point.preset,
        check=bool(point.check),
        config=session.config if point.config is None else point.config,
        trace=(obs.tracing_enabled() if point.trace is None
               else bool(point.trace)),
    )
    key = session.simulation_key(
        resolved.name, resolved.mapper, resolved.pe,
        scale=resolved.scale, preset=resolved.preset,
        check=resolved.check, config=resolved.config,
        trace=resolved.trace,
    )
    return resolved, key


@dataclass(frozen=True)
class _Unit:
    """One unit of sweep work: pending points that differ only in PE.

    The points share one placement, one compiled program and one
    kernel-outer :meth:`~repro.sim.machine.AzulMachine.simulate_variants`
    call.  ``cache`` holds the parent cache's settings (see
    :func:`_cache_settings`), so a worker reads and writes the parent's
    cache rather than whatever the environment names.
    """

    tasks: Tuple[_Task, ...]
    cache: tuple


#: Caches a worker process has opened, by settings: one per process, so
#: its memory tier serves every unit the worker computes.
_WORKER_CACHES: Dict[tuple, "ArtifactCache"] = {}


def _cache_settings(cache: "ArtifactCache") -> tuple:
    """Everything needed to reopen ``cache`` in another process."""
    return (str(cache.root), cache.max_bytes, cache.memory_entries,
            cache.enabled, cache.persist_stats)


def _worker_cache(settings: tuple) -> "ArtifactCache":
    """This process's cache with ``settings``.

    A worker forked from a parent that uses the environment's cache
    reuses the inherited ``ArtifactCache.default()`` (and its memory
    tier); any other settings open one new cache per process.
    """
    from repro.cache import ArtifactCache

    cache = _WORKER_CACHES.get(settings)
    if cache is None:
        cache = ArtifactCache.default()
        if _cache_settings(cache) != settings:
            root, max_bytes, memory_entries, enabled, persist_stats = settings
            cache = ArtifactCache(
                root, max_bytes=max_bytes, memory_entries=memory_entries,
                enabled=enabled, persist_stats=persist_stats,
            )
        _WORKER_CACHES[settings] = cache
    return cache


def _group_key(task: _Task) -> tuple:
    """Tasks with equal group keys differ only in their PE.

    Explicit placements group by identity: points built from one
    ``Placement`` object share a unit, equal copies are simulated
    apart (same results, one more table build).
    """
    return (dataclasses.replace(task.point, pe=None), id(task.placement),
            task.multicast, task.use_cache)


def _compute(session, unit: _Unit) -> List:
    """Place (if needed), compile, simulate, verify and cache one unit;
    returns its results in task order."""
    first = unit.tasks[0]
    point = first.point
    placement = first.placement
    if placement is None:
        placement = session.placement(
            point.name, point.mapper, scale=point.scale,
            preset=point.preset, use_cache=first.use_cache,
        )
    return session.simulate_placed(
        point.name, placement,
        [(task.point.pe, task.key) for task in unit.tasks],
        scale=point.scale, multicast=first.multicast, check=point.check,
        trace=point.trace, use_cache=first.use_cache,
    )


def _compute_in_worker(unit: _Unit) -> List:
    """Top-level worker entry point (must be picklable by reference).

    Builds a fresh session in the worker process over the parent's
    artifact cache (same settings), so the computed results are
    persisted where the parent and the next run look for them.
    """
    from repro.experiments.common import ExperimentSession

    first = unit.tasks[0]
    point = first.point
    session = ExperimentSession(
        point.config, scale=point.scale, preset=point.preset,
        cache=_worker_cache(unit.cache), use_cache=first.use_cache,
    )
    return _compute(session, unit)


def _compute_serial(session, unit: _Unit) -> List:
    """In-process computation (serial path and worker-failure fallback)."""
    from repro.experiments.common import ExperimentSession

    first = unit.tasks[0]
    if first.point.config != session.config:
        session = ExperimentSession(
            first.point.config, scale=session.scale, preset=session.preset,
            cache=session.cache, use_cache=first.use_cache,
        )
    return _compute(session, unit)


def _run_pool(pending: Sequence[tuple], jobs: int, info: dict,
              worker=_compute_in_worker) -> dict:
    """Fan units of work out over a process pool.

    ``pending`` holds ``(unit_id, keys, unit)`` triples, ``keys`` the
    points the unit computes.  Returns ``{unit_id: result-or-_FAILED}``;
    pool-level failures leave ids absent, which the caller treats the
    same as ``_FAILED``.  ``info["worker_failures"]`` counts the points
    a failure demotes to the serial fallback, like ``computed_*``.
    """
    computed: dict = {}
    try:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(pending))
        ) as pool:
            futures = [
                (unit_id, keys, pool.submit(worker, unit))
                for unit_id, keys, unit in pending
            ]
            for unit_id, keys, future in futures:
                try:
                    computed[unit_id] = future.result()
                    info["computed_parallel"] += len(keys)
                except Exception:
                    # Worker crash, unpicklable payload, broken pool:
                    # demote this unit to the serial fallback.
                    info["worker_failures"] += len(keys)
                    computed[unit_id] = _FAILED
    except Exception:
        # Pool construction / teardown failure: everything not yet
        # computed falls back to serial.
        info["worker_failures"] += sum(
            len(keys) for unit_id, keys, _ in pending
            if unit_id not in computed
        )
    return computed


def _sweep(session, span_name: str, tasks: List[_Task],
           jobs: Optional[int], use_cache: bool,
           stats: Optional[dict]) -> List:
    """Run a sweep: dedup, cache short-circuit, grouping, fan-out,
    fallback.

    The one loop behind both public entry points; returns the results
    in task order.  Pending points that differ only in PE form one
    unit of work (one compile, tables once per kernel); a pool gets
    one unit per point instead when there are fewer groups than
    workers, so the workers stay busy.
    """
    from repro.experiments.common import SIMULATION_NAMESPACE

    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    with obs.span(span_name, points=len(tasks), jobs=jobs) as sweep_span:
        # Deduplicate in-flight keys: one computation per unique key.
        by_key: Dict[str, List[int]] = {}
        for index, task in enumerate(tasks):
            by_key.setdefault(task.key, []).append(index)

        results: List = [None] * len(tasks)
        info = {
            "points": len(tasks),
            "unique": len(by_key),
            "deduplicated": len(tasks) - len(by_key),
            "cache_hits": 0,
            "computed_parallel": 0,
            "computed_serial": 0,
            "worker_failures": 0,
        }

        # Cache short-circuit before any worker spawns.
        groups: Dict[tuple, List[Tuple[str, _Task]]] = {}
        for key, indices in by_key.items():
            value = (session.cache.get(SIMULATION_NAMESPACE, key, PICKLE)
                     if use_cache else MISS)
            if value is MISS:
                task = tasks[indices[0]]
                groups.setdefault(_group_key(task), []).append((key, task))
                continue
            info["cache_hits"] += 1
            for index in indices:
                results[index] = value

        members = list(groups.values())
        if jobs > 1 and len(members) < jobs:
            members = [[entry] for group in members for entry in group]
        cache = _cache_settings(session.cache)
        pending = [
            (unit_id, [key for key, _ in group],
             _Unit(tuple(task for _, task in group), cache))
            for unit_id, group in enumerate(members)
        ]
        computed = (
            _run_pool(pending, jobs, info)
            if jobs > 1 and len(pending) > 1
            else {}
        )
        for unit_id, keys, unit in pending:
            values = computed.get(unit_id, _FAILED)
            if values is _FAILED:
                values = _compute_serial(session, unit)
                info["computed_serial"] += len(keys)
            for key, value in zip(keys, values):
                for index in by_key[key]:
                    results[index] = value

        for key, indices in by_key.items():
            point = tasks[indices[0]].point
            if point.trace:
                # Workers don't inherit obs enablement; issue logs
                # travel back in the result and the parent bridges.
                session._bridge_trace(key, f"{point.name}/{point.mapper}",
                                      results[indices[0]])
        sweep_span.set(**info)

    for counter_name, value in info.items():
        obs.counter(f"sweep.{counter_name}", value)

    if stats is not None:
        stats.update(info)
    return results


def simulate_many(session, points, jobs: Optional[int] = None, *,
                  use_cache: Optional[bool] = None,
                  stats: Optional[dict] = None) -> List:
    """Simulate many sweep points, fanned out across processes.

    Parameters
    ----------
    session:
        The owning :class:`~repro.experiments.common.ExperimentSession`.
    points:
        Iterable of :class:`SimPoint` (or matrix-name strings / kwargs
        dicts coerced to one).
    jobs:
        Worker processes; ``None`` consults ``REPRO_JOBS`` then a
        capped cpu count, ``1`` forces the serial path.
    use_cache:
        Override the session's cache policy for this sweep.
    stats:
        Optional dict, filled with sweep observability counters
        (``points``, ``unique``, ``cache_hits``, ``computed_parallel``,
        ``computed_serial``, ``worker_failures``, ``deduplicated``).

    Returns
    -------
    list
        Simulation results in point order — element ``i`` is exactly
        what ``session.simulate(**points[i])`` returns.
    """
    use_cache = session.use_cache if use_cache is None else bool(use_cache)
    tasks = []
    for point in points:
        resolved, key = resolve_point(session, point)
        tasks.append(_Task(key=key, point=resolved, use_cache=use_cache))
    return _sweep(session, "sweep.simulate_many", tasks, jobs, use_cache,
                  stats)


def simulate_placements(session, name: Optional[str], placements: Sequence,
                        *, pe: Union[str, PEModel] = "azul",
                        check: bool = False, multicast: str = "tree",
                        scale: Optional[int] = None,
                        jobs: Optional[int] = None,
                        use_cache: Optional[bool] = None,
                        stats: Optional[dict] = None) -> List:
    """Simulate explicit placements (usually one matrix), in parallel.

    The ablation studies (partitioner presets, seeds, multicast modes)
    sweep *placements* rather than registry names, so the points are
    keyed on the placement content itself (tile-assignment array
    digests) — two identical placements share one cache entry and one
    computation, whatever produced them.  Semantics match
    :func:`simulate_many`: point-order results, cache short-circuit,
    in-flight dedup, graceful serial fallback.

    Each entry of ``placements`` is either a ``Placement`` (taking the
    call-level ``name``/``pe``/``check``/``multicast`` defaults) or a
    dict ``{"placement": ..., "name": ..., "multicast": ...,
    "check": ..., "pe": ...}`` overriding them per point — the latter
    lets one call fan out a mixed sweep (e.g. tree vs unicast per
    matrix in ``abl_trees``).
    """
    from repro.experiments.common import SIMULATION_SCHEMA, _pe_key_part

    use_cache = session.use_cache if use_cache is None else bool(use_cache)
    scale = session.scale if scale is None else int(scale)
    config = session.config
    trace = obs.tracing_enabled()

    tasks = []
    for entry in placements:
        if not isinstance(entry, dict):
            entry = {"placement": entry}
        placement = entry["placement"]
        point_name = entry.get("name", name)
        point_pe = entry.get("pe", pe)
        point_check = bool(entry.get("check", check))
        point_multicast = entry.get("multicast", multicast)
        if point_name is None:
            raise ValueError(
                "simulate_placements: no matrix name for a point — pass "
                "a call-level name or a per-entry {'name': ...}"
            )
        key = session.cache.key(
            "simulate_placement", point_name, scale, _pe_key_part(point_pe),
            point_check, point_multicast, trace, config.cache_key(),
            placement.a_tile, placement.l_tile, placement.vec_tile,
            SIMULATION_SCHEMA,
        )
        point = SimPoint(
            name=point_name, mapper=placement.mapper, pe=point_pe,
            scale=scale, preset=session.preset, check=point_check,
            config=config, trace=trace,
        )
        tasks.append(_Task(key=key, point=point, use_cache=use_cache,
                           placement=placement, multicast=point_multicast))
    return _sweep(session, "sweep.simulate_placements", tasks, jobs,
                  use_cache, stats)
