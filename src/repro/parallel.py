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
* **Shared artifact cache** — workers inherit ``REPRO_CACHE_*`` from
  the environment, so their results land in the same store the parent
  (and the next run) reads.
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


def _compute(session, task: _Task):
    """Place (if needed), compile, simulate, verify and cache one point."""
    point = task.point
    placement = task.placement
    if placement is None:
        placement = session.placement(
            point.name, point.mapper, scale=point.scale,
            preset=point.preset, use_cache=task.use_cache,
        )
    return session.simulate_placed(
        point.name, placement, point.pe, key=task.key, scale=point.scale,
        multicast=task.multicast, check=point.check, trace=point.trace,
        use_cache=task.use_cache,
    )


def _compute_in_worker(task: _Task):
    """Top-level worker entry point (must be picklable by reference).

    Builds a fresh session in the worker process; the artifact cache is
    shared with the parent through the inherited ``REPRO_CACHE_*``
    environment, so the computed result is persisted for everyone.
    """
    from repro.experiments.common import ExperimentSession

    point = task.point
    session = ExperimentSession(
        point.config, scale=point.scale, preset=point.preset,
        use_cache=task.use_cache,
    )
    return _compute(session, task)


def _compute_serial(session, task: _Task):
    """In-process computation (serial path and worker-failure fallback)."""
    from repro.experiments.common import ExperimentSession

    if task.point.config != session.config:
        session = ExperimentSession(
            task.point.config, scale=session.scale, preset=session.preset,
            cache=session.cache, use_cache=task.use_cache,
        )
    return _compute(session, task)


def _run_pool(pending: Sequence[tuple], jobs: int, info: dict,
              worker=_compute_in_worker) -> dict:
    """Fan unique cache misses out over a process pool.

    ``pending`` holds ``(key, indices, task)`` triples.  Returns
    ``{key: result-or-_FAILED}``; pool-level failures leave keys
    absent, which the caller treats the same as ``_FAILED``.
    """
    computed: dict = {}
    try:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(pending))
        ) as pool:
            futures = [
                (key, pool.submit(worker, task))
                for key, _, task in pending
            ]
            for key, future in futures:
                try:
                    computed[key] = future.result()
                    info["computed_parallel"] += 1
                except Exception:
                    # Worker crash, unpicklable payload, broken pool:
                    # demote this point to the serial fallback.
                    info["worker_failures"] += 1
                    computed[key] = _FAILED
    except Exception:
        # Pool construction / teardown failure: everything not yet
        # computed falls back to serial.
        info["worker_failures"] += 1
    return computed


def _sweep(session, span_name: str, tasks: List[_Task],
           jobs: Optional[int], use_cache: bool,
           stats: Optional[dict]) -> List:
    """Run a sweep: dedup, cache short-circuit, fan-out, fallback.

    The one loop behind both public entry points; returns the results
    in task order.
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
        pending = []
        for key, indices in by_key.items():
            value = (session.cache.get(SIMULATION_NAMESPACE, key, PICKLE)
                     if use_cache else MISS)
            if value is MISS:
                pending.append((key, indices, tasks[indices[0]]))
                continue
            info["cache_hits"] += 1
            for index in indices:
                results[index] = value

        computed = (
            _run_pool(pending, jobs, info)
            if jobs > 1 and len(pending) > 1
            else {}
        )
        for key, indices, task in pending:
            value = computed.get(key, _FAILED)
            if value is _FAILED:
                value = _compute_serial(session, task)
                info["computed_serial"] += 1
            for index in indices:
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
