"""Tests for :mod:`repro.parallel` (process-parallel sweep execution).

The contract under test: ``simulate_many(session, points, jobs=N)``
returns, in point order, exactly what a serial loop of
``session.simulate`` calls returns, and ``simulate_placements`` with
``jobs=N`` exactly what it returns with ``jobs=1`` — through cache
hits, in-flight dedup, real worker processes, and the serial fallback
after worker failures.
"""

import numpy as np
import pytest

from repro import parallel
from repro.cache import PICKLE
from repro.config import AzulConfig
from repro.core import Placement
from repro.experiments.common import SIMULATION_NAMESPACE, ExperimentSession
from repro.parallel import (
    SimPoint,
    default_jobs,
    simulate_many,
    simulate_placements,
)

TINY = AzulConfig(mesh_rows=4, mesh_cols=4)
MATRIX = "tmt_sym"


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """A private on-disk cache for one test (parent and workers)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def _timings_equal(left, right):
    assert left.total_cycles == right.total_cycles
    for a, b in zip(left.kernel_results, right.kernel_results):
        assert a.cycles == b.cycles
        assert a.op_counts == b.op_counts
        assert a.spills == b.spills
        assert np.array_equal(a.output, b.output)


class TestSimPoint:
    def test_coercion(self):
        assert parallel._coerce(MATRIX) == SimPoint(name=MATRIX)
        assert parallel._coerce({"name": MATRIX, "check": False}) \
            == SimPoint(name=MATRIX, check=False)
        point = SimPoint(MATRIX)
        assert parallel._coerce(point) is point
        with pytest.raises(TypeError):
            parallel._coerce(42)

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.setenv(parallel.ENV_JOBS, "3")
        assert default_jobs() == 3
        monkeypatch.setenv(parallel.ENV_JOBS, "not-a-number")
        assert default_jobs() >= 1
        monkeypatch.delenv(parallel.ENV_JOBS)
        assert 1 <= default_jobs() <= 8


class TestSimulateMany:
    def test_matches_serial_and_dedups(self, fresh_cache):
        session = ExperimentSession(TINY)
        serial = session.simulate(MATRIX, "azul", "azul", check=False)
        points = [
            SimPoint(MATRIX, check=False),
            SimPoint(MATRIX, check=False),   # duplicate: computed once
            SimPoint(MATRIX, mapper="round_robin", pe="dalorex",
                     check=False),
        ]
        stats = {}
        results = simulate_many(session, points, jobs=1, stats=stats)
        assert stats["points"] == 3
        assert stats["unique"] == 2
        assert stats["deduplicated"] == 1
        _timings_equal(results[0], serial)
        _timings_equal(results[1], serial)
        assert results[0] is results[1]
        assert results[2].total_cycles != results[0].total_cycles

    def test_parallel_identical_to_serial(self, fresh_cache):
        points = [
            SimPoint(MATRIX, check=False),
            SimPoint(MATRIX, mapper="round_robin", pe="dalorex",
                     check=False),
        ]
        serial_stats = {}
        serial = simulate_many(
            ExperimentSession(TINY), points, jobs=1, use_cache=False, stats=serial_stats,
        )
        parallel_stats = {}
        fanned = simulate_many(
            ExperimentSession(TINY), points, jobs=2, stats=parallel_stats,
        )
        assert serial_stats["computed_serial"] == 2
        assert parallel_stats["computed_parallel"] == 2
        assert parallel_stats["worker_failures"] == 0
        for a, b in zip(serial, fanned):
            _timings_equal(a, b)

    def test_cache_hits_short_circuit(self, fresh_cache):
        points = [SimPoint(MATRIX, check=False)]
        first = ExperimentSession(TINY)
        warm = simulate_many(first, points, jobs=1)
        stats = {}
        second = ExperimentSession(TINY)
        cached = simulate_many(second, points, jobs=4, stats=stats)
        assert stats["cache_hits"] == 1
        assert stats["computed_parallel"] == 0
        assert stats["computed_serial"] == 0
        _timings_equal(warm[0], cached[0])

    def test_workers_populate_shared_cache(self, fresh_cache):
        """A jobs>1 sweep leaves the next session fully cached."""
        points = [
            SimPoint(MATRIX, check=False),
            SimPoint(MATRIX, mapper="round_robin", pe="dalorex",
                     check=False),
        ]
        simulate_many(ExperimentSession(TINY), points, jobs=2)
        stats = {}
        simulate_many(ExperimentSession(TINY), points, jobs=2,
                      stats=stats)
        assert stats["cache_hits"] == 2
        assert stats["computed_parallel"] == 0

    def test_worker_failure_falls_back_to_serial(self, fresh_cache,
                                                 monkeypatch):
        """A crashing pool demotes points to in-process computation."""
        def broken_pool(pending, jobs, info, worker=None):
            info["worker_failures"] += len(pending)
            return {}

        monkeypatch.setattr(parallel, "_run_pool", broken_pool)
        session = ExperimentSession(TINY)
        stats = {}
        results = simulate_many(
            session, [SimPoint(MATRIX, check=False),
             SimPoint(MATRIX, pe="ideal", check=False)],
            jobs=2, stats=stats,
        )
        assert stats["worker_failures"] == 2
        assert stats["computed_serial"] == 2
        reference = session.simulate(MATRIX, "azul", "azul", check=False)
        _timings_equal(results[0], reference)

    def test_run_pool_isolates_single_crash(self):
        """One bad point fails alone; the rest still compute in workers."""
        pending = [
            ("good", [0], {"value": 3}),
            ("bad", [1], {"value": None}),
        ]
        info = {"computed_parallel": 0, "worker_failures": 0}
        computed = parallel._run_pool(
            pending, 2, info, worker=_square_or_crash,
        )
        assert computed["good"] == 9
        assert computed["bad"] is parallel._FAILED
        assert info["computed_parallel"] == 1
        assert info["worker_failures"] == 1

    def test_cache_override_reaches_workers(self, fresh_cache):
        """``use_cache=False`` is honoured by the workers too: entries
        already under the points' keys are neither read nor served."""
        points = [
            SimPoint(MATRIX, check=False),
            SimPoint(MATRIX, mapper="round_robin", pe="dalorex",
                     check=False),
        ]
        session = ExperimentSession(TINY)
        for point in points:
            key = session.simulation_key(point.name, point.mapper,
                                         point.pe, check=False)
            session.cache.put(SIMULATION_NAMESPACE, key, "POISON", PICKLE)
        serial = simulate_many(session, points, jobs=1, use_cache=False)
        fanned = simulate_many(ExperimentSession(TINY), points, jobs=2,
                               use_cache=False)
        assert "POISON" not in serial
        assert "POISON" not in fanned
        for a, b in zip(serial, fanned):
            _timings_equal(a, b)

    def test_invalid_matrix_raises(self, fresh_cache):
        session = ExperimentSession(TINY)
        with pytest.raises(ValueError):
            simulate_many(session, [SimPoint("not_a_matrix")], jobs=1)


def _square_or_crash(spec):
    """Module-level worker (picklable) used by the crash-isolation test."""
    value = spec["value"]
    if value is None:
        raise RuntimeError("synthetic worker crash")
    return value * value


class TestSimulatePlacements:
    def test_matches_direct_simulation(self, fresh_cache):
        session = ExperimentSession(TINY)
        placement = session.placement(MATRIX, "azul")
        direct = session.simulate(MATRIX, "azul", "azul", check=False)
        stats = {}
        results = session.simulate_placements(
            MATRIX, [placement, placement], check=False, jobs=1,
            stats=stats,
        )
        # Identical placements share one computation and one cache slot.
        assert stats["unique"] == 1
        assert stats["deduplicated"] == 1
        _timings_equal(results[0], direct)
        assert results[0] is results[1]

    def test_per_point_overrides(self, fresh_cache):
        session = ExperimentSession(TINY)
        placement = session.placement(MATRIX, "azul")
        tree, unicast = session.simulate_placements(placements=[
            {"name": MATRIX, "placement": placement,
             "multicast": "tree", "check": False},
            {"name": MATRIX, "placement": placement,
             "multicast": "unicast", "check": False},
        ], jobs=1)
        assert unicast.link_activations() > tree.link_activations()

    def test_results_are_cached(self, fresh_cache):
        session = ExperimentSession(TINY)
        placement = session.placement(MATRIX, "azul")
        session.simulate_placements(MATRIX, [placement], check=False,
                                    jobs=1)
        stats = {}
        again = ExperimentSession(TINY).simulate_placements(
            MATRIX, [placement], check=False, jobs=1, stats=stats,
        )
        assert stats["cache_hits"] == 1
        assert again[0].total_cycles > 0

    def test_parallel_identical_to_serial(self, fresh_cache, tmp_path,
                                          monkeypatch):
        """A mixed sweep (multicast modes, PEs, mappers, a duplicate)
        fanned over workers matches the serial sweep point for point,
        with the same sweep counters."""
        session = ExperimentSession(TINY)
        azul = session.placement(MATRIX, "azul")
        spread = session.placement(MATRIX, "round_robin")
        points = [
            {"placement": azul, "multicast": "tree"},
            {"placement": azul, "multicast": "unicast"},
            {"placement": azul, "multicast": "tree", "pe": "dalorex"},
            {"placement": azul, "multicast": "tree"},   # duplicate
            {"placement": spread, "multicast": "unicast",
             "pe": "dalorex"},
        ]
        runs = {}
        for jobs in (1, 2):
            # Each run gets its own empty cache, so both compute.
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / str(jobs)))
            stats = {}
            results = simulate_placements(
                ExperimentSession(TINY), MATRIX, points, check=True,
                jobs=jobs, stats=stats,
            )
            runs[jobs] = (results, stats)
        (serial, serial_stats), (fanned, fanned_stats) = runs[1], runs[2]
        assert serial_stats["computed_serial"] == 4
        assert fanned_stats["computed_parallel"] == 4
        assert fanned_stats["computed_serial"] == 0
        for counter in ("computed_parallel", "computed_serial"):
            serial_stats.pop(counter)
            fanned_stats.pop(counter)
        assert serial_stats == fanned_stats == {
            "points": 5, "unique": 4, "deduplicated": 1,
            "cache_hits": 0, "worker_failures": 0,
        }
        assert fanned[0] is fanned[3]
        for a, b in zip(serial, fanned):
            _timings_equal(a, b)
            assert a.link_activations() == b.link_activations()

    def test_failed_worker_point_falls_back_to_serial(self, fresh_cache):
        """A point whose worker fails is computed in-process instead;
        the other points still come from workers."""
        session = ExperimentSession(TINY)
        placement = session.placement(MATRIX, "azul")
        # A payload that cannot be shipped to a worker fails that
        # point's future, exactly like a crash inside the worker.
        unshippable = Placement(
            placement.n_tiles, placement.a_tile, placement.l_tile,
            placement.vec_tile, mapper=placement.mapper,
        )
        unshippable.hook = lambda: None
        stats = {}
        tree, unicast = simulate_placements(session, MATRIX, [
            {"placement": placement, "multicast": "tree"},
            {"placement": unshippable, "multicast": "unicast"},
        ], jobs=2, stats=stats)
        assert stats["worker_failures"] == 1
        assert stats["computed_parallel"] == 1
        assert stats["computed_serial"] == 1
        reference = simulate_placements(
            ExperimentSession(TINY), MATRIX, [placement],
            multicast="unicast", jobs=1, use_cache=False,
        )[0]
        _timings_equal(unicast, reference)
        assert unicast.link_activations() > tree.link_activations()

    def test_missing_name_raises(self, fresh_cache):
        session = ExperimentSession(TINY)
        placement = session.placement(MATRIX, "azul")
        with pytest.raises(ValueError):
            session.simulate_placements(placements=[placement])
