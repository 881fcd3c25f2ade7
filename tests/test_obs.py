"""Tests for :mod:`repro.obs` — the observability leaf library.

Covers the registry semantics, the disabled no-op fast paths, span
nesting, exporter file formats (Chrome-trace / metrics JSON), and the
end-to-end pipeline integration: a traced tiny-machine simulation must
produce a Perfetto-loadable trace with pipeline spans and bridged
simulator issue events.
"""

import json

import pytest

import repro.obs as obs
from repro.config import AzulConfig
from repro.obs.registry import HISTOGRAM_SAMPLE_CAP, MetricsRegistry
from repro.obs.spans import NOOP_SPAN, PIPELINE_PID, Tracer


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test starts and ends with observability off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        registry.counter_inc("cache.hits")
        registry.counter_inc("cache.hits", 2.0)
        assert registry.counter_value("cache.hits") == 3.0

    def test_missing_counter_is_zero(self):
        assert MetricsRegistry().counter_value("never.touched") == 0.0

    def test_gauge_keeps_last_value(self):
        registry = MetricsRegistry()
        registry.gauge_set("pool.workers", 4)
        registry.gauge_set("pool.workers", 8)
        assert registry.gauge_value("pool.workers") == 8.0

    def test_histogram_statistics(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0):
            registry.observe("phase.seconds", value)
        stats = registry.histogram("phase.seconds").as_dict()
        assert stats["count"] == 3
        assert stats["sum"] == 6.0
        assert stats["min"] == 1.0
        assert stats["max"] == 3.0
        assert stats["mean"] == 2.0

    def test_histogram_sample_cap(self):
        registry = MetricsRegistry()
        for i in range(HISTOGRAM_SAMPLE_CAP + 100):
            registry.observe("hot", float(i))
        histogram = registry.histogram("hot")
        assert len(histogram.samples) == HISTOGRAM_SAMPLE_CAP
        # Aggregates still see every observation.
        assert histogram.count == HISTOGRAM_SAMPLE_CAP + 100

    def test_snapshot_shape_and_reset(self):
        registry = MetricsRegistry()
        registry.counter_inc("a")
        registry.gauge_set("b", 1.0)
        registry.observe("c", 0.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"a": 1.0}
        assert snapshot["gauges"] == {"b": 1.0}
        assert snapshot["histograms"]["c"]["count"] == 1
        registry.reset()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }


# ----------------------------------------------------------------------
# Disabled fast paths
# ----------------------------------------------------------------------
class TestDisabledNoOps:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert not obs.metrics_enabled()
        assert not obs.tracing_enabled()

    def test_disabled_calls_record_nothing(self):
        obs.counter("x")
        obs.gauge("y", 1.0)
        obs.observe("z", 2.0)
        with obs.span("quiet"):
            pass
        with obs.timer("quiet.timer"):
            pass
        assert obs.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        assert obs.tracer().trace_events() == []

    def test_disabled_span_is_shared_noop(self):
        first = obs.span("a", detail=1)
        second = obs.timer("b")
        assert first is NOOP_SPAN
        assert second is NOOP_SPAN
        first.set(anything="goes")  # must not raise

    def test_disabled_allocate_pid_is_zero(self):
        assert obs.allocate_pid("foreign") == 0
        obs.add_trace_events([{"name": "e", "ph": "X"}])
        assert obs.tracer().trace_events() == []

    def test_enable_disable_roundtrip(self):
        obs.enable()
        assert obs.enabled() and obs.tracing_enabled()
        obs.disable()
        assert not obs.enabled()

    def test_metrics_only_mode(self):
        obs.enable(metrics=True, tracing=False)
        obs.counter("m")
        with obs.timer("phase"):
            pass
        snapshot = obs.snapshot()
        assert snapshot["counters"]["m"] == 1.0
        assert snapshot["histograms"]["phase.seconds"]["count"] == 1
        assert obs.tracer().trace_events() == []  # no spans recorded


# ----------------------------------------------------------------------
# Spans and the tracer
# ----------------------------------------------------------------------
class TestSpans:
    def test_span_records_event(self):
        obs.enable()
        with obs.span("outer", kind="test"):
            pass
        events = obs.tracer().trace_events()
        # First event names the pipeline process, then the span.
        assert events[0]["ph"] == "M"
        assert events[0]["pid"] == PIPELINE_PID
        span_events = [e for e in events if e["ph"] == "X"]
        assert span_events[0]["name"] == "outer"
        assert span_events[0]["args"]["kind"] == "test"
        assert span_events[0]["dur"] >= 0

    def test_span_nesting_contained(self):
        obs.enable()
        with obs.span("parent"):
            with obs.span("child"):
                pass
        by_name = {
            e["name"]: e
            for e in obs.tracer().trace_events() if e["ph"] == "X"
        }
        parent, child = by_name["parent"], by_name["child"]
        assert child["ts"] >= parent["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"]

    def test_set_adds_args_late(self):
        obs.enable()
        with obs.span("phase") as handle:
            handle.set(result=42)
        (event,) = [
            e for e in obs.tracer().trace_events() if e["ph"] == "X"
        ]
        assert event["args"]["result"] == 42

    def test_timer_is_span_plus_histogram(self):
        obs.enable()
        with obs.timer("both"):
            pass
        assert obs.snapshot()["histograms"]["both.seconds"]["count"] == 1
        assert any(
            e["ph"] == "X" and e["name"] == "both"
            for e in obs.tracer().trace_events()
        )

    def test_allocate_pid_registers_foreign_process(self):
        obs.enable()
        pid = obs.allocate_pid("kernel:spmv (cycles)")
        assert pid > PIPELINE_PID
        obs.add_trace_events([
            {"name": "op", "ph": "X", "ts": 0.0, "dur": 1.0,
             "pid": pid, "tid": 0, "cat": "issue"},
        ])
        events = obs.tracer().trace_events()
        metas = [e for e in events if e["ph"] == "M"]
        assert any(
            m["pid"] == pid
            and m["args"]["name"] == "kernel:spmv (cycles)"
            for m in metas
        )
        assert any(e.get("cat") == "issue" for e in events)

    def test_fresh_tracer_is_independent(self):
        tracer = Tracer()
        with tracer.span("only.here"):
            pass
        assert any(
            e["ph"] == "X" and e["name"] == "only.here"
            for e in tracer.trace_events()
        )
        assert obs.tracer().trace_events() == []


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExport:
    def test_metrics_round_trip(self, tmp_path):
        obs.enable(metrics=True, tracing=False)
        obs.counter("cache.hits_disk", 3)
        obs.observe("pipeline.simulate.seconds", 0.25)
        path = tmp_path / "metrics.json"
        obs.write_metrics(path, extra={"overrides": {"REPRO_JOBS": None}})
        payload = json.loads(path.read_text())
        assert payload["schema"] == obs.METRICS_SCHEMA
        assert payload["counters"]["cache.hits_disk"] == 3.0
        histogram = payload["histograms"]["pipeline.simulate.seconds"]
        assert histogram["count"] == 1
        assert "overrides" in payload

    def test_chrome_trace_schema(self, tmp_path):
        obs.enable()
        with obs.span("pipeline.place", matrix="tmt_sym"):
            pass
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(path, metadata={"experiments": ["fig20"]})
        payload = json.loads(path.read_text())
        assert isinstance(payload["traceEvents"], list)
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["experiments"] == ["fig20"]
        for event in payload["traceEvents"]:
            assert event["ph"] in ("X", "M")
            assert isinstance(event["pid"], int)
            if event["ph"] == "X":
                assert {"name", "ts", "dur", "tid"} <= set(event)

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        obs.enable()
        obs.write_chrome_trace(tmp_path / "t.json")
        leftovers = [
            p for p in tmp_path.iterdir() if p.name != "t.json"
        ]
        assert leftovers == []


# ----------------------------------------------------------------------
# End-to-end: traced pipeline on a tiny machine
# ----------------------------------------------------------------------
TINY = AzulConfig(mesh_rows=2, mesh_cols=2)


class TestPipelineIntegration:
    @pytest.fixture()
    def session(self):
        from repro.experiments.common import (
            ExperimentSession,
            clear_prepared_matrices,
        )

        # The prepared-matrix memo is process-wide; drop it so the
        # pipeline.prepare span fires regardless of test order.
        clear_prepared_matrices()
        return ExperimentSession(TINY, use_cache=False)

    def test_traced_simulation_end_to_end(self, session, tmp_path):
        obs.enable()
        session.simulate("tmt_sym", trace=True)
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        session.export_trace(trace_path)
        session.export_metrics(metrics_path)

        trace = json.loads(trace_path.read_text())
        names = {
            e["name"] for e in trace["traceEvents"] if e["ph"] == "X"
        }
        for span_name in ("pipeline.prepare", "pipeline.place",
                          "pipeline.simulate", "place.partition",
                          "partition.bisect"):
            assert span_name in names, f"missing span {span_name}"
        # Simulator issue events live on foreign (cycle-time) processes.
        issue = [
            e for e in trace["traceEvents"] if e.get("cat") == "issue"
        ]
        assert issue
        assert all(e["pid"] > PIPELINE_PID for e in issue)

        metrics = json.loads(metrics_path.read_text())
        timers = metrics["histograms"]
        assert timers["pipeline.simulate.seconds"]["count"] == 1
        assert "partition.coarsen.seconds" in timers
        assert "overrides" in metrics and "cache" in metrics

    def test_trace_bridged_once_per_key(self, session):
        def issue_events():
            return [
                e for e in obs.tracer().trace_events()
                if e.get("cat") == "issue"
            ]

        obs.enable()
        session.simulate("tmt_sym", trace=True)
        first = len(issue_events())
        assert first > 0
        # Re-simulating the same point must not duplicate the
        # issue-event timelines (the bridge dedups by cache key).
        session.simulate("tmt_sym", trace=True)
        assert len(issue_events()) == first

    def test_untraced_results_have_no_issue_events(self, session):
        obs.enable(metrics=True, tracing=False)
        session.simulate("tmt_sym")
        assert obs.tracer().trace_events() == []

    def test_sweep_counters_emitted(self, session):
        obs.enable(metrics=True, tracing=False)
        from repro.parallel import simulate_many

        simulate_many(session, ["tmt_sym", "tmt_sym"], jobs=1)
        counters = obs.snapshot()["counters"]
        assert counters["sweep.points"] == 2.0
        assert counters["sweep.deduplicated"] == 1.0

    def test_cache_counters_unified(self, tmp_path):
        from repro.cache import ArtifactCache
        from repro.experiments.common import ExperimentSession

        obs.enable(metrics=True, tracing=False)
        cache = ArtifactCache(root=tmp_path)
        caching = ExperimentSession(TINY, cache=cache, use_cache=True)
        caching.simulate("tmt_sym", mapper="block")
        caching.simulate("tmt_sym", mapper="block")
        counters = obs.snapshot()["counters"]
        hits = sum(
            value for name, value in counters.items()
            if name.startswith("cache.hits")
        )
        misses = sum(
            value for name, value in counters.items()
            if name.startswith("cache.misses")
        )
        assert misses >= 1
        # Second simulate short-circuits in some cache tier.
        assert hits >= 1
