"""Tests for the declarative experiment specs and the staged executor.

Covers the registry contract (every experiment module registers
exactly one spec whose id matches the runner table and DESIGN.md's
per-experiment index), the global point dedup across experiments,
checkpoint-based ``--resume``, ``--keep-going`` failure isolation,
``run_experiment`` as a one-experiment executor run, and the
sibling-group extension of the AST layer checker.
"""

import importlib
import re
import sys
from pathlib import Path

import pytest

from repro.config import AzulConfig
from repro.experiments.runner import (
    EXPERIMENTS,
    load_spec,
    load_specs,
    run_experiment,
)
from repro.experiments.executor import (
    ExperimentFailure,
    execute,
    plan_experiments,
)
from repro.experiments.spec import (
    ExperimentPlan,
    ExperimentSpec,
    register,
    registered_specs,
    unregister,
)
from repro.perf import ExperimentResult

REPO = Path(__file__).resolve().parent.parent
SMALL = ["offshore", "tmt_sym"]
TINY_CONFIG = AzulConfig(mesh_rows=4, mesh_cols=4)


def _design_ids():
    """Experiment ids from DESIGN.md's per-experiment index tables."""
    text = (REPO / "DESIGN.md").read_text(encoding="utf-8")
    start = text.index("## 4. Per-experiment index")
    end = text.index("## 5", start)
    ids = set()
    for line in text[start:end].splitlines():
        match = re.match(r"\|\s*(\w+)\s*\|", line)
        if match and match.group(1) not in ("ID",):
            ids.add(match.group(1))
    return ids


def _synthetic(experiment_id, counter, fail=False):
    """Register a cheap analytic spec that counts reduce() calls."""

    @register(experiment_id, title=f"synthetic {experiment_id}",
              tags=("extension", "study", "analytic"))
    def spec(jobs=None):
        def reduce(sims):
            if fail:
                raise RuntimeError(f"boom in {experiment_id}")
            counter[experiment_id] = counter.get(experiment_id, 0) + 1
            result = ExperimentResult(
                experiment=experiment_id, title="synthetic",
                columns=["k", "v"],
            )
            result.add_row(k="calls", v=counter[experiment_id])
            return result

        return ExperimentPlan(session=None, reduce=reduce)

    return spec


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_every_module_registers_matching_spec(self):
        specs = load_specs()
        assert [spec.id for spec in specs] == list(EXPERIMENTS)
        for spec in specs:
            assert spec.module == EXPERIMENTS[spec.id]
            assert spec.title
            assert "jobs" in spec.params
            # The spec is the module's only entry point: no run/main
            # shims beside it.
            names = vars(importlib.import_module(spec.module))
            assert "run" not in names and "main" not in names, spec.id

    def test_registry_snapshot_complete(self):
        load_specs()
        assert set(EXPERIMENTS) <= set(registered_specs())

    def test_ids_match_design_doc(self):
        assert _design_ids() == set(EXPERIMENTS)

    def test_tag_vocabulary(self):
        for spec in load_specs():
            tags = set(spec.tags)
            assert len(tags & {"paper", "extension"}) == 1, spec.id
            assert tags & {"figure", "table", "study", "ablation"}, spec.id
            assert len(tags & {"sim", "analytic"}) == 1, spec.id
            if "sweep" in tags:
                assert "sim" in tags, spec.id

    def test_sweep_tag_matches_default_points(self):
        # "sweep" means: the builder contributes points by default.
        for spec in load_specs():
            plan = spec.plan()
            assert bool(plan.points) == ("sweep" in spec.tags), spec.id

    def test_builder_must_declare_jobs(self):
        with pytest.raises(TypeError, match="jobs"):
            @register("bogus_nojobs", title="x")
            def spec():  # pragma: no cover - registration must fail
                pass
        assert "bogus_nojobs" not in registered_specs()

    def test_duplicate_id_from_other_module_rejected(self):
        def foreign(jobs=None):  # pragma: no cover - never built
            pass

        foreign.__module__ = "somewhere.else"
        register("dup_id_test", title="first")(foreign)
        try:
            with pytest.raises(ValueError, match="already registered"):
                @register("dup_id_test", title="again")
                def other(jobs=None):  # pragma: no cover
                    pass
        finally:
            unregister("dup_id_test")

    def test_unknown_override_rejected(self):
        spec = load_spec("fig21")
        with pytest.raises(TypeError, match="does not accept"):
            spec.plan(nonsense=1)

    def test_describe_lists_id_title_tags(self):
        spec = load_spec("fig21")
        line = spec.describe()
        assert "fig21" in line and spec.title in line
        for tag in spec.tags:
            assert tag in line


# ----------------------------------------------------------------------
# Planning / global dedup
# ----------------------------------------------------------------------
class TestPlanning:
    def test_global_dedup_across_experiments(self, fresh_cache):
        specs = [load_spec("fig21"), load_spec("fig22")]
        _, sweep = plan_experiments(
            specs,
            overrides={"matrices": SMALL, "config": TINY_CONFIG},
        )
        assert sweep.total_points == 4
        assert sweep.sum_unique == 4
        assert sweep.unique_points == 2
        assert sweep.deduplicated == 2
        assert sweep.predicted_cache_hits == 0
        assert sweep.to_compute == 2
        rendered = sweep.render()
        assert "4 points, 2 unique globally" in rendered

    def test_predicted_cache_hits_after_execute(self, fresh_cache):
        overrides = {"matrices": SMALL, "config": TINY_CONFIG}
        execute([load_spec("fig21")], overrides=overrides)
        _, sweep = plan_experiments(
            [load_spec("fig21"), load_spec("fig22")], overrides=overrides,
        )
        # fig21's two points are on disk; fig22 shares them.
        assert sweep.predicted_cache_hits == 2
        assert sweep.to_compute == 0

    def test_plan_never_simulates(self, fresh_cache):
        _, sweep = plan_experiments(
            [load_spec("fig21")],
            overrides={"matrices": SMALL, "config": TINY_CONFIG},
        )
        assert sweep.unique_points == 2
        simulations = fresh_cache / "simulations"
        assert not simulations.exists() or not any(simulations.iterdir())

    def test_jobs_is_stripped_from_overrides(self, fresh_cache):
        entries, _ = plan_experiments(
            [load_spec("fig21")],
            overrides={"jobs": 7, "matrices": SMALL,
                       "config": TINY_CONFIG},
        )
        assert "jobs" not in entries[0].overrides

    def test_build_failure_aborts_without_keep_going(self, fresh_cache):
        counter = {}

        @register("syn_badbuild", title="bad build",
                  tags=("extension", "study", "analytic"))
        def bad(jobs=None):
            raise RuntimeError("builder exploded")

        try:
            with pytest.raises(ExperimentFailure, match="syn_badbuild"):
                plan_experiments([bad])
            _, sweep = plan_experiments([bad], keep_going=True)
            assert sweep.build_failures == 1
            assert "WARNING" in sweep.render()
        finally:
            unregister("syn_badbuild")


# ----------------------------------------------------------------------
# Execution: resume + keep-going
# ----------------------------------------------------------------------
class TestExecution:
    def test_resume_skips_checkpointed(self, fresh_cache):
        counter = {}
        specs = [_synthetic("syn_res_a", counter),
                 _synthetic("syn_res_b", counter)]
        try:
            first = execute(specs)
            assert first.exit_code == 0
            assert counter == {"syn_res_a": 1, "syn_res_b": 1}

            second = execute(specs, resume=True)
            assert second.exit_code == 0
            assert [o.status for o in second.outcomes] == ["resumed"] * 2
            # reduce() never re-ran; results replay from checkpoints.
            assert counter == {"syn_res_a": 1, "syn_res_b": 1}
            assert second.outcomes[0].result.rows == first.outcomes[0].result.rows
            assert second.sweep.resumed == 2
        finally:
            unregister("syn_res_a")
            unregister("syn_res_b")

    def test_resume_respects_override_fingerprint(self, fresh_cache):
        overrides = {"matrices": SMALL, "config": TINY_CONFIG}
        execute([load_spec("fig21")], overrides=overrides)
        report = execute(
            [load_spec("fig21")], resume=True,
            overrides={"matrices": ["offshore"], "config": TINY_CONFIG},
        )
        # Different matrix set -> different checkpoint -> not resumed.
        assert report.outcomes[0].status == "ok"
        assert len(report.outcomes[0].result.rows) == 1

    def test_keep_going_isolates_failures(self, fresh_cache):
        counter = {}
        specs = [_synthetic("syn_kg_bad", counter, fail=True),
                 _synthetic("syn_kg_good", counter)]
        try:
            report = execute(specs, keep_going=True)
            assert report.exit_code == 1
            statuses = {o.experiment_id: o.status for o in report.outcomes}
            assert statuses == {"syn_kg_bad": "failed",
                                "syn_kg_good": "ok"}
            assert counter == {"syn_kg_good": 1}
            (failure,) = report.failures()
            assert "boom in syn_kg_bad" in failure.error
        finally:
            unregister("syn_kg_bad")
            unregister("syn_kg_good")

    def test_failure_aborts_without_keep_going(self, fresh_cache):
        counter = {}
        specs = [_synthetic("syn_abort", counter, fail=True)]
        try:
            with pytest.raises(ExperimentFailure, match="syn_abort"):
                execute(specs)
        finally:
            unregister("syn_abort")

    def test_shared_sweep_serves_both_experiments(self, fresh_cache):
        report = execute(
            [load_spec("fig21"), load_spec("fig22")],
            overrides={"matrices": SMALL, "config": TINY_CONFIG},
        )
        assert report.exit_code == 0
        assert report.sweep.unique_points == 2
        assert report.sweep_stats.get("points") == 2
        for outcome in report.outcomes:
            assert outcome.status == "ok"
            assert len(outcome.result.rows) == 2


# ----------------------------------------------------------------------
# run_experiment: one experiment through the executor
# ----------------------------------------------------------------------
class TestRunExperiment:
    def test_unknown_override_raises(self, fresh_cache):
        with pytest.raises(TypeError, match="does not accept"):
            run_experiment("tab2", nonsense=1)

    def test_failure_chains_cause(self, fresh_cache, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "syn_run_fail", __name__)
        _synthetic("syn_run_fail", {}, fail=True)
        try:
            with pytest.raises(ExperimentFailure,
                               match="syn_run_fail") as info:
                run_experiment("syn_run_fail")
            cause = info.value.__cause__
            assert isinstance(cause, RuntimeError)
            assert "boom in syn_run_fail" in str(cause)
            assert info.value.cause is cause
        finally:
            unregister("syn_run_fail")

    def test_returns_the_executor_result(self, fresh_cache):
        result = run_experiment("tab2")
        report = execute([load_spec("tab2")], resume=True)
        # The run checkpointed its result; resume replays it.
        assert report.outcomes[0].status == "resumed"
        assert report.outcomes[0].result.rows == result.rows


# ----------------------------------------------------------------------
# Layer checker: sibling groups
# ----------------------------------------------------------------------
class TestSiblingLayers:
    @pytest.fixture
    def check_layers(self):
        sys.path.insert(0, str(REPO / "tools"))
        try:
            import check_layers
            yield check_layers
        finally:
            sys.path.remove(str(REPO / "tools"))

    def test_experiment_modules_share_one_rank(self, check_layers):
        fig21_layer = check_layers._layer("repro.experiments.fig21")
        fig22_layer = check_layers._layer("repro.experiments.fig22")
        runner_layer = check_layers._layer("repro.experiments.runner")
        spec_layer = check_layers._layer("repro.experiments.spec")
        assert fig21_layer[1] == fig22_layer[1]
        assert spec_layer[1] < fig21_layer[1] < runner_layer[1]

    def test_sibling_import_flagged(self, check_layers, tmp_path):
        pkg = tmp_path / "repro" / "experiments"
        pkg.mkdir(parents=True)
        for name in ("__init__", "spec", "common", "executor"):
            (pkg / f"{name}.py").write_text("")
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "fig21.py").write_text(
            "from repro.experiments.fig22 import spec\n")
        (pkg / "fig22.py").write_text("")
        violations = check_layers.check(tmp_path)
        assert len(violations) == 1
        assert "sibling" in violations[0]

    def test_downward_import_allowed(self, check_layers, tmp_path):
        pkg = tmp_path / "repro" / "experiments"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "spec.py").write_text("")
        (pkg / "fig21.py").write_text(
            "from repro.experiments.spec import register\n")
        (pkg / "runner.py").write_text(
            "from repro.experiments.fig21 import spec\n")
        assert check_layers.check(tmp_path) == []

    def test_upward_import_flagged(self, check_layers, tmp_path):
        pkg = tmp_path / "repro" / "experiments"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "executor.py").write_text(
            "def f():\n    from repro.experiments.runner import load_spec\n")
        (pkg / "runner.py").write_text("")
        violations = check_layers.check(tmp_path)
        assert len(violations) == 1
        assert "higher" in violations[0]
