"""Equivalence contract of the dataflow lowering.

The array-backed ``lower_kernel`` must be an *exact* drop-in for the
per-element ``ReferenceLowering`` golden model in ``tests/oracles``:
bit-identical compiled programs on real suite matrices across
geometries and multicast modes, and identical end-to-end simulated
cycles.  ``TestLoweringRegistry`` holds the one-lowering contract: no
registry, builder argument or environment switch selects another.
Also covers the content-addressed program cache built on that
guarantee: sweep points differing only in simulator knobs reuse one
compilation.
"""

import pytest

from repro import dataflow, obs
from repro.cache import ArtifactCache
from repro.comm import MeshGeometry, TorusGeometry
from repro.config import AzulConfig, overrides
from repro.core import map_block
from repro.dataflow import build_pcg_program, kernel_program
from repro.precond import ic0
from repro.sparse.suite import get_suite_matrix
from tests.oracles.lowering import ReferenceLowering, use_reference_lowering

CONFIG = AzulConfig(mesh_rows=4, mesh_cols=4)
N_TILES = 16


@pytest.fixture(scope="module")
def mapped(request):
    """Suite matrix + IC(0) factor + 16-tile block placement (memoized)."""
    built = {}

    def get(name):
        if name not in built:
            matrix, b = get_suite_matrix(name, scale=1)
            lower = ic0(matrix)
            built[name] = (matrix, lower, map_block(matrix, lower, N_TILES), b)
        return built[name]

    return get


def _build_pair(monkeypatch, matrix, lower, placement, geometry, multicast):
    vectorized = build_pcg_program(
        matrix, lower, placement, geometry, CONFIG, multicast=multicast,
    )
    with monkeypatch.context() as patch:
        use_reference_lowering(patch)
        reference = build_pcg_program(
            matrix, lower, placement, geometry, CONFIG, multicast=multicast,
        )
    return vectorized, reference


class TestBitParity:
    """Vectorized and reference lowering emit byte-identical programs."""

    @pytest.mark.parametrize("name", ["tmt_sym", "offshore", "cant"])
    @pytest.mark.parametrize("geometry", [
        TorusGeometry(4, 4), MeshGeometry(4, 4),
    ], ids=["torus", "mesh"])
    @pytest.mark.parametrize("multicast", ["tree", "unicast"])
    def test_programs_bit_identical(self, mapped, name, geometry, multicast,
                                    monkeypatch):
        matrix, lower, placement, _ = mapped(name)
        vectorized, reference = _build_pair(
            monkeypatch, matrix, lower, placement, geometry, multicast,
        )
        for kernel in ("spmv", "sptrsv_lower", "sptrsv_upper"):
            kv = getattr(vectorized, kernel)
            kr = getattr(reference, kernel)
            assert kv.same_program(kr), (name, kernel, multicast)
            assert kv.total_fmacs == kr.total_fmacs

    def test_identical_end_to_end_cycles(self, mapped, monkeypatch):
        from repro.sim.machine import AzulMachine, verify_iteration

        matrix, lower, placement, b = mapped("tmt_sym")
        machine = AzulMachine(CONFIG)
        vectorized, reference = _build_pair(
            monkeypatch, matrix, lower, placement, machine.fabric.geometry,
            "tree",
        )
        result_v = machine.simulate_iteration(vectorized, p=b, r=b)
        result_r = machine.simulate_iteration(reference, p=b, r=b)
        assert result_v.total_cycles == result_r.total_cycles
        assert result_v.vector_cycles == result_r.vector_cycles
        for kv, kr in zip(result_v.kernel_results, result_r.kernel_results):
            assert kv.cycles == kr.cycles
            assert kv.op_counts == kr.op_counts
        verify_iteration(result_v, matrix, lower, b)


#: The retired environment switch that used to select the golden loop.
RETIRED_ENV = "AZUL_DATAFLOW_REFERENCE"


def _count_lowerings(monkeypatch, lower):
    """Wrap ``kernel_program.lower_kernel`` to count its calls."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0])
        return lower(*args, **kwargs)

    monkeypatch.setattr(kernel_program, "lower_kernel", spy)
    return calls


class TestLoweringRegistry:
    """One lowering ships in ``src``; nothing at runtime selects another."""

    def test_registry_names(self):
        for name in ("LOWERINGS", "LoweringStrategy", "ReferenceLowering",
                     "VectorizedLowering", "resolve_lowering"):
            assert not hasattr(dataflow, name), name
            assert not hasattr(dataflow.lower, name), name
        assert not hasattr(dataflow.lower, "default_lowering_name")
        assert ReferenceLowering.__module__ == "tests.oracles.lowering"

    def test_default_is_vectorized(self, mapped, monkeypatch):
        matrix, lower, placement, _ = mapped("tmt_sym")
        assert kernel_program.lower_kernel is dataflow.lower.lower_kernel
        calls = _count_lowerings(monkeypatch, dataflow.lower.lower_kernel)
        build_pcg_program(matrix, lower, placement, TorusGeometry(4, 4),
                          CONFIG)
        assert len(calls) == 3

    def test_env_escape_hatch_selects_reference(self, mapped, monkeypatch):
        """The retired switch is inert: the array-backed lowering runs
        and the program is the one built without it."""
        matrix, lower, placement, _ = mapped("tmt_sym")
        geometry = TorusGeometry(4, 4)
        monkeypatch.delenv(RETIRED_ENV, raising=False)
        unset = build_pcg_program(matrix, lower, placement, geometry, CONFIG)
        monkeypatch.setenv(RETIRED_ENV, "1")
        calls = _count_lowerings(monkeypatch, dataflow.lower.lower_kernel)
        monkeypatch.setattr(ReferenceLowering, "lower", _never_called)
        with_env = build_pcg_program(matrix, lower, placement, geometry,
                                     CONFIG)
        assert len(calls) == 3
        for kernel in ("spmv", "sptrsv_lower", "sptrsv_upper"):
            assert getattr(with_env, kernel).same_program(
                getattr(unset, kernel)
            )

    def test_unknown_lowering_rejected(self, mapped):
        """No builder takes a lowering-selecting argument."""
        matrix, lower, placement, _ = mapped("tmt_sym")
        with pytest.raises(TypeError, match="lowering"):
            build_pcg_program(matrix, lower, placement, TorusGeometry(4, 4),
                              CONFIG, lowering="reference")
        with pytest.raises(TypeError, match="lowering"):
            kernel_program.build_kernel_program(
                "spmv", 0, [], [], [], [], [], TorusGeometry(4, 4),
                lowering="nope",
            )

    def test_overrides_report_effective_lowering(self, monkeypatch):
        """``overrides()`` reports no lowering, even with the retired
        switch set."""
        monkeypatch.setenv(RETIRED_ENV, "1")
        report = overrides()
        assert RETIRED_ENV not in report
        assert all("reference" not in str(entry["effective"])
                   for entry in report.values())


def _never_called(*args, **kwargs):
    raise AssertionError("the golden lowering ran in production")


class TestProgramCache:
    """Compiled programs are content-addressed across sweep points."""

    @pytest.fixture(autouse=True)
    def _metrics(self):
        obs.reset()
        obs.enable(metrics=True, tracing=False)
        yield
        obs.disable()
        obs.reset()

    @pytest.fixture()
    def session(self, tmp_path):
        from repro.experiments.common import ExperimentSession

        cache = ArtifactCache(tmp_path / "cache")
        return ExperimentSession(CONFIG, cache=cache, use_cache=True)

    @staticmethod
    def _compile_counters():
        counters = obs.snapshot()["counters"]
        return (
            counters.get("compile.requests", 0.0),
            counters.get("compile.builds", 0.0),
            counters.get("compile.cache_hits", 0.0),
        )

    def test_sim_knob_variations_compile_once(self, session):
        for pe in ("azul", "ideal", "dalorex"):
            session.simulate("tmt_sym", mapper="block", pe=pe)
        requests, builds, hits = self._compile_counters()
        assert (requests, builds, hits) == (3.0, 1.0, 2.0)

    def test_compiled_program_roundtrip(self, session):
        first = session.compiled_program("tmt_sym", mapper="block")
        second = session.compiled_program("tmt_sym", mapper="block")
        requests, builds, hits = self._compile_counters()
        assert (requests, builds, hits) == (2.0, 1.0, 1.0)
        for kernel in ("spmv", "sptrsv_lower", "sptrsv_upper"):
            assert getattr(second, kernel).same_program(
                getattr(first, kernel)
            )

    def test_multicast_mode_partitions_cache(self, session):
        session.compiled_program("tmt_sym", mapper="block", multicast="tree")
        session.compiled_program(
            "tmt_sym", mapper="block", multicast="unicast",
        )
        requests, builds, hits = self._compile_counters()
        assert (requests, builds, hits) == (2.0, 2.0, 0.0)

    def test_lowering_name_partitions_cache(self, session, monkeypatch):
        """With one lowering the key has no lowering term: the retired
        switch no longer splits the cache, so the second compile hits."""
        from repro.experiments.common import program_cache_key

        prepared = session.prepare("tmt_sym")
        placement = session.placement("tmt_sym", "block", N_TILES)
        monkeypatch.delenv(RETIRED_ENV, raising=False)
        unset_key = program_cache_key(
            session.cache, CONFIG, prepared.matrix, prepared.lower, placement,
        )
        session.compiled_program("tmt_sym", mapper="block")
        monkeypatch.setenv(RETIRED_ENV, "1")
        env_key = program_cache_key(
            session.cache, CONFIG, prepared.matrix, prepared.lower, placement,
        )
        session.compiled_program("tmt_sym", mapper="block")
        assert env_key == unset_key
        requests, builds, hits = self._compile_counters()
        assert (requests, builds, hits) == (2.0, 1.0, 1.0)

    def test_use_cache_false_always_builds(self, session):
        session.compiled_program("tmt_sym", mapper="block", use_cache=False)
        session.compiled_program("tmt_sym", mapper="block", use_cache=False)
        requests, builds, hits = self._compile_counters()
        assert (requests, builds, hits) == (2.0, 2.0, 0.0)
