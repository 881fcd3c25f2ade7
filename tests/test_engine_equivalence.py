"""Batched-issue equivalence suite (the simulator's bit-exactness guarantee).

The simulator (:class:`KernelSimulator`, issuing through
:class:`BatchedIssue`) must reproduce the per-op golden model in
``tests/oracles`` *exactly* — same cycles, op counts, issue
slots, link statistics, spills, queue delay, numeric output (IEEE
bit-identical) and issue-trace multiset — across matrices, meshes, PE
models and kernels.  Any event-ordering or hazard-modelling drift in
the fast path shows up here first.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.comm import MeshGeometry, TorusGeometry, make_geometry
from repro.config import AzulConfig
from repro.core import map_block
from repro.dataflow import build_spmv_program, build_sptrsv_program
from repro.precond import ic0
from repro.experiments.common import ExperimentSession
from repro.parallel import simulate_placements
from repro.sim import AzulMachine, KernelSimulator
from repro.sim.issue import VEC_THRESHOLD, BatchedIssue
from repro.sim.pe import (
    AZUL_PE,
    AZUL_PE_SINGLE_THREADED,
    DALOREX_PE,
    IDEAL_PE,
    pe_model_by_name,
    pe_model_names,
)
from repro.sim.tables import KernelTables
from repro.sparse import generators as gen
from tests.oracles.issue import PerOpIssue, ReferenceKernelSimulator

PES = {
    "azul": AZUL_PE,
    "azul_single": AZUL_PE_SINGLE_THREADED,
    "dalorex": DALOREX_PE,
    "ideal": IDEAL_PE,
}

_MATRICES = {}


def _matrix(kind):
    if kind not in _MATRICES:
        if kind == "fem":
            matrix = gen.random_geometric_fem(
                120, avg_degree=7, dofs_per_node=2, seed=21
            )
        elif kind == "spd":
            matrix = gen.random_spd(120, nnz_per_row=6, seed=5)
        else:
            matrix = gen.grid_laplacian_2d(12, 12)
        _MATRICES[kind] = (matrix, ic0(matrix))
    return _MATRICES[kind]


def _programs(kind, rows, cols, topology="torus"):
    matrix, lower = _matrix(kind)
    config = AzulConfig(mesh_rows=rows, mesh_cols=cols, topology=topology)
    torus = make_geometry(config)
    assert isinstance(
        torus, TorusGeometry if topology == "torus" else MeshGeometry
    )
    placement = map_block(matrix, lower, rows * cols)
    spmv = build_spmv_program(matrix, placement.a_tile, placement.vec_tile,
                              torus)
    sptrsv = build_sptrsv_program(lower, placement.l_tile,
                                  placement.vec_tile, torus)
    return matrix, torus, config, spmv, sptrsv


def _assert_equivalent(program, torus, config, pe, x=None, b=None):
    reference = ReferenceKernelSimulator(
        program, torus, config, pe, record_issue_trace=True
    ).run(x, b)
    batched = KernelSimulator(
        program, torus, config, pe, record_issue_trace=True
    ).run(x, b)
    assert batched.cycles == reference.cycles
    assert batched.op_counts == reference.op_counts
    assert batched.busy_slots == reference.busy_slots
    assert batched.link_activations == reference.link_activations
    assert batched.per_link == reference.per_link
    assert batched.spills == reference.spills
    assert batched.link_queue_delay == reference.link_queue_delay
    # IEEE bit identity, not tolerance: the batched accumulation must
    # apply ops in the exact reference order.
    assert np.array_equal(batched.output, reference.output)
    assert sorted(map(tuple, batched.issue_trace)) \
        == sorted(map(tuple, reference.issue_trace))


@pytest.mark.parametrize("topology", ["torus", "mesh"])
@pytest.mark.parametrize("pe_name", sorted(PES))
@pytest.mark.parametrize("kind,rows,cols", [
    ("fem", 4, 4),
    ("spd", 4, 4),
    ("grid", 2, 2),   # tiny mesh: heavy window competition per tile
])
@pytest.mark.parametrize("kernel", ["spmv", "sptrsv"])
def test_engine_equivalence(kind, rows, cols, pe_name, kernel, topology):
    """Bit-identity must hold on both geometries the fabric supports."""
    matrix, torus, config, spmv, sptrsv = _programs(kind, rows, cols,
                                                    topology)
    rng = np.random.default_rng(99)
    if kernel == "spmv":
        _assert_equivalent(spmv, torus, config, PES[pe_name],
                           x=rng.standard_normal(matrix.shape[0]))
    else:
        _assert_equivalent(sptrsv, torus, config, PES[pe_name],
                           b=rng.standard_normal(matrix.shape[0]))


def test_mesh_and_torus_timing_differ():
    """Sanity: the mesh geometry actually changes NoC timing (so the
    mesh arm of the equivalence matrix is not vacuously identical)."""
    matrix, torus, config, spmv_t, _ = _programs("fem", 4, 4, "torus")
    _, mesh, mconfig, spmv_m, _ = _programs("fem", 4, 4, "mesh")
    x = np.ones(matrix.shape[0])
    torus_cycles = KernelSimulator(
        spmv_t, torus, config, AZUL_PE).run(x=x).cycles
    mesh_cycles = KernelSimulator(
        spmv_m, mesh, mconfig, AZUL_PE).run(x=x).cycles
    assert torus_cycles != mesh_cycles


def test_equivalence_exercises_vectorized_batches():
    """The fem case must actually hit the numpy batch path.

    A 2x2 mesh concentrates whole matrix columns on each tile, so at
    least one column-segment run must exceed ``VEC_THRESHOLD`` — the
    analytic completion-time kernel (not just the scalar fast-forward)
    is therefore covered by the equivalence assertion below.
    """
    matrix, torus, config, spmv, _ = _programs("fem", 2, 2)
    longest = int(np.diff(spmv.seg_ptr).max())
    assert longest >= VEC_THRESHOLD
    x = np.ones(matrix.shape[0])
    _assert_equivalent(spmv, torus, config, AZUL_PE, x=x)


def test_issue_model_is_fixed_per_class():
    """The production simulator always issues through ``BatchedIssue``;
    only the oracle subclass swaps in the per-op model."""
    matrix, torus, config, spmv, _ = _programs("grid", 2, 2)
    assert type(KernelSimulator(spmv, torus, config, AZUL_PE).issue) \
        is BatchedIssue
    assert type(ReferenceKernelSimulator(spmv, torus, config,
                                         AZUL_PE).issue) is PerOpIssue


@pytest.mark.parametrize("simulator_cls", [KernelSimulator,
                                           ReferenceKernelSimulator],
                         ids=["batched", "per_op"])
@pytest.mark.parametrize("kernel", ["spmv", "sptrsv"])
def test_finished_simulator_is_freed_without_cyclic_gc(simulator_cls,
                                                       kernel):
    """A run leaves no reference cycle through its issue model, so the
    simulator goes as soon as its last reference is dropped."""
    matrix, torus, config, spmv, sptrsv = _programs("fem", 4, 4)
    vector = np.ones(matrix.shape[0])
    gc.collect()
    gc.disable()
    try:
        if kernel == "spmv":
            simulator = simulator_cls(spmv, torus, config, AZUL_PE)
            result = simulator.run(x=vector)
        else:
            simulator = simulator_cls(sptrsv, torus, config, AZUL_PE)
            result = simulator.run(b=vector)
        alive = weakref.ref(simulator)
        del simulator
        assert alive() is None
        assert result.cycles > 0
    finally:
        gc.enable()


def test_reference_env_escape_hatch(monkeypatch):
    """The retired ``AZUL_SIM_REFERENCE`` switch is inert: the
    simulator stays the batched one and its result does not move."""
    matrix, torus, config, spmv, _ = _programs("grid", 2, 2)
    x = np.ones(matrix.shape[0])
    monkeypatch.delenv("AZUL_SIM_REFERENCE", raising=False)
    unset = KernelSimulator(spmv, torus, config, AZUL_PE).run(x=x)
    monkeypatch.setenv("AZUL_SIM_REFERENCE", "1")
    simulator = KernelSimulator(spmv, torus, config, AZUL_PE)
    assert type(simulator) is KernelSimulator
    assert type(simulator.issue) is BatchedIssue
    with_env = simulator.run(x=x)
    assert with_env.cycles == unset.cycles
    assert with_env.op_counts == unset.op_counts
    assert np.array_equal(with_env.output, unset.output)


def test_explicit_engine_argument():
    """No constructor argument selects an issue model."""
    matrix, torus, config, spmv, _ = _programs("grid", 2, 2)
    for name in ("reference", "warp"):
        with pytest.raises(TypeError, match="engine"):
            KernelSimulator(spmv, torus, config, AZUL_PE, engine=name)


# ---------------------------------------------------------------------------
# PE variants of one compiled program (kernel-outer, shared tables)
# ---------------------------------------------------------------------------
def _iteration_program(multicast, topology):
    matrix, lower = _matrix("fem")
    config = AzulConfig(mesh_rows=4, mesh_cols=4, topology=topology)
    placement = map_block(matrix, lower, config.num_tiles)
    machine = AzulMachine(config)
    program = machine.compile(matrix, lower, placement, multicast=multicast)
    rng = np.random.default_rng(7)
    p = rng.standard_normal(matrix.shape[0])
    r = rng.standard_normal(matrix.shape[0])
    return machine, program, p, r


def _assert_kernels_identical(left, right):
    assert left.name == right.name
    assert left.cycles == right.cycles
    assert left.output.tobytes() == right.output.tobytes()
    assert left.op_counts == right.op_counts
    assert left.busy_slots == right.busy_slots
    assert left.link_activations == right.link_activations
    assert left.per_link == right.per_link
    assert list(left.per_link) == list(right.per_link)
    assert left.spills == right.spills
    assert left.link_queue_delay == right.link_queue_delay
    assert left.issue_trace == right.issue_trace
    assert left.n_tiles == right.n_tiles


def _assert_iterations_identical(left, right):
    assert left.total_cycles == right.total_cycles
    assert left.vector_cycles == right.vector_cycles
    assert left.flops_per_iteration == right.flops_per_iteration
    assert left.vector_ops == right.vector_ops
    assert len(left.kernel_results) == len(right.kernel_results) == 3
    for a, b in zip(left.kernel_results, right.kernel_results):
        _assert_kernels_identical(a, b)


@pytest.mark.parametrize("topology", ["torus", "mesh"])
@pytest.mark.parametrize("multicast", ["tree", "unicast"])
def test_simulate_variants_matches_one_iteration_per_pe(multicast,
                                                        topology):
    """``simulate_variants`` over every registered PE equals one
    ``simulate_iteration`` per PE and one table build per kernel run,
    bit for bit, in any PE order."""
    machine, program, p, r = _iteration_program(multicast, topology)
    pes = [pe_model_by_name(name) for name in pe_model_names()]
    assert len(pes) == 4
    variants = machine.simulate_variants(program, pes, p, r,
                                         record_issue_trace=True)
    assert len(variants) == len(pes)
    for pe, variant in zip(pes, variants):
        single = AzulMachine(machine.config, pe).simulate_iteration(
            program, p, r, record_issue_trace=True)
        _assert_iterations_identical(variant, single)
        # Independent of the shared-table path: each kernel simulated
        # with tables of its own.
        own = AzulMachine(machine.config, pe)
        spmv = own.run_kernel(program.spmv, x=p, record_issue_trace=True)
        forward = own.run_kernel(program.sptrsv_lower, b=r,
                                 record_issue_trace=True)
        backward = own.run_kernel(program.sptrsv_upper, b=forward.output,
                                  record_issue_trace=True)
        for a, b in zip(variant.kernel_results, (spmv, forward, backward)):
            _assert_kernels_identical(a, b)
    reversed_variants = machine.simulate_variants(
        program, pes[::-1], p, r, record_issue_trace=True)
    for a, b in zip(variants, reversed_variants[::-1]):
        _assert_iterations_identical(a, b)
    # The PE models genuinely differ (the comparison is not vacuous).
    assert len({v.total_cycles for v in variants}) > 1


def _recording_tables(monkeypatch):
    """Weak references to every ``KernelTables`` built from now on."""
    refs = []
    build = KernelTables.__init__

    def recording_init(self, *args, **kwargs):
        build(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(KernelTables, "__init__", recording_init)
    return refs


def test_kernel_tables_do_not_outlive_their_runs(monkeypatch, tmp_path):
    """No memo holds a kernel's tables past the call that built them:
    with the cyclic GC off, every table is freed by refcounting once
    ``simulate_variants`` / ``simulate_placements`` return."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    machine, program, p, r = _iteration_program("tree", "torus")
    session = ExperimentSession(AzulConfig(mesh_rows=4, mesh_cols=4))
    placement = session.placement("tmt_sym", "round_robin")
    refs = _recording_tables(monkeypatch)
    gc.collect()
    gc.disable()
    try:
        results = machine.simulate_variants(program, [AZUL_PE, DALOREX_PE],
                                            p, r)
        assert len(refs) == 3  # one per kernel, shared by both PEs
        assert all(ref() is None for ref in refs)
        assert len(results) == 2
        del refs[:]
        session.simulate_placements(
            "tmt_sym", [{"placement": placement, "pe": pe}
                        for pe in ("azul", "dalorex")],
            check=False, jobs=1, use_cache=False)
        assert len(refs) == 3
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_grouped_sweep_matches_per_point_results(monkeypatch, tmp_path):
    """A sweep groups the points that differ only in PE into one unit;
    ``jobs=1`` and ``jobs=2`` both return exactly the per-point
    results, with equal ``sweep.*`` counters."""
    import repro.obs as obs

    config = AzulConfig(mesh_rows=4, mesh_cols=4)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "setup"))
    setup = ExperimentSession(config)
    placements = [setup.placement("tmt_sym", mapper)
                  for mapper in ("round_robin", "block")]
    points = [
        {"placement": placement, "pe": pe}
        for placement in placements
        for pe in ("azul", "azul_single", "dalorex")
    ]
    points.append({"placement": placements[0], "multicast": "unicast"})
    per_point = [
        simulate_placements(ExperimentSession(config), "tmt_sym", [point],
                            check=True, jobs=1, use_cache=False)[0]
        for point in points
    ]
    runs = {}
    for jobs in (1, 2):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / str(jobs)))
        if jobs == 1:
            # One table build per kernel per PE group, not per point.
            refs = _recording_tables(monkeypatch)
        obs.reset()
        obs.enable(metrics=True, tracing=False)
        try:
            results = simulate_placements(
                ExperimentSession(config), "tmt_sym", points, check=True,
                jobs=jobs)
            counters = {
                name: value
                for name, value in obs.snapshot()["counters"].items()
                if name.startswith("sweep.")
            }
        finally:
            obs.disable()
            obs.reset()
        runs[jobs] = (results, counters)
    assert len(refs) == 3 * 3
    (serial, serial_counters), (fanned, fanned_counters) = runs[1], runs[2]
    assert serial_counters.pop("sweep.computed_serial") == 7
    assert fanned_counters.pop("sweep.computed_parallel") == 7
    assert serial_counters.pop("sweep.computed_parallel") == 0
    assert fanned_counters.pop("sweep.computed_serial") == 0
    assert serial_counters == fanned_counters == {
        "sweep.points": 7, "sweep.unique": 7, "sweep.deduplicated": 0,
        "sweep.cache_hits": 0, "sweep.worker_failures": 0,
    }
    for expected, a, b in zip(per_point, serial, fanned):
        _assert_iterations_identical(a, expected)
        _assert_iterations_identical(b, expected)


def test_tables_must_fit_the_program_and_machine():
    """Tables built for another machine size are refused, not misread."""
    from repro.errors import SimulationError

    matrix, torus, config, spmv, _ = _programs("grid", 2, 2)
    wrong = KernelTables(spmv, torus.n_tiles + 1)
    with pytest.raises(SimulationError, match="tables"):
        KernelSimulator(spmv, torus, config, AZUL_PE, tables=wrong)
    shared = KernelTables(spmv, torus.n_tiles)
    x = np.ones(matrix.shape[0])
    _assert_kernels_identical(
        KernelSimulator(spmv, torus, config, AZUL_PE, tables=shared).run(x=x),
        KernelSimulator(spmv, torus, config, AZUL_PE).run(x=x),
    )
