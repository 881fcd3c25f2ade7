"""The simulated Azul machine: full PCG-iteration execution.

Combines the three sparse-kernel simulations with the analytic
vector-phase model to produce per-iteration timing, the per-kernel
runtime breakdown (Fig. 22), PE cycle breakdown (Fig. 21), and
steady-state GFLOP/s.  End-to-end solve time is cycles-per-iteration
times the iteration count measured by the functional solver — the same
steady-state methodology the paper uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.comm import make_geometry
from repro.config import AzulConfig
from repro.core.placement import Placement
from repro.dataflow.program import PCGIterationProgram, build_pcg_program
from repro.errors import SimulationError
from repro.sim.engine import KernelResult, KernelSimulator
from repro.sim.fabric import FabricModel
from repro.sim.pe import AZUL_PE, PEModel
from repro.sim.tables import KernelTables
from repro.sparse.csr import CSRMatrix


@dataclass
class IterationResult:
    """Timing of one simulated PCG iteration.

    Attributes
    ----------
    kernel_results:
        The three sparse-kernel results (spmv, forward, backward).
    vector_cycles:
        Cycles of the analytic vector phase.
    total_cycles:
        Sum over all phases (phases are dependence-separated).
    flops_per_iteration:
        Useful algorithmic FLOPs of one iteration.
    """

    kernel_results: List[KernelResult]
    vector_cycles: int
    total_cycles: int
    flops_per_iteration: int
    config: Optional[AzulConfig] = None
    vector_ops: Optional[Dict[str, int]] = None

    def gflops(self) -> float:
        """Steady-state useful GFLOP/s."""
        if self.total_cycles == 0 or self.config is None:
            return 0.0
        seconds = self.total_cycles / self.config.frequency_hz
        return self.flops_per_iteration / seconds / 1e9

    def utilization(self) -> float:
        """Fraction of the machine's peak FLOP/s achieved."""
        if self.config is None:
            return 0.0
        return self.gflops() * 1e9 / self.config.peak_flops

    def cycles_by_phase(self) -> Dict[str, int]:
        """Per-phase cycles (the Fig. 22 breakdown)."""
        phases = {k.name: k.cycles for k in self.kernel_results}
        phases["vector"] = self.vector_cycles
        return phases

    def op_totals(self) -> Dict[str, int]:
        """Operations issued by kind, across kernels and vector phase."""
        totals = {"fmac": 0, "add": 0, "mul": 0, "send": 0}
        for result in self.kernel_results:
            for kind, count in result.op_counts.items():
                totals[kind] += count
        if self.vector_ops:
            for kind, count in self.vector_ops.items():
                totals[kind] += count
        return totals

    def link_activations(self) -> int:
        """Total NoC link traversals of one iteration."""
        return sum(r.link_activations for r in self.kernel_results)


class AzulMachine:
    """A simulated Azul machine executing mapped PCG iterations.

    The machine's view of the NoC is a
    :class:`~repro.sim.fabric.FabricModel` over the configured geometry
    (``config.topology`` selects torus or mesh via
    :func:`repro.comm.make_geometry`); tree/link queries go through
    ``self.fabric`` rather than the raw geometry.
    """

    def __init__(self, config: Optional[AzulConfig] = None,
                 pe: PEModel = AZUL_PE):
        self.config = config or AzulConfig()
        self.pe = pe
        self.fabric = FabricModel(
            make_geometry(self.config), self.config.hop_cycles
        )

    # ------------------------------------------------------------------
    def compile(self, matrix: CSRMatrix, lower: CSRMatrix,
                placement: Placement,
                multicast: str = "tree") -> PCGIterationProgram:
        """Compile a mapped (A, L) pair into an iteration program."""
        if placement.n_tiles != self.config.num_tiles:
            raise SimulationError(
                f"placement targets {placement.n_tiles} tiles but the "
                f"machine has {self.config.num_tiles}"
            )
        return build_pcg_program(
            matrix, lower, placement, self.fabric.geometry, self.config,
            multicast=multicast,
        )

    def run_kernel(self, program_kernel, x=None, b=None,
                   record_issue_trace: bool = False) -> KernelResult:
        """Simulate a single compiled kernel."""
        simulator = KernelSimulator(
            program_kernel, self.fabric.geometry, self.config, self.pe,
            record_issue_trace=record_issue_trace,
        )
        return simulator.run(x=x, b=b)

    # ------------------------------------------------------------------
    def simulate_iteration(self, program: PCGIterationProgram,
                           p: np.ndarray, r: np.ndarray,
                           record_issue_trace: bool = False
                           ) -> IterationResult:
        """Simulate one PCG iteration's kernels on representative vectors.

        ``p`` feeds the SpMV; ``r`` feeds the preconditioner solves.
        The numeric outputs are returned inside the kernel results so
        callers can verify them against the reference kernels.  With
        ``record_issue_trace`` each kernel result carries its per-op
        issue log (see :mod:`repro.sim.trace`).  The one-PE case of
        :meth:`simulate_variants`.
        """
        return self.simulate_variants(
            program, [self.pe], p, r, record_issue_trace=record_issue_trace,
        )[0]

    def simulate_variants(self, program: PCGIterationProgram,
                          pes: Sequence[PEModel], p: np.ndarray,
                          r: np.ndarray, record_issue_trace: bool = False
                          ) -> List[IterationResult]:
        """Simulate one PCG iteration of ``program`` on each PE model.

        Element ``k`` equals ``simulate_iteration`` on a machine with
        ``pes[k]``, bit for bit.  The loop is kernel-outer: SpMV on
        every PE, then the forward SpTRSV, then the backward SpTRSV on
        each PE's own forward output, so each kernel's static
        :class:`~repro.sim.tables.KernelTables` is built once and only
        one kernel's tables are alive at a time.
        """
        geometry = self.fabric.geometry
        config = self.config

        def run_all(kernel, inputs, arg):
            tables = KernelTables(kernel, geometry.n_tiles)
            return [
                KernelSimulator(
                    kernel, geometry, config, pe,
                    record_issue_trace=record_issue_trace, tables=tables,
                ).run(**{arg: vector})
                for pe, vector in zip(pes, inputs)
            ]

        spmv = run_all(program.spmv, [p] * len(pes), "x")
        forward = run_all(program.sptrsv_lower, [r] * len(pes), "b")
        backward = run_all(program.sptrsv_upper,
                           [result.output for result in forward], "b")
        vector_cycles = program.vector_phase.cycles()
        results = []
        for kernel_results in zip(spmv, forward, backward):
            total = sum(k.cycles for k in kernel_results) + vector_cycles
            results.append(IterationResult(
                kernel_results=list(kernel_results),
                vector_cycles=vector_cycles,
                total_cycles=total,
                flops_per_iteration=program.flops_per_iteration(),
                config=config,
                vector_ops=program.vector_phase.op_counts(program.n),
            ))
        return results

    def simulate_pcg(self, matrix: CSRMatrix, lower: CSRMatrix,
                     placement: Placement, b: np.ndarray,
                     check: bool = True,
                     multicast: str = "tree",
                     record_issue_trace: bool = False) -> IterationResult:
        """Compile and simulate one steady-state PCG iteration.

        When ``check`` is true, the dataflow outputs are verified
        against the reference kernels (the paper's functional check
        against Ginkgo, Sec. VI-A).  ``record_issue_trace`` forwards to
        each kernel simulation (the Fig. 17 timeline / Chrome-trace
        inputs).
        """
        program = self.compile(matrix, lower, placement,
                               multicast=multicast)
        result = self.simulate_iteration(
            program, p=b, r=b, record_issue_trace=record_issue_trace,
        )
        if check:
            verify_iteration(result, matrix, lower, b)
        return result


def verify_iteration(result: IterationResult, matrix: CSRMatrix,
                     lower: CSRMatrix, b: np.ndarray):
    """Assert the simulated dataflow computed the right numbers."""
    from repro.sparse.ops import sptrsv_lower as ref_lower
    from repro.sparse.ops import sptrsv_upper as ref_upper

    spmv_result, forward_result, backward_result = result.kernel_results
    expected_y = matrix.spmv(b)
    if not np.allclose(spmv_result.output, expected_y, rtol=1e-9, atol=1e-9):
        raise SimulationError("simulated SpMV result mismatch")
    expected_w = ref_lower(lower, b)
    if not np.allclose(forward_result.output, expected_w,
                       rtol=1e-9, atol=1e-9):
        raise SimulationError("simulated forward SpTRSV result mismatch")
    expected_z = ref_upper(lower.transpose(), expected_w)
    if not np.allclose(backward_result.output, expected_z,
                       rtol=1e-8, atol=1e-9):
        raise SimulationError("simulated backward SpTRSV result mismatch")
