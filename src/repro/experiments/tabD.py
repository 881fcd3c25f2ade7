"""Sec. VI-D analog: data-mapping preprocessing cost.

Wall-clock time to map each matrix with each strategy.  The paper:
Azul's mapping averages 6.16 minutes per matrix (PaToH quality preset)
vs 0.25 (Block), 1.9 (Round Robin, dominated by reduction-tree
construction), and 0.6 (SparseP) — amortized over hours-long
simulations.
"""

from __future__ import annotations

from typing import Optional

from repro.config import AzulConfig
from repro.experiments.common import ExperimentSession, default_matrices
from repro.experiments.spec import ExperimentPlan, register
from repro.perf import ExperimentResult


MAPPINGS = ("block", "sparsep", "round_robin", "azul")


@register("tabD", title="Data-mapping preprocessing cost",
          tags=("paper", "table", "analytic"))
def spec(matrices=None, config: Optional[AzulConfig] = None,
         scale: int = 1, use_cache: bool = False,
         jobs: Optional[int] = None) -> ExperimentPlan:
    """Measure mapping wall-clock seconds per matrix and strategy.

    ``jobs`` bounds the Azul partitioner's worker pool; the placements
    (and hence everything downstream) are identical for any value.
    """
    matrices = list(matrices or default_matrices())
    session = ExperimentSession(config, scale=scale)

    def reduce(sims) -> ExperimentResult:
        result = ExperimentResult(
            experiment="tabD",
            title="Mapping preprocessing cost (seconds)",
            columns=["matrix"] + [f"{m}_s" for m in MAPPINGS],
        )
        for name in matrices:
            row = {"matrix": name}
            for mapping in MAPPINGS:
                placement = session.placement(
                    name, mapping, use_cache=use_cache, jobs=jobs,
                )
                row[f"{mapping}_s"] = placement.placement_seconds
            result.add_row(**row)
        result.notes = (
            "Paper shape (Sec. VI-D): Azul's hypergraph mapping costs "
            "far more than position-based mappings but is amortized "
            "across millions of solver timesteps sharing one sparsity "
            "pattern."
        )
        return result

    return ExperimentPlan(session=session, reduce=reduce)
