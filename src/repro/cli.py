"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``suite``
    List the benchmark matrices (Table IV analog).
``solve MATRIX``
    Solve ``A x = b`` with a chosen solver/preconditioner and report
    convergence.  MATRIX is a suite name or a MatrixMarket file.
``map MATRIX``
    Map the PCG operands with a chosen strategy and report load
    balance and NoC traffic.
``simulate MATRIX``
    Full pipeline: preprocess, map, run the cycle-level simulator, and
    report throughput, breakdowns, and power.
``experiment ID``
    Run one experiment from the reproduction harness (see
    ``python -m repro.experiments.runner --list``).
``cache {stats,clear,verify}``
    Inspect or maintain the artifact cache (placements, simulation
    results).  ``stats`` reports disk usage and cumulative
    hit/miss/corruption counters; ``clear`` deletes every entry;
    ``verify`` re-checksums all entries (``--fix`` quarantines bad
    ones).  Honours ``REPRO_CACHE_DIR`` / ``REPRO_CACHE_MAX_BYTES`` /
    ``REPRO_CACHE_DISABLE``.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np


def _load_matrix(spec: str):
    """Resolve a matrix argument: suite name or MatrixMarket path."""
    from repro.sparse import read_matrix_market
    from repro.sparse.generators import make_rhs
    from repro.sparse.suite import get_suite_matrix, suite_names

    if os.path.exists(spec):
        matrix = read_matrix_market(spec)
        return matrix, make_rhs(matrix, seed=0)
    if spec in suite_names("all"):
        return get_suite_matrix(spec)
    raise SystemExit(
        f"unknown matrix {spec!r}: not a file, and suite names are "
        f"{', '.join(suite_names('all'))}"
    )


def _make_preconditioner(name: str, matrix):
    from repro.precond import (
        IncompleteCholesky,
        JacobiPreconditioner,
        SSORPreconditioner,
        SymmetricGaussSeidel,
    )

    factories = {
        "none": lambda m: None,
        "jacobi": JacobiPreconditioner,
        "symgs": SymmetricGaussSeidel,
        "ssor": SSORPreconditioner,
        "ic0": IncompleteCholesky,
    }
    if name not in factories:
        raise SystemExit(f"unknown preconditioner {name!r}")
    return factories[name](matrix)


# ----------------------------------------------------------------------
def cmd_suite(args):
    from repro.experiments.runner import run_experiment

    print(run_experiment("tab4", section=args.section))
    return 0


def cmd_solve(args):
    from repro.graph import color_and_permute
    from repro.solvers import SolveOptions, bicgstab, gmres, pcg

    matrix, b = _load_matrix(args.matrix)
    if args.color:
        matrix, b, _ = color_and_permute(matrix, b)
    preconditioner = _make_preconditioner(args.precond, matrix)
    options = SolveOptions(tol=args.tol, max_iterations=args.max_iters)
    if args.solver == "pcg":
        result = pcg(matrix, b, preconditioner, options=options)
    elif args.solver == "bicgstab":
        result = bicgstab(matrix, b, preconditioner, options=options)
    elif args.solver == "gmres":
        result = gmres(matrix, b, preconditioner, options=options)
    else:
        raise SystemExit(f"unknown solver {args.solver!r}")
    status = "converged" if result.converged else "NOT converged"
    print(
        f"{args.solver} + {args.precond}: {status} in "
        f"{result.iterations} iterations, residual "
        f"{result.residual_norm:.3e}"
    )
    for kernel, flops in result.flops.items():
        print(f"  {kernel:8s} {flops / 1e6:10.2f} MFLOP")
    return 0 if result.converged else 1


def cmd_map(args):
    from repro.comm import make_geometry
    from repro.config import AzulConfig
    from repro.core import analyze_traffic, get_mapper, placement_stats
    from repro.graph import color_and_permute
    from repro.hypergraph import PartitionerOptions
    from repro.precond import ic0

    matrix, b = _load_matrix(args.matrix)
    matrix, b, _ = color_and_permute(matrix, b)
    lower = ic0(matrix)
    config = AzulConfig(mesh_rows=args.rows, mesh_cols=args.cols,
                        topology=args.topology)
    mapper = get_mapper(args.mapper)
    if args.mapper == "azul":
        placement = mapper(
            matrix, lower, config.num_tiles,
            options=PartitionerOptions.speed(seed=0),
            jobs=args.jobs,
        )
    else:
        placement = mapper(matrix, lower, config.num_tiles)
    placement.validate_capacity(config)
    stats = placement_stats(placement)
    torus = make_geometry(config)
    traffic = analyze_traffic(placement, matrix, lower, torus)
    print(f"mapper {args.mapper} on {config.mesh_rows}x{config.mesh_cols}:")
    print(f"  nnz imbalance (max/mean): {stats['nnz_imbalance']:.2f}")
    print(f"  messages/iteration:       {traffic.total_messages}")
    print(f"  link activations:         {traffic.total_link_activations}")
    print(f"  busiest link load:        {traffic.max_link_load()}")
    return 0


def cmd_simulate(args):
    from repro.config import AzulConfig
    from repro.core import get_mapper
    from repro.graph import color_and_permute
    from repro.hypergraph import PartitionerOptions
    from repro.models import power_report
    from repro.precond import ic0
    from repro.sim import AzulMachine, pe_model_by_name
    from repro.solvers import pcg

    matrix, b = _load_matrix(args.matrix)
    matrix, b, _ = color_and_permute(matrix, b)
    lower = ic0(matrix)
    config = AzulConfig(mesh_rows=args.rows, mesh_cols=args.cols,
                        topology=args.topology)
    mapper = get_mapper(args.mapper)
    if args.mapper == "azul":
        placement = mapper(
            matrix, lower, config.num_tiles,
            options=PartitionerOptions.speed(seed=0),
            jobs=args.jobs,
        )
    else:
        placement = mapper(matrix, lower, config.num_tiles)
    machine = AzulMachine(config, pe_model_by_name(args.pe))
    timing = machine.simulate_pcg(matrix, lower, placement, b)
    print(
        f"{args.matrix} on {config.mesh_rows}x{config.mesh_cols} "
        f"({args.pe} PEs, {args.mapper} mapping):"
    )
    print(f"  cycles/iteration: {timing.total_cycles}")
    print(f"  throughput:       {timing.gflops():.1f} GFLOP/s "
          f"({timing.utilization():.1%} of peak)")
    for phase, cycles in timing.cycles_by_phase().items():
        print(f"    {phase:14s} {cycles:8d} cycles "
              f"({cycles / timing.total_cycles:.0%})")
    power = power_report(timing, config)
    print(f"  power estimate:   {power.total:.2f} W "
          f"(SRAM {power.sram:.2f}, compute {power.compute:.2f}, "
          f"NoC {power.noc:.2f}, leakage {power.leakage:.2f})")
    from repro.precond import IncompleteCholesky

    reference = pcg(matrix, b, IncompleteCholesky(matrix))
    seconds = (
        reference.iterations * timing.total_cycles / config.frequency_hz
    )
    print(
        f"  end-to-end solve: {reference.iterations} iterations "
        f"-> {seconds * 1e6:.0f} us"
    )
    return 0


def cmd_experiment(args):
    from repro.experiments.runner import run_experiment

    print(run_experiment(args.id, jobs=getattr(args, "jobs", None)))
    return 0


def cmd_run(args):
    """``repro run [ids...] --jobs N``: the experiment runner."""
    from repro.experiments import runner

    return runner.run_from_args(args)


def cmd_cache(args):
    from repro.cache import ArtifactCache
    from repro.perf import format_cache_stats

    cache = ArtifactCache.from_env()
    if args.action == "stats":
        # Cumulative persisted counters + anything this process did.
        merged = cache.persisted_stats().merged(cache.stats)
        print(format_cache_stats(merged, cache.inventory()))
        return 0
    if args.action == "clear":
        removed, freed = cache.clear()
        print(
            f"cleared {removed} file(s), freed {freed} bytes "
            f"from {cache.root}"
        )
        return 0
    if args.action == "verify":
        reports = cache.verify(fix=args.fix)
        bad = [r for r in reports if r.status != "ok"]
        for report in reports:
            if report.status != "ok" or args.verbose:
                detail = f"  ({report.detail})" if report.detail else ""
                print(
                    f"{report.status:8s} {report.namespace}/{report.key}"
                    f"{detail}"
                )
        action = "quarantined" if args.fix else "found (run with --fix)"
        print(
            f"verified {len(reports)} entr{'y' if len(reports) == 1 else 'ies'}: "
            f"{len(reports) - len(bad)} ok, {len(bad)} bad {action if bad else ''}".rstrip()
        )
        return 1 if bad and not args.fix else 0
    raise SystemExit(f"unknown cache action {args.action!r}")


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Azul reproduction CLI (MICRO 2024).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_suite = sub.add_parser("suite", help="list benchmark matrices")
    p_suite.add_argument("--section", default="small",
                         choices=["small", "medium", "large", "all"])
    p_suite.set_defaults(func=cmd_suite)

    p_solve = sub.add_parser("solve", help="solve a sparse system")
    p_solve.add_argument("matrix", help="suite name or .mtx path")
    p_solve.add_argument("--solver", default="pcg",
                         choices=["pcg", "bicgstab", "gmres"])
    p_solve.add_argument("--precond", default="ic0",
                         choices=["none", "jacobi", "symgs", "ssor", "ic0"])
    p_solve.add_argument("--tol", type=float, default=1e-10)
    p_solve.add_argument("--max-iters", type=int, default=5000)
    p_solve.add_argument("--no-color", dest="color", action="store_false",
                         help="skip coloring+permutation preprocessing")
    p_solve.set_defaults(func=cmd_solve)

    p_map = sub.add_parser("map", help="map operands onto tiles")
    p_map.add_argument("matrix")
    p_map.add_argument("--mapper", default="azul",
                       choices=["round_robin", "block", "sparsep", "azul"])
    p_map.add_argument("--rows", type=int, default=8)
    p_map.add_argument("--cols", type=int, default=8)
    p_map.add_argument("--topology", default="torus",
                       choices=["torus", "mesh"], help="NoC topology")
    p_map.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes for the partitioner's "
                            "sub-bisections (result is identical)")
    p_map.set_defaults(func=cmd_map)

    p_sim = sub.add_parser("simulate", help="cycle-simulate PCG on Azul")
    p_sim.add_argument("matrix")
    p_sim.add_argument("--mapper", default="azul",
                       choices=["round_robin", "block", "sparsep", "azul"])
    p_sim.add_argument("--pe", default="azul",
                       choices=["azul", "azul_single", "dalorex", "ideal"])
    p_sim.add_argument("--rows", type=int, default=8)
    p_sim.add_argument("--cols", type=int, default=8)
    p_sim.add_argument("--topology", default="torus",
                       choices=["torus", "mesh"], help="NoC topology")
    p_sim.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes for the partitioner's "
                            "sub-bisections (result is identical)")
    p_sim.set_defaults(func=cmd_simulate)

    p_exp = sub.add_parser("experiment", help="run a paper experiment")
    p_exp.add_argument("id", help="experiment id (e.g. fig20)")
    p_exp.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes for sweep-parallel "
                            "experiments")
    p_exp.set_defaults(func=cmd_experiment)

    p_run = sub.add_parser(
        "run", help="run experiments via the runner (sweeps honor --jobs)",
    )
    # The runner owns its option declarations, so ``run`` and
    # ``python -m repro.experiments.runner`` cannot drift apart.
    from repro.experiments.runner import add_arguments

    add_arguments(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cache = sub.add_parser("cache", help="inspect/maintain the "
                                           "artifact cache")
    p_cache.add_argument("action", choices=["stats", "clear", "verify"])
    p_cache.add_argument("--fix", action="store_true",
                         help="verify: quarantine corrupt entries")
    p_cache.add_argument("--verbose", action="store_true",
                         help="verify: list healthy entries too")
    p_cache.set_defaults(func=cmd_cache)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
