#!/usr/bin/env python
"""Emit a tracked benchmark run (``BENCH_sim.json`` / ``BENCH_mapping.json``).

Drives pytest-benchmark over one marked benchmark suite and writes the
standard pytest-benchmark JSON.  A summary — including the
fast-over-reference speedup each suite tracks — is printed at the end.

Suites (every reference half runs a golden model from
``tests/oracles``):

* ``sim`` — the ``sim_engine`` marker set in
  ``benchmarks/bench_kernels.py``: batched issue vs the per-op golden
  model on the 300-node FEM SpMV/SpTRSV programs.
* ``mapping`` — the ``mapping_engine`` marker set in
  ``benchmarks/bench_mapping.py``: quality-preset Azul partitions with
  the maintained-gain vs golden FM bookkeeping, plus the
  largest-suite-matrix (BenElechi1) partition the Sec. VI-D cost study
  tracks.
* ``solver`` — the ``solver_kernels`` marker set in
  ``benchmarks/bench_solver.py``: level-scheduled vs per-row SpTRSV,
  IC(0), and end-to-end PCG on the largest solver-suite matrix
  (BenElechi1 scaled 4x).
* ``compile`` — the ``compile_program`` marker set in
  ``benchmarks/bench_compile.py``: batched vs per-element dataflow
  lowering of the full PCG program triple on BenElechi1 scaled 4x
  mapped onto the 64-tile torus.

Usage::

    python benchmarks/emit_bench.py --suite mapping \
        [--output BENCH_mapping.json] [--pytest-arg ...]

Gate the emitted file against the committed baseline with
``benchmarks/check_regression.py --suite mapping``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Per-suite harness description: which benchmark file / marker to run,
#: where the JSON lands by default, and which (fast, reference)
#: benchmark pairs define the suite's headline speedup ratio.
SUITES = {
    "sim": {
        "bench_file": "bench_kernels.py",
        "marker": "sim_engine",
        "default_output": "BENCH_sim.json",
        "speedup_pairs": (
            ("test_spmv_sim", "test_spmv_sim_reference"),
            ("test_sptrsv_sim", "test_sptrsv_sim_reference"),
        ),
        "pair_label": "batched-engine",
    },
    "mapping": {
        "bench_file": "bench_mapping.py",
        "marker": "mapping_engine",
        "default_output": "BENCH_mapping.json",
        "speedup_pairs": (
            ("test_mapping_quality", "test_mapping_quality_reference"),
        ),
        "pair_label": "vectorized-FM",
    },
    "solver": {
        "bench_file": "bench_solver.py",
        "marker": "solver_kernels",
        "default_output": "BENCH_solver.json",
        "speedup_pairs": (
            ("test_sptrsv_level", "test_sptrsv_reference"),
            ("test_ic0_level", "test_ic0_reference"),
            ("test_pcg_level", "test_pcg_reference"),
        ),
        # The warm SpTRSV pair carries the suite's 5x floor; the IC(0)
        # and end-to-end PCG pairs keep their own conservative floors
        # (schedule builds amortize per factor, not per call).
        "pair_floors": {
            "test_ic0_level": 3.0,
            "test_pcg_level": 1.5,
        },
        "pair_label": "level-scheduled",
    },
    "compile": {
        "bench_file": "bench_compile.py",
        "marker": "compile_program",
        "default_output": "BENCH_compile.json",
        "speedup_pairs": (
            ("test_compile_vectorized", "test_compile_reference"),
        ),
        "pair_label": "vectorized-lowering",
    },
}


def load_times(path: Path) -> dict:
    """Map short benchmark name -> best-round seconds from a JSON file.

    Uses ``stats.min`` rather than the mean: the minimum over rounds is
    the standard robust estimator for micro-benchmarks — transient
    machine load only ever inflates timings, so the best round is the
    closest observation of the true cost.
    """
    data = json.loads(path.read_text())
    times = {}
    for entry in data.get("benchmarks", []):
        name = entry["name"].split("[")[0]
        times[name] = entry["stats"]["min"]
    return times


def summarize(path: Path, suite: str) -> int:
    spec = SUITES[suite]
    times = load_times(path)
    if not times:
        print(f"{path}: no benchmarks recorded", file=sys.stderr)
        return 1
    width = max(len(name) for name in times)
    print(f"\n{path} (best of rounds):")
    for name, best in sorted(times.items()):
        print(f"  {name:<{width}}  {best * 1e3:9.2f} ms")
    for fast, slow in spec["speedup_pairs"]:
        if fast in times and slow in times and times[fast] > 0:
            kernel = fast.replace("test_", "").replace("_sim", "")
            print(f"  {kernel} {spec['pair_label']} speedup: "
                  f"{times[slow] / times[fast]:.2f}x")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--suite", default="sim", choices=sorted(SUITES),
        help="benchmark suite to run (default: %(default)s)",
    )
    parser.add_argument(
        "--output", default=None,
        help="benchmark JSON path (default: the suite's BENCH_*.json)",
    )
    parser.add_argument(
        "--summary-only", action="store_true",
        help="summarize an existing JSON without re-running benchmarks",
    )
    parser.add_argument(
        "--pytest-arg", action="append", default=[],
        help="extra argument forwarded to pytest (repeatable)",
    )
    args = parser.parse_args(argv)
    spec = SUITES[args.suite]
    output = Path(args.output or spec["default_output"])

    if not args.summary_only:
        command = [
            sys.executable, "-m", "pytest",
            str(REPO_ROOT / "benchmarks" / spec["bench_file"]),
            "-m", spec["marker"],
            "--benchmark-only",
            "--benchmark-disable-gc",
            f"--benchmark-json={output}",
            "-q",
        ] + args.pytest_arg
        print("$", " ".join(command))
        status = subprocess.call(command, cwd=REPO_ROOT)
        if status != 0:
            return status
    if not output.exists():
        print(f"{output}: not found", file=sys.stderr)
        return 1
    return summarize(output, args.suite)


if __name__ == "__main__":
    sys.exit(main())
