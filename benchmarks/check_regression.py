#!/usr/bin/env python
"""Gate a tracked benchmark run against its committed baseline.

Two checks, both over the pytest-benchmark JSON emitted by
``benchmarks/emit_bench.py``:

1. **Per-benchmark regression** — each benchmark's best-of-rounds time
   must not be more than ``--threshold`` (default 25%) slower than the
   same benchmark in the baseline file.  Absolute timings are machine
   dependent, so CI keeps the baselines refreshed from the same runner
   class (see ``benchmarks/baselines/``).
2. **Speedup floor** — the suite's fast implementation must stay at
   least ``--min-speedup`` faster than its golden model in
   ``tests/oracles``.  This ratio is machine *independent*, so it
   holds even when the absolute baseline is stale.

   * ``sim`` (default floor 1.05x): the per-op golden model shares the
     batched simulator's optimized control path, so the remaining gap
     is the pure batching benefit —
     ~1.4x on the 300-node FEM SpMV and ~1.1x on the
     dependence-limited SpTRSV.
   * ``mapping`` (default floor 1.5x): the golden heap-FM bookkeeping
     shares the vectorized coarsening/initial phases and the
     dirty-set selection loop, so the gap is the pure CSR-gain
     bookkeeping benefit — ~2.2x on the consph quality partition.
   * ``solver`` (default floor 5x): warm level-scheduled SpTRSV over
     the per-row reference loops on BenElechi1 x4 (~25x measured);
     the IC(0) and end-to-end PCG pairs carry their own per-pair
     floors (3x / 1.5x, ``pair_floors`` in the suite spec) because
     they include one-time schedule builds.
   * ``compile`` (default floor 5x): the batched dataflow lowering
     over the per-element golden model on the BenElechi1 x4 PCG
     program triple (~8x measured); both produce bit-identical
     programs, so the ratio is pure lowering speed.

   A suite may declare per-pair floors (``pair_floors``); an explicit
   ``--min-speedup`` overrides every floor, per-pair ones included.

Exit status is non-zero on any violation.

Usage::

    python benchmarks/check_regression.py BENCH_mapping.json \
        --suite mapping \
        --baseline benchmarks/baselines/BENCH_mapping.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from emit_bench import SUITES, load_times  # noqa: E402

BASELINE_DIR = Path(__file__).resolve().parent / "baselines"

#: Machine-independent fast-vs-reference floors per suite.
DEFAULT_MIN_SPEEDUP = {
    "sim": 1.05, "mapping": 1.5, "solver": 5.0, "compile": 5.0,
}


def check(current_path: Path, baseline_path: Path, threshold: float,
          min_speedup: float, suite: str,
          use_pair_floors: bool = True) -> int:
    spec = SUITES[suite]
    current = load_times(current_path)
    failures = 0

    if baseline_path.exists():
        baseline = load_times(baseline_path)
        for name in sorted(current):
            if name not in baseline or baseline[name] <= 0:
                print(f"  new benchmark (no baseline): {name}")
                continue
            ratio = current[name] / baseline[name]
            status = "ok"
            if ratio > 1.0 + threshold:
                status = "REGRESSION"
                failures += 1
            print(f"  {name}: {current[name] * 1e3:.2f} ms vs baseline "
                  f"{baseline[name] * 1e3:.2f} ms ({ratio:.2f}x) [{status}]")
    else:
        print(f"  baseline {baseline_path} missing — skipping absolute "
              "regression check")

    pair_floors = spec.get("pair_floors", {}) if use_pair_floors else {}
    for fast, slow in spec["speedup_pairs"]:
        if fast not in current or slow not in current:
            continue
        floor = pair_floors.get(fast, min_speedup)
        speedup = current[slow] / current[fast]
        status = "ok"
        if speedup < floor:
            status = f"BELOW FLOOR ({floor:.1f}x)"
            failures += 1
        kernel = fast.replace("test_", "").replace("_sim", "")
        print(f"  {kernel} {spec['pair_label']} speedup: "
              f"{speedup:.2f}x [{status}]")

    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("current", help="freshly emitted BENCH_*.json")
    parser.add_argument(
        "--suite", default="sim", choices=sorted(SUITES),
        help="benchmark suite being gated (default: %(default)s)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="committed baseline JSON "
             "(default: benchmarks/baselines/<suite default output>)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="max allowed slowdown vs baseline (default: %(default)s)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="fast-vs-reference speedup floor, overriding the suite "
             "default and any per-pair floors "
             "(default: per suite — sim 1.05, mapping 1.5, solver 5, "
             "compile 5)",
    )
    args = parser.parse_args(argv)
    baseline = Path(
        args.baseline
        or BASELINE_DIR / SUITES[args.suite]["default_output"]
    )
    min_speedup = (
        DEFAULT_MIN_SPEEDUP[args.suite]
        if args.min_speedup is None else args.min_speedup
    )

    print(f"checking {args.current} against {baseline} "
          f"(suite {args.suite}, threshold {args.threshold:.0%}, "
          f"speedup floor {min_speedup:.1f}x)")
    failures = check(
        Path(args.current), baseline, args.threshold, min_speedup,
        args.suite, use_pair_floors=args.min_speedup is None,
    )
    print(f"failures: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
