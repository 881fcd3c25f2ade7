"""End-to-end benchmark of the Azul reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_plan --seconds 36 --trace 0

The run repeats *passes* of the workload until ``--seconds`` have been
spent (at least two).  Every pass is a fresh process with a private,
empty ``REPRO_CACHE_DIR`` and ``--jobs 1``, so no in-process memo or
earlier cache turns a cold pass warm.  Each metric is the median over
the passes.  With ``--trace 1`` the passes alternate untraced and
traced, the per-layer metrics come from the traced ones, and the spans
are written to ``.perfbench/trace-<workload>-seed<n>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it give a digest of every simulated point and the program's
effective environment overrides.  See ``perfbench/README.md``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 — the pass clock starts before imports
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

WORKLOADS = ("cold_plan", "sim_sweep", "scale_up")

#: Partitioner seed used when ``--seed`` is not given.
DEFAULT_SEED = 0

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "mapping_gain_gmean": "x",
    "azul_gflops_gmean": "GFLOP/s",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "failed_ratio": "fraction",
    "experiments.plan_s": "s",
    "experiments.reduce_s": "s",
    "experiments.self_s": "s",
    "experiments.points_total": "count",
    "experiments.points_unique": "count",
    "parallel.sweep_self_s": "s",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.writes": "count",
    "prepare.s": "s",
    "precond.ic0_s": "s",
    "core.map_azul_s": "s",
    "hypergraph.coarsen_s": "s",
    "hypergraph.initial_s": "s",
    "hypergraph.refine_s": "s",
    "hypergraph.bisections": "count",
    "hypergraph.refine_calls": "count",
    "dataflow.compile_s": "s",
    "dataflow.compile_builds": "count",
    "dataflow.program_hit_ratio": "fraction",
    "sim.simulate_s": "s",
    "sim.verify_s": "s",
    "sim.ops": "count",
    "sim.host_us_per_op": "us",
    "sim.cycles": "cycles",
    "sim.link_activations": "count",
    "sim.link_queue_delay": "cycles",
    "sim.spills": "count",
    "sim.stall_slot_ratio": "fraction",
    "trace.setup_s": "s",
    "trace.wall_s": "s",
    "trace.uncovered_setup_s": "s",
    "trace.uncovered_wall_s": "s",
    "obs.overhead_ratio": "fraction",
}

#: Environment that selects reference implementations or changes how
#: sweeps and the cache run; the benchmark refuses to report under it.
REFUSED_ENV = re.compile(
    r"^(AZUL_\w+_REFERENCE|REPRO_JOBS|REPRO_CACHE_DISABLE)$")

MIN_PASSES = 2
#: A run must end within 180 s; no pass starts past this point.
LAST_START_S = 150.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "reduced"),
                        default="full",
                        help="input set; 'reduced' is the self-test's")
    parser.add_argument("--pass-out", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# ----------------------------------------------------------------------
# One pass (child process)
# ----------------------------------------------------------------------
def child(args) -> None:
    from workloads import run_pass

    report = run_pass(args.workload, args.size, args.seed,
                      bool(args.trace), STARTED)
    Path(args.pass_out).write_text(json.dumps(report), encoding="utf-8")


def run_child(args, index: int, traced: bool, run_dir: Path,
              timeout: float) -> dict:
    """Run one pass in a fresh process with a private, empty cache."""
    pass_dir = run_dir / f"pass-{index}"
    pass_dir.mkdir(parents=True)
    out = pass_dir / "report.json"
    env = dict(os.environ)
    env.update({
        "REPRO_CACHE_DIR": str(pass_dir / "cache"),
        "PYTHONPATH": str(ROOT / "src"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(int(traced)), "--size", args.size,
        "--pass-out", str(out),
    ]
    try:
        completed = subprocess.run(command, env=env, cwd=str(ROOT),
                                   stdout=sys.stderr, timeout=timeout)
        if completed.returncode != 0:
            fail(f"pass {index} exited with code {completed.returncode}")
        return json.loads(out.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        fail(f"pass {index} did not finish within {timeout:.0f} s")
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# The run (parent process)
# ----------------------------------------------------------------------
def run_passes(args, run_dir: Path) -> list:
    """Passes until ``--seconds`` are spent; traced runs alternate."""
    passes = []
    durations = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES:
            typical = statistics.median(durations)
            if (elapsed + typical > args.seconds
                    or elapsed + typical > LAST_START_S):
                break
        traced = bool(args.trace) and len(passes) % 2 == 1
        began = time.perf_counter()
        report = run_child(args, len(passes), traced, run_dir,
                           timeout=max(10.0, 170.0 - elapsed))
        durations.append(time.perf_counter() - began)
        report["traced"] = traced
        passes.append(report)
    return passes


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def failed_ratio(passes) -> float:
    """Failed points over attempted points, across passes."""
    return (sum(p["failed"] for p in passes)
            / sum(p["attempted"] for p in passes))


def summarize(args, passes) -> dict:
    """Medians over passes, the correctness verdict, and the output."""
    digests = [
        ({k: v["digest"] for k, v in p["points"].items()}, p["outcomes"])
        for p in passes
    ]
    problems = []
    for index, report in enumerate(passes):
        for label, reason in sorted(report["failures"].items()):
            problems.append(f"pass {index}: {label} failed: {reason}")
        if digests[index] != digests[0]:
            problems.append(f"pass {index}: outputs differ from pass 0")
    if not passes[0]["points"]:
        problems.append("no simulated point")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        values = {
            name: statistics.median(p["layers"][name] for p in traced)
            for name in PER_LAYER
            if name not in ("failed_ratio", "obs.overhead_ratio")
        }
        values["failed_ratio"] = failed_ratio(passes)
        values["obs.overhead_ratio"] = (
            median_of(traced, "wall_s") / median_of(untraced, "wall_s") - 1
        )
        units = PER_LAYER
    else:
        values = {name: median_of(untraced, name) for name in END_TO_END}
        units = END_TO_END
    return {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }


def print_points(args, passes) -> None:
    """Per-point digest lines (identical across passes when correct)."""
    print(f"# workload={args.workload} seed={args.seed} size={args.size} "
          f"passes={len(passes)} traced={sum(p['traced'] for p in passes)}")
    for index, report in enumerate(passes):
        print(f"pass {index} traced={int(report['traced'])} "
              f"setup_s={report['setup_s']:.4f} "
              f"wall_s={report['wall_s']:.4f} "
              f"peak_rss_mb={report['peak_rss_mb']:.1f}")
    for label, stats in sorted(passes[0]["points"].items()):
        print(f"point {label} cycles={stats['cycles']} ops={stats['ops']} "
              f"links={stats['link_activations']} "
              f"queue={stats['link_queue_delay']} "
              f"spills={stats['spills']} digest={stats['digest']}")
    for experiment_id, rows in sorted(passes[0]["outcomes"].items()):
        print(f"experiment {experiment_id} digest={rows}")
    print("overrides " + json.dumps(passes[0]["overrides"], sort_keys=True))


def write_trace(args, passes) -> Path:
    """Write the traced passes' spans when the run ends."""
    path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": [
            {"setup_s": p["setup_s"], "wall_s": p["wall_s"],
             "spans": p["spans"]}
            for p in passes if p["traced"]
        ],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def main(argv=None) -> None:
    args = parse_args(argv)
    if args.pass_out:
        child(args)
        return
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"the program is missing: no src/repro under {ROOT}")
    refused = sorted(name for name in os.environ if REFUSED_ENV.match(name))
    if refused:
        fail(f"refusing to report with {', '.join(refused)} set")

    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        passes = run_passes(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = summarize(args, passes)
    print_points(args, passes)
    if args.trace:
        print(f"trace {write_trace(args, passes).relative_to(ROOT)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
