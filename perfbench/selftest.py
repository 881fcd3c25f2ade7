"""Reduced-size self-test of the benchmark.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that:

* ``run.py`` and ``BENCHMARK.json`` name the same metrics and units;
* every workload, run at the reduced size with and without tracing,
  prints one final JSON line with every metric and its unit, correct
  and with no failed point;
* a wrong right-hand side passed to ``verify_iteration`` is counted as
  a failed point, and so in ``failed_ratio``;
* ``run.py`` refuses to report under a reference-implementation switch,
  and fails without a result where the program is missing.

The file is not named ``test_*.py`` or ``bench_*.py``, so pytest never
collects it.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import Ledger  # noqa: E402


def invoke(*extra, cwd=ROOT, env=None, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--seed", "1", "--seconds", "1",
         *extra],
        cwd=str(cwd), env=env, capture_output=True, text=True, timeout=300,
    )


def check_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END, (declared, run.END_TO_END)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == run.PER_LAYER, (declared, run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def check_output(workload, trace):
    completed = invoke("--workload", workload, "--trace", str(trace),
                       "--size", "reduced")
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, completed.stderr[-2000:]
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected), result["metrics"]
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name], (name, metric)
        assert math.isfinite(metric["value"]), (name, metric)
        if not trace:
            assert metric["value"] > 0, (name, metric)
    print(f"ok   {workload} --trace {trace}: "
          f"{len(result['metrics'])} metrics, "
          f"{result['attempted']} points")


def check_wrong_rhs_counted():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.config import AzulConfig
    from repro.core import get_mapper
    from repro.experiments.common import ExperimentSession
    from repro.sim import AzulMachine

    config = AzulConfig(mesh_rows=4, mesh_cols=4)
    prepared = ExperimentSession(config, use_cache=False).prepare("thermal2")
    placement = get_mapper("round_robin")(
        prepared.matrix, prepared.lower, config.num_tiles)
    result = AzulMachine(config).simulate_pcg(
        prepared.matrix, prepared.lower, placement, prepared.b)

    ledger = Ledger()
    ledger.check("thermal2/round_robin/azul", result, prepared.matrix,
                 prepared.lower, prepared.b)
    ledger.check("thermal2/round_robin/azul-wrong-rhs", result,
                 prepared.matrix, prepared.lower, prepared.b + 1.0)
    assert ledger.attempted == 2 and ledger.failed == 1, ledger.failures
    assert "wrong-rhs" in next(iter(ledger.failures))
    report = {"attempted": ledger.attempted, "failed": ledger.failed}
    assert run.failed_ratio([report]) == 0.5
    print("ok   wrong right-hand side counted in failed_ratio")


def check_refusals():
    env = dict(os.environ, AZUL_SIM_REFERENCE="1")
    completed = invoke("--workload", "scale_up", env=env)
    assert completed.returncode != 0 and not completed.stdout.strip()

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = invoke("--workload", "scale_up", cwd=bare,
                           script=bare / HERE.name / "run.py")
        assert completed.returncode != 0 and not completed.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok   refuses reference switches and a missing program")


def main():
    check_declared_metrics()
    check_refusals()
    check_wrong_rhs_counted()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_output(workload, trace)
    print("selftest passed")


if __name__ == "__main__":
    main()
