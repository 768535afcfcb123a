"""Checks of the benchmark harness itself, at smoke sizes.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "--workload", "lift", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def workloads():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import workloads

        yield workloads
    finally:
        del sys.path[:2]


def test_inputs_follow_the_seed(workloads):
    assert workloads.Lift(5, True).instances == workloads.Lift(5, True).instances
    assert workloads.Lift(5, True).instances != workloads.Lift(6, True).instances
    assert workloads.Cli(5, True).mix == workloads.Cli(5, True).mix
    assert workloads.Cli(5, True).mix != workloads.Cli(6, True).mix


def test_cli_checker_counts_wrong_outputs(workloads):
    cli = workloads.Cli(1, True)
    argv = ("convergence", "check", "--blocks", "1,0;2,2;0,1")
    good = cli._in_process(argv)
    assert good.code == 0 and cli._problem(good) is None
    assert cli._problem(workloads.Run(argv, 1, good.stdout, "")) is not None
    doc = json.loads(good.stdout)
    doc["convergent"] = False
    assert cli._problem(workloads.Run(argv, 0, json.dumps(doc), "")) is not None
    malformed = workloads.MALFORMED[0]
    assert cli._problem(workloads.Run(malformed, 1, "", "")) is not None
