"""The benchmark's own tests: every workload once at small n, in seconds.

    python3 -m pytest -q perfbench/test_smoke.py

They check that the printed metric names and units match BENCHMARK.json,
that every output check passes, that the exact counts and outputs_digest
repeat for one seed, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
SEED = 3


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT,
                  smoke: bool = True) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
               "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, str]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    digest = next(line for line in lines if line.startswith("outputs_digest "))
    return result, digest


def units(metrics: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_match_benchmark_json_and_counts_repeat(workload):
    plain, plain_digest = result_of(run_benchmark(workload, 0))
    assert units(plain["metrics"]) == {m["name"]: m["unit"]
                                       for m in BENCHMARK["end_to_end"]}
    assert all(metric["value"] > 0 for metric in plain["metrics"].values())

    traced = [result_of(run_benchmark(workload, 1)) for _ in range(2)]
    for result, digest in traced:
        assert units(result["metrics"]) == {m["name"]: m["unit"]
                                            for m in BENCHMARK["per_layer"]}
        assert digest == plain_digest
    counts = [name for name, unit in units(traced[0][0]["metrics"]).items()
              if unit in ("count", "B")]
    first, second = (result["metrics"] for result, _ in traced)
    assert {name: first[name] for name in counts} == \
        {name: second[name] for name in counts}


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_benchmark(WORKLOADS[0], 0, cwd=bare, smoke=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
