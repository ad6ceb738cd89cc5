"""The benchmark's tracer against the program it traces.

``perfbench/tracer.py`` wraps the package's functions from outside and
reads ``StateVector.num_qubits`` before the constructor runs, so a change to
the package can break the benchmark while every other test passes.  Here
job 0 of each workload runs at smoke size, in-process and traced, through
the benchmark's own loop: it must pass its output checks and fire every
span the workload expects.  The benchmark's files are imported, never
written (no bytecode is left beside them).
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [workload["name"] for workload in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
SEED = 3


@pytest.fixture(scope="module")
def loop():
    """``perfbench/loop.py``, which imports ``tracer`` and ``workloads`` by
    their bare names from its own directory."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("loop")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        for name in ("loop", "tracer", "workloads"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_traced_smoke_job_passes_its_checks_and_fires_every_expected_span(
        loop, workload, tmp_path):
    spec = loop.WORKLOADS[workload]
    steps = spec.make_job(np.random.default_rng([SEED, 0]), tmp_path, True)
    tracer = loop.Tracer()
    run = loop.execute(steps, tracer)
    assert loop.job_errors(steps, [run]) == []
    trace = tracer.take()
    assert [span for span in spec.expected_spans if trace.span(span).calls == 0] == []
