"""The worker's closed loop: one client runs jobs back to back.

Job 0 is a warm-up: it runs untimed (traced, with ``--trace 1``), and its
outputs give the exact counts and ``outputs_digest``, which repeat for a
seed.  Jobs 1, 2, ... are timed until ``--seconds`` have passed; at least
one always runs.  Right after each timed job, the workload's fixed reference
is timed; the ratio of the two is the job's cost in units of the machine's
speed at that moment (see ``workloads.py``).  With ``--trace 1`` each timed
job runs twice on the same inputs, once plain and once traced, so the two
medians give the tracing overhead.  Peak RSS is read before the checks,
which run after the loop and never inside a timed span.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import qprep.cli
from tracer import JobTrace, Tracer, layer_metrics
from workloads import WORKLOADS, Step

MAX_REPORTED_ERRORS = 5


@dataclass
class Run:
    """One execution of a job's commands."""

    seconds: float = 0.0
    codes: list[int] = field(default_factory=list)
    stdouts: list[str] = field(default_factory=list)
    stderrs: list[str] = field(default_factory=list)
    error: str | None = None


def execute(steps: list[Step], tracer: Tracer | None) -> Run:
    run = Run()
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    try:
        for step in steps:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                run.codes.append(qprep.cli.main(step.argv()))
            run.stdouts.append(out.getvalue())
            run.stderrs.append(err.getvalue())
    except Exception:  # a crashing job is counted as failed; the loop goes on
        run.error = traceback.format_exc(limit=4)
    finally:
        run.seconds = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    return run


def job_errors(steps: list[Step], runs: list[Run]) -> list[str]:
    """Every failed check of one job; empty when the job succeeded."""
    errors = []
    for run in runs:
        if run.error is not None:
            errors.append(run.error)
            continue
        for step, code, stderr in zip(steps, run.codes, run.stderrs):
            if code != 0:
                errors.append(f"{step.argv()[0]} exited {code}: {stderr.strip()}")
    if errors:
        return errors
    for step, stdout in zip(steps, runs[-1].stdouts):
        try:
            errors.extend(step.check(stdout))
        except Exception:  # an unreadable output fails the check
            errors.append(traceback.format_exc(limit=2))
    return errors


def outputs_digest(steps: list[Step], run: Run) -> str:
    digest = hashlib.sha256()
    for step, stdout in zip(steps, run.stdouts):
        for part in step.outputs(stdout):
            digest.update(len(part).to_bytes(8, "little"))
            digest.update(part)
    return "sha256:" + digest.hexdigest()


def thread_settings() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    settings = {"nproc": os.cpu_count(), "blas": f"{blas['name']} {blas['version']}"}
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        settings[name] = os.environ.get(name)
    return settings


def span_table(first: JobTrace, timed: list[JobTrace]) -> dict:
    """Per span: calls on job 0, and inclusive and self seconds per timed job."""
    names = sorted({name for job in [first, *timed] for name in job.spans})
    return {name: [first.span(name).calls,
                   sum(job.span(name).inclusive for job in timed) / len(timed),
                   sum(job.span(name).own for job in timed) / len(timed)]
            for name in names}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, workdir: Path) -> dict:
    workload = WORKLOADS[name]
    tracer = Tracer() if trace else None

    def new_job(index: int) -> list[Step]:
        jobdir = workdir / f"job{index}"
        jobdir.mkdir()
        return workload.make_job(np.random.default_rng([seed, index]), jobdir, smoke)

    first_steps = new_job(0)
    first_run = execute(first_steps, tracer)
    jobs = [(first_steps, [first_run])]
    first_trace = tracer.take() if tracer is not None else None
    plain_ms: list[float] = []
    reference: list[float] = []
    traced_ms: list[float] = []
    traces: list[JobTrace] = []
    start = perf_counter()
    while len(jobs) == 1 or perf_counter() - start < seconds:
        steps = new_job(len(jobs))
        runs = [execute(steps, None)]
        plain_ms.append(runs[0].seconds * 1e3)
        if tracer is None:
            reference.append(workload.reference_ms())
        else:
            runs.append(execute(steps, tracer))
            traced_ms.append(runs[1].seconds * 1e3)
            traces.append(tracer.take())
        jobs.append((steps, runs))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = [job_errors(steps, runs) for steps, runs in jobs]
    result = {
        "workload": name,
        "seed": seed,
        "attempted": len(jobs),
        "failed": sum(1 for e in errors if e),
        "errors": [e for job in errors for e in job][:MAX_REPORTED_ERRORS],
        "outputs_digest": outputs_digest(first_steps, first_run),
        "threads": thread_settings(),
    }
    if tracer is None:
        result["job_ms"] = plain_ms
        result["reference_ms"] = reference
        result["peak_rss_mb"] = peak_rss_mb
        return result
    missing = [span for span in workload.expected_spans
               if first_trace.span(span).calls == 0]
    if missing:
        raise RuntimeError(f"expected spans did not fire on {name}: {missing}")
    result["layers"] = layer_metrics(first_trace, traces, traced_ms, plain_ms)
    result["spans"] = span_table(first_trace, traces)
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke, args.workdir)
    print(json.dumps(result))
    return 0
