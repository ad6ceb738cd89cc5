"""qprep benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sim-large --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory, never from an installed copy.  Workloads, metrics and
their meaning are described in perfbench/README.md and BENCHMARK.json.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run.  ``--smoke`` shrinks every workload to a small n for the
benchmark's own tests.  The exit code is nonzero, and no result is printed,
when the program cannot be found or the worker fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
# Fresh processes timed from start to "qprep.cli imported", half before the
# workload and half after it, so that they span the run; one extra, untimed
# start first fills the bytecode and file caches.
SETUP_SAMPLES = 7
# The worker's budget beyond --seconds: the last job, the checks, start-up.
WORKER_GRACE_S = 120
TAIL_MIN_BEYOND = 10
# One BLAS thread: on a machine of few shared cores, a second thread that
# spins between small products measures the scheduler, not the program.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (("setup_s", "s"), ("job_cost.p50", "ratio"), ("peak_rss_mb", "MB"))


def start_worker(args: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its "ready" line; returns it and the
    seconds that took."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    elapsed = perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return proc, elapsed


def probe(env: dict) -> float:
    proc, elapsed = start_worker(["--probe"], env)
    proc.communicate(timeout=WORKER_GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return elapsed


def tail(job_ms: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least TAIL_MIN_BEYOND jobs above
    it (nearest rank), or None when only the median qualifies."""
    ordered = sorted(job_ms)
    count = len(ordered)
    for percentile in range(99, 50, -1):
        rank = math.ceil(percentile / 100 * count)
        if count - rank >= TAIL_MIN_BEYOND:
            return percentile, ordered[rank - 1]
    return None


def run(args: argparse.Namespace) -> dict:
    root = Path.cwd()
    src = root / "src"
    if not (src / "qprep" / "__init__.py").is_file():
        raise RuntimeError(f"no qprep sources under {src}; run from a checkout root")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])
    env.update(THREADS)
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    # The worker's own start is the last set-up sample.
    before = 0 if args.trace else (SETUP_SAMPLES - 1) // 2
    after = 0 if args.trace else SETUP_SAMPLES - 1 - before
    setup = []
    if before:
        probe(env)
        setup = [probe(env) for _ in range(before)]
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--workdir", str(workdir)] + (["--smoke"] if args.smoke else [])
    proc = None
    try:
        proc, elapsed = start_worker(worker_args, env)
        setup.append(elapsed)
        out, _ = proc.communicate(timeout=args.seconds + WORKER_GRACE_S)
    finally:
        if proc is not None and proc.returncode is None:
            proc.kill()
            proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    setup += [probe(env) for _ in range(after)]
    result = json.loads(out.splitlines()[-1])
    result["setup_s"] = setup
    return result


def report(result: dict, trace: bool) -> dict:
    """Print the readable lines and return the final JSON object."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"closed loop, 1 client  threads {json.dumps(result['threads'])}")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.6g}")
    for error in result["errors"]:
        print(f"error: {error}", file=sys.stderr)
    print(f"outputs_digest {result['outputs_digest']}")
    if trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        print("span  calls(job 0)  inclusive_s/job  self_s/job")
        for name, (calls, inclusive, own) in result["spans"].items():
            print(f"  {name:<40} {calls:>8} {inclusive:12.6f} {own:12.6f}")
    else:
        job_ms, reference_ms = result["job_ms"], result["reference_ms"]
        values = {
            "setup_s": statistics.median(result["setup_s"]),
            "job_cost.p50": statistics.median(
                job / reference for job, reference in zip(job_ms, reference_ms)),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        print(f"timed jobs {len(job_ms)}  setup samples {len(result['setup_s'])}")
        print(f"job_ms.p50 {statistics.median(job_ms):.6g} ms  "
              f"reference_ms.p50 {statistics.median(reference_ms):.6g} ms")
        print(f"jobs_per_s {len(job_ms) / (sum(job_ms) / 1e3):.6g} 1/s")
        high = tail(job_ms)
        if high is None:
            print(f"job_ms.tail omitted: {len(job_ms)} jobs leave no percentile "
                  f"above the median with {TAIL_MIN_BEYOND} jobs beyond it")
        else:
            print(f"job_ms.tail p{high[0]} = {high[1]:.6g} ms (n={len(job_ms)})")
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small n, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
