"""The benchmark's workloads: seeded inputs, the CLI commands of one job, and
the checks on every output.

A job is the fixed sequence of ``qprep`` commands a user runs for one input.
Each workload builds its jobs from a per-job generator, writes the inputs as
JSON files, and hands the program nothing else.  Every step knows how to
check its own outputs; the checks run after the timed loop.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from qprep.gateformat import load_circuit
from qprep.prepare import (
    DETERMINISTIC,
    PROBABILISTIC,
    TargetVector,
    fast_path_prepare,
    required_precision,
)

TAU = 2.0 * math.pi
EPSILON = 0.1
SYNTH_LEVEL = 10
# Same slack the CLI allows on its own bound verdicts.
SLACK = 1e-12
RESIDUAL_LIMIT = 1e-10
FAST_PATH_AGREEMENT = 1e-9
_MODES = {"det": DETERMINISTIC, "prob": PROBABILISTIC}


def random_vector(rng: np.random.Generator, n: int,
                  zero_fraction: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Magnitudes |N(0, 1)| with exactly ``zero_fraction`` of them zero, and
    phases uniform in [0, 2*pi) (zero where the magnitude is zero)."""
    size = 1 << n
    magnitudes = np.abs(rng.standard_normal(size))
    magnitudes[rng.permutation(size)[: int(size * zero_fraction)]] = 0.0
    phases = rng.uniform(0.0, TAU, size)
    phases[(phases >= TAU) | (magnitudes == 0.0)] = 0.0
    return magnitudes, phases


def write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload))
    return path


@dataclass(frozen=True)
class Prepare:
    """``qprep prepare`` with a report and an emitted gate list."""

    vector: Path
    magnitudes: np.ndarray
    phases: np.ndarray
    mode: str
    fast_path: bool
    report: Path
    emit: Path

    def argv(self) -> list[str]:
        path = "--fast-path" if self.fast_path else "--full-circuit"
        return ["prepare", str(self.vector), "--mode", self.mode,
                "--epsilon", repr(EPSILON), path,
                "--report", str(self.report), "--emit", str(self.emit)]

    def check(self, stdout: str) -> list[str]:
        errors = []
        report = json.loads(self.report.read_text())
        amplitudes = np.array([complex(re_, im)
                               for re_, im in report["prepared_amplitudes"]])
        norm = float(np.linalg.norm(self.magnitudes))
        target = self.magnitudes / norm * np.exp(1.0j * self.phases)
        distance = float(np.linalg.norm(amplitudes - target))
        if not distance <= EPSILON + SLACK:
            errors.append(f"distance {distance!r} > epsilon {EPSILON}")
        if self.mode == "prob":
            peak = float(np.max(self.magnitudes))
            lower = norm * norm / (self.magnitudes.size * peak * peak)
            success = report["success_probability"]
            if not success >= lower - SLACK:
                errors.append(f"success {success!r} < lower bound {lower!r}")
        n = int(self.magnitudes.size).bit_length() - 1
        if not self.fast_path:
            residual = report["estimation_residual"]
            if not residual <= RESIDUAL_LIMIT:
                errors.append(f"estimation residual {residual!r}")
            x = TargetVector(n, self.magnitudes, self.phases)
            cfg = required_precision(n, EPSILON, _MODES[self.mode])
            fast = fast_path_prepare(x, cfg).amplitudes
            deviation = float(np.max(np.abs(amplitudes - fast)))
            if not deviation <= FAST_PATH_AGREEMENT:
                errors.append(f"full circuit deviates from fast path by {deviation!r}")
        data_qubits, circuit = load_circuit(self.emit)
        parsed = (data_qubits, circuit.num_qubits, len(circuit.gates))
        reported = (n, report["qubits"], report["gate_count"])
        if parsed != reported:
            errors.append(f"gate list (n, qubits, gates) {parsed} != report {reported}")
        return errors

    def outputs(self, stdout: str) -> list[bytes]:
        return [self.emit.read_bytes()]


_SYNTH_HEADER = re.compile(r"gates=(\d+) bound .* = (\d+)$")


@dataclass(frozen=True)
class SynthDiag:
    """``qprep synth-diag`` on a phases file; its output is the printed summary."""

    phases: Path
    sparse: bool

    def argv(self) -> list[str]:
        argv = ["synth-diag", str(self.phases), "--m", str(SYNTH_LEVEL)]
        return argv + ["--sparse"] if self.sparse else argv

    def check(self, stdout: str) -> list[str]:
        errors = []
        lines = stdout.splitlines()
        if not lines or lines[-1] != "reconstruction exact":
            errors.append("synth-diag did not print 'reconstruction exact'")
        header = _SYNTH_HEADER.search(lines[0]) if lines else None
        if header is None:
            errors.append("synth-diag printed no gate count")
        elif int(header[1]) > int(header[2]):
            errors.append(f"synth-diag gates {header[1]} exceed bound {header[2]}")
        return errors

    def outputs(self, stdout: str) -> list[bytes]:
        return [stdout.encode()]


@dataclass(frozen=True)
class Verify:
    """``qprep verify --suite bounds``: 7 cells per trial, all must hold."""

    seed: int
    n: int
    trials: int
    out: Path

    def argv(self) -> list[str]:
        return ["verify", "--suite", "bounds", "--n", str(self.n),
                "--trials", str(self.trials), "--seed", str(self.seed),
                "--out", str(self.out)]

    def rows(self) -> list[dict]:
        return [json.loads(line) for line in self.out.read_text().splitlines()]

    def check(self, stdout: str) -> list[str]:
        rows = self.rows()
        errors = [f"unsatisfied verify row {row['config']}"
                  for row in rows if row["satisfied"] is not True]
        if len(rows) != 7 * self.trials:
            errors.append(f"verify wrote {len(rows)} rows, expected {7 * self.trials}")
        return errors

    def outputs(self, stdout: str) -> list[bytes]:
        # Configs, phase-stage gate counts and verdicts are exact; measured
        # distances are floats a correct simulator change may move.
        return [json.dumps({key: row[key] for key in
                            ("config", "gate_counts", "satisfied")},
                           sort_keys=True).encode()
                for row in self.rows()]


Step = Prepare | SynthDiag | Verify


def _write_vector(jobdir: Path, tag: str, magnitudes: np.ndarray,
                  phases: np.ndarray) -> Path:
    n = int(magnitudes.size).bit_length() - 1
    return write_json(jobdir / f"vector-{tag}.json", {"n": n, "entries": [
        {"magnitude": float(m), "phase": float(p)}
        for m, p in zip(magnitudes, phases)]})


def _prepare(jobdir: Path, tag: str, vector: Path, magnitudes: np.ndarray,
             phases: np.ndarray, mode: str, fast_path: bool) -> Prepare:
    return Prepare(vector, magnitudes, phases, mode, fast_path,
                   jobdir / f"report-{tag}-{mode}.json",
                   jobdir / f"gates-{tag}-{mode}.txt")


def sim_large_job(rng: np.random.Generator, jobdir: Path, smoke: bool) -> list[Step]:
    steps: list[Step] = []
    for tag, n, mode in (("a", 2 if smoke else 4, "prob"),
                         ("b", 3 if smoke else 6, "det")):
        magnitudes, phases = random_vector(rng, n)
        vector = _write_vector(jobdir, tag, magnitudes, phases)
        steps.append(_prepare(jobdir, tag, vector, magnitudes, phases, mode,
                              fast_path=False))
    return steps


def sweep_small_job(rng: np.random.Generator, jobdir: Path, smoke: bool) -> list[Step]:
    return [Verify(int(rng.integers(1 << 31)), n=2, trials=1,
                   out=jobdir / "rows.jsonl")]


def compile_large_job(rng: np.random.Generator, jobdir: Path, smoke: bool) -> list[Step]:
    n = 4 if smoke else 10
    size = 1 << n
    magnitudes, phases = random_vector(rng, n, zero_fraction=0.5)
    vector = _write_vector(jobdir, "x", magnitudes, phases)
    steps: list[Step] = [
        _prepare(jobdir, "x", vector, magnitudes, phases, mode, fast_path=True)
        for mode in ("det", "prob")
    ]
    full = write_json(jobdir / "phases-full.json",
                      {"n": n, "phases": [float(p) for p in phases]})
    # n supported entries, each on a nonzero grid cell (mid-cell, so the
    # floor is unambiguous).
    sparse_phases = np.zeros(size)
    cells = rng.integers(1, 1 << SYNTH_LEVEL, n)
    sparse_phases[rng.choice(size, n, replace=False)] = \
        TAU * (cells + 0.5) / (1 << SYNTH_LEVEL)
    sparse = write_json(jobdir / "phases-sparse.json",
                        {"n": n, "phases": [float(p) for p in sparse_phases]})
    return steps + [SynthDiag(full, sparse=False), SynthDiag(sparse, sparse=True)]


# The shared host's speed drifts by a quarter within tens of seconds.  A
# fixed reference timed right after each job drifts with it, so job time over
# reference time cancels the drift, provided the reference is bound by what
# bounds the job: the interpreter, or memory traffic over large arrays.
LOOP_ITERATIONS = 300_000
ARRAY_QUBITS = 19  # sim-large's largest state
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def loop_reference_ms() -> float:
    """A pure-Python integer loop, about 20 ms on a 2-vCPU x86-64 VM."""
    start = perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return (perf_counter() - start) * 1e3


def array_reference_ms() -> float:
    """Four passes over 2^19 amplitudes like the simulator's kernels (masked
    phase, 2x2 product), about 35 ms on the same machine.  The arrays are
    freed on return, so they stay below sim-large's peak RSS."""
    start = perf_counter()
    amplitudes = np.ones(1 << ARRAY_QUBITS, dtype=complex)
    for _ in range(4):
        indices = np.arange(amplitudes.size)
        out = amplitudes.copy()
        out[(indices & 0x155) == 0x155] *= 1j
        out = (_HADAMARD @ out.reshape(2, -1)).reshape(-1)
    return (perf_counter() - start) * 1e3


@dataclass(frozen=True)
class Workload:
    make_job: Callable[[np.random.Generator, Path, bool], list[Step]]
    # Timed after each job; see the comment above loop_reference_ms.
    reference_ms: Callable[[], float]
    # Spans the traced run must see on the first job; a missing one means a
    # wrapper missed its binding site or the job skipped the layer.
    expected_spans: tuple[str, ...]


_SHARED_SPANS = ("cli.main", "prepare.build", "prepare.compute_marginals",
                 "prepare.compute_angles", "prepare.build_phase_stage",
                 "synth.peel_synthesize", "dyadic.quantize")
_SIM_SPANS = ("prepare.simulate_preparation", "sim.apply_circuit",
              "sim.gate.H", "sim.gate.CZP", "sim.gate.DIAG", "sim.gate.CRY",
              "sim.project_measure")

WORKLOADS = {
    "sim-large": Workload(
        sim_large_job, array_reference_ms, _SHARED_SPANS + _SIM_SPANS + (
            "cli.cmd_prepare", "cli.load_vector", "sim.gate.RY",
            "gateformat.save_circuit")),
    "sweep-small": Workload(
        sweep_small_job, loop_reference_ms, _SHARED_SPANS + _SIM_SPANS + (
            "cli.cmd_verify", "analysis.evaluate_bounds")),
    "compile-large": Workload(
        compile_large_job, loop_reference_ms, _SHARED_SPANS + (
            "cli.cmd_prepare", "cli.cmd_synth_diag", "cli.load_vector",
            "cli.load_phases", "prepare.fast_path_prepare",
            "synth.sparse_synthesize", "synth.reconstruct",
            "gateformat.save_circuit")),
}
