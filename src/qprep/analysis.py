"""Measured-versus-analytic comparison of preparation error and success bounds.

The distance metric is the plain Euclidean 2-norm of the amplitude difference
with no global-phase alignment, exactly as the analytic bounds state it;
``overlap_fidelity`` is reported alongside as the phase-insensitive companion.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .prepare import (
    DETERMINISTIC,
    PROBABILISTIC,
    PrecisionConfig,
    TargetVector,
    build,
    fast_path_prepare,
    simulate_preparation,
)
from .sim import Circuit, StateVector
from .synth import count_gate_list

BOUND_SLACK = 1e-12


def state_distance(a: StateVector, b: StateVector) -> float:
    """2-norm || |a> - |b> ||; sensitive to global phase by design."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"dimension mismatch: {a.num_qubits} vs {b.num_qubits} qubits")
    return float(np.linalg.norm(a.amplitudes - b.amplitudes))


def overlap_fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|, invariant under global phase."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"dimension mismatch: {a.num_qubits} vs {b.num_qubits} qubits")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))


def success_lower_bound(x: TargetVector) -> float:
    """||x||^2 / (2^n * max_i x_i^2): the guaranteed post-selection probability."""
    scaled = x.scaled_magnitudes()
    peak = float(np.max(scaled))
    return float(np.sum(scaled ** 2)) / ((1 << x.num_qubits) * peak * peak)


def deterministic_distance_bound(num_qubits: int, estimation_bits: int) -> float:
    """Magnitude error of the iterative scheme: (n-1) * sqrt(2)*pi / 2**(t-1)."""
    return (num_qubits - 1) * math.sqrt(2.0) * math.pi / (1 << (estimation_bits - 1))


def probabilistic_distance_bound(num_qubits: int, estimation_bits: int) -> float:
    """Post-selected magnitude error of the one-shot scheme: 2^(2n+1)*pi/2^(t+1)."""
    return (1 << (2 * num_qubits + 1)) * math.pi / (1 << (estimation_bits + 1))


def phase_stage_distance_bound(num_qubits: int, phase_bits: int) -> float:
    """Error added by quantizing the phases: 2^n * pi / 2**(t'-1)."""
    return (1 << num_qubits) * math.pi / (1 << (phase_bits - 1))


def total_distance_bound(x: TargetVector, cfg: PrecisionConfig) -> float:
    """Magnitude bound for the configured mode plus the phase-stage term.

    The phase term is exactly zero when every target phase is zero, since the
    quantized phases then vanish identically.
    """
    if cfg.mode == DETERMINISTIC:
        bound = deterministic_distance_bound(x.num_qubits, cfg.estimation_bits)
    else:
        bound = probabilistic_distance_bound(x.num_qubits, cfg.estimation_bits)
    if np.any(x.phases != 0.0):
        bound += phase_stage_distance_bound(x.num_qubits, cfg.phase_bits)
    return bound


@dataclass
class BoundReport:
    """One measured-versus-bound cell: a ``verify`` row or a ``prepare`` report.

    The fields after ``error`` are not part of a row; they carry the
    prepared state and circuit that ``qprep prepare`` reports and emits (and
    the state the dualpath suite compares), and are unset on a failed cell.
    """

    config: dict
    measured_distance: float
    theoretical_bound: float
    measured_success_probability: float | None
    success_lower_bound: float | None
    gate_counts: dict[tuple[int, int], int]
    satisfied: bool
    seed: int | None = None
    error: str | None = None
    amplitudes: np.ndarray | None = None
    overlap_fidelity: float | None = None
    estimation_residual: float | None = None
    circuit: Circuit | None = None

    def to_json_dict(self) -> dict:
        record = {
            "config": self.config,
            "measured_distance": self.measured_distance,
            "theoretical_bound": self.theoretical_bound,
            "measured_success_probability": self.measured_success_probability,
            "success_lower_bound": self.success_lower_bound,
            "gate_counts": {f"{k},{l}": c for (k, l), c in sorted(self.gate_counts.items())},
            "satisfied": self.satisfied,
            "seed": self.seed,
        }
        if self.error is not None:
            record["error"] = self.error
        return record


def write_rows(path: str | None, rows: list[dict]) -> None:
    """Write rows as JSON lines, to stdout when ``path`` is None, or as CSV
    when ``path`` ends in ``.csv``.

    CSV columns are the first row's keys (just ``suite`` when there are no
    rows), and dict values are written as JSON.
    """
    if path is not None and str(path).endswith(".csv"):
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]) if rows else ["suite"])
            writer.writeheader()
            for row in rows:
                writer.writerow({k: json.dumps(v) if isinstance(v, dict) else v
                                 for k, v in row.items()})
        return
    lines = (json.dumps(row, sort_keys=True) + "\n" for row in rows)
    if path is None:
        sys.stdout.writelines(lines)
    else:
        with open(path, "w") as handle:
            handle.writelines(lines)


def _config_dict(n: int, t: int, t_prime: int, mode: str,
                 angle_multiplier: int | None = None,
                 epsilon: float | None = None) -> dict:
    return {"n": n, "t": t, "t_prime": t_prime, "mode": mode,
            "angle_multiplier": angle_multiplier, "epsilon": epsilon}


def evaluate_bounds(x: TargetVector, cfg: PrecisionConfig,
                    epsilon: float | None = None,
                    seed: int | None = None,
                    fast_path: bool = False) -> BoundReport:
    """Build the circuit for one vector, prepare the state and compare it
    against the bounds.

    The ``PreparedState`` comes from the full simulation, or with
    ``fast_path`` from the ancilla-free reference route, which has no
    estimation residual; either way it is norm-checked here.  When
    ``epsilon`` is given it is used as the bound (the widths are then
    expected to come from ``required_precision``); otherwise the analytic
    formula for the configured widths applies.
    """
    built = build(x, cfg)
    prepared = fast_path_prepare(x, cfg) if fast_path else simulate_preparation(built)

    state = StateVector(x.num_qubits, prepared.amplitudes)
    target = StateVector(x.num_qubits, x.amplitudes())
    distance = state_distance(state, target)
    bound = epsilon if epsilon is not None else total_distance_bound(x, cfg)
    satisfied = distance <= bound + BOUND_SLACK
    success = lower = None
    if cfg.mode == PROBABILISTIC:
        success, lower = prepared.success_probability, success_lower_bound(x)
        satisfied = satisfied and success >= lower - BOUND_SLACK

    return BoundReport(
        config=_config_dict(x.num_qubits, cfg.estimation_bits, cfg.phase_bits,
                            cfg.mode, cfg.angle_multiplier, epsilon),
        measured_distance=distance,
        theoretical_bound=bound,
        measured_success_probability=success,
        success_lower_bound=lower,
        gate_counts=count_gate_list(built.circuit.gates[built.phase_start:]),
        satisfied=satisfied,
        seed=seed,
        amplitudes=prepared.amplitudes,
        overlap_fidelity=overlap_fidelity(state, target),
        estimation_residual=prepared.estimation_residual,
        circuit=built.circuit,
    )


def sweep(vectors: list[TargetVector],
          estimation_bits: list[int],
          phase_bits: list[int],
          modes: list[str],
          seeds: list[int] | None = None) -> Iterator[BoundReport]:
    """Lazy cartesian evaluation in deterministic order (vector, mode, t, t').

    A failing cell is recorded with ``error`` set and the sweep continues.
    """
    if not estimation_bits or not phase_bits or not modes:
        raise ValueError("sweep grid must be nonempty")
    for index, x in enumerate(vectors):
        seed = seeds[index] if seeds is not None else None
        for mode in modes:
            for t in estimation_bits:
                for tp in phase_bits:
                    try:
                        yield evaluate_bounds(x, PrecisionConfig(t, tp, mode), seed=seed)
                    except Exception as exc:  # record and keep sweeping
                        yield BoundReport(
                            config=_config_dict(x.num_qubits, t, tp, mode),
                            measured_distance=math.nan,
                            theoretical_bound=math.nan,
                            measured_success_probability=None,
                            success_lower_bound=None,
                            gate_counts={},
                            satisfied=False,
                            seed=seed,
                            error=f"{type(exc).__name__}: {exc}",
                        )


def random_target_vector(num_qubits: int, rng: np.random.Generator,
                         complex_phases: bool = True) -> TargetVector:
    """Magnitudes from absolute normal deviates, phases uniform in [0, 2*pi)."""
    size = 1 << num_qubits
    magnitudes = np.abs(rng.standard_normal(size))
    if complex_phases:
        phases = rng.uniform(0.0, 2.0 * math.pi, size)
        # uniform() can return the upper endpoint after float rounding
        phases = np.where(phases >= 2.0 * math.pi, 0.0, phases)
    else:
        phases = np.zeros(size)
    return TargetVector(num_qubits, magnitudes, phases)
