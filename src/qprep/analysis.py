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

import numpy as np

from .dyadic import TAU
from .prepare import (
    DETERMINISTIC,
    PROBABILISTIC,
    BuildResult,
    PrecisionConfig,
    TargetVector,
    build,
    fast_path_prepare,
    simulate_preparation,
)
from .sim import StateVector

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


@dataclass(frozen=True)
class BoundReport:
    """What one evaluation built and measured against the bounds.

    ``built`` holds the circuit that ``qprep prepare`` emits and ``verify``
    counts; the success fields are None in deterministic mode and the
    estimation residual is None on the fast path.
    """

    built: BuildResult
    amplitudes: np.ndarray
    measured_distance: float
    overlap_fidelity: float
    theoretical_bound: float
    satisfied: bool
    measured_success_probability: float | None
    success_lower_bound: float | None
    estimation_residual: float | None


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


def evaluate_bounds(x: TargetVector, cfg: PrecisionConfig,
                    epsilon: float | None = None,
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
        built=built,
        amplitudes=prepared.amplitudes,
        measured_distance=distance,
        overlap_fidelity=overlap_fidelity(state, target),
        theoretical_bound=bound,
        satisfied=satisfied,
        measured_success_probability=success,
        success_lower_bound=lower,
        estimation_residual=prepared.estimation_residual,
    )


def random_target_vector(num_qubits: int, rng: np.random.Generator,
                         complex_phases: bool = True) -> TargetVector:
    """Magnitudes from absolute normal deviates, phases uniform in [0, 2*pi)."""
    size = 1 << num_qubits
    magnitudes = np.abs(rng.standard_normal(size))
    if complex_phases:
        phases = rng.uniform(0.0, TAU, size)
        # uniform() can return the upper endpoint after float rounding
        phases = np.where(phases >= TAU, 0.0, phases)
    else:
        phases = np.zeros(size)
    return TargetVector(num_qubits, magnitudes, phases)
