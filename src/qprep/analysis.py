"""Measured-versus-analytic comparison of preparation error and success bounds.

The distance metric is the plain Euclidean 2-norm of the amplitude difference
with no global-phase alignment, exactly as the analytic bounds state it;
``overlap_fidelity`` is reported alongside as the phase-insensitive companion.
"""

from __future__ import annotations

import math
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
    deterministic_distance_bound,
    fast_path_prepare,
    phase_stage_distance_bound,
    probabilistic_distance_bound,
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


def probabilistic_tight_bound(num_qubits: int, estimation_bits: int) -> float:
    """Post-selected magnitude error the one-shot scheme meets:
    2^(n/2) * pi / 2^t, tighter than the paper's by 2^(3n/2).

    Proof.  Index i keeps cos(theta_i) on the ancilla's 0 branch, where the
    floor estimate of 4*alpha_i on t bits gives alpha_i - d <= theta_i <=
    alpha_i with d = 2*pi / (4 * 2^t) = pi / 2^(t+1); the ideal keeps
    v_i = cos(alpha_i) = x_i / max x.  cos moves by at most its
    argument's move, so the kept vector u has ||u - v|| <= sqrt(2^n) * d.
    The peak entry of v is cos 0, so ||v|| >= 1, and normalizing at most
    doubles the error:
    ||u/||u|| - v/||v|| || <= 2 ||u - v|| / ||v|| <= 2^(n/2) * pi / 2^t.
    A one-hot vector comes within a factor 2 of it: every other index keeps
    cos(pi/2 - d) = sin d.
    """
    return 2.0 ** (num_qubits / 2) * math.pi / (1 << estimation_bits)


def deterministic_tight_bound(num_qubits: int, estimation_bits: int,
                              multiplier: int) -> float:
    """Magnitude error the iterative scheme meets: (n-1) * 2*pi / (c * 2^t)
    for angle multiplier c, tighter than the paper's by sqrt(2) * c.

    Proof.  The root rotation is exact.  Round k rotates the new data qubit
    on each branch j of the first k by R_Y(2 theta_j) instead of
    R_Y(2 alpha_j), where the floor estimate of c*alpha_j on t bits gives
    0 <= alpha_j - theta_j <= d = 2*pi / (c * 2^t), with equality only where
    c*alpha_j is a full turn and wraps onto the top cell.  The difference of
    the two rounds is block diagonal over the branches, with blocks
    R_Y(2 theta) - R_Y(2 alpha) of norm |1 - e^(i (theta - alpha))| <=
    |theta - alpha| <= d, so it moves a unit state by at most d.  Each
    round is unitary, so the n - 1 rounds' errors add: the distance is at
    most (n-1) * d.
    """
    return (num_qubits - 1) * TAU / (multiplier << estimation_bits)


def phase_stage_tight_bound(phase_bits: int) -> float:
    """Error the quantized phases add: 2*pi / 2^t', tighter than the
    paper's by 2^n.

    Proof.  Each phase is floored onto the grid of 2^t' steps, so it moves
    by less than d = 2*pi / 2^t', and |e^(i phi') - e^(i phi)| <=
    |phi' - phi|.  The diagonal of these differences has norm below d, so
    it moves a unit state by less than d.  The magnitude and phase terms
    add: the phase stage D' is unitary, so ||D'u - Dv|| <= ||D'(u - v)|| +
    ||(D' - D)v||.
    """
    return TAU / (1 << phase_bits)


def total_distance_bound(x: TargetVector, cfg: PrecisionConfig) -> float:
    """Magnitude bound for the configured mode plus the phase-stage term.

    The phase term is exactly zero when every target phase is zero, since the
    quantized phases then vanish identically.
    """
    magnitude = (deterministic_distance_bound if cfg.mode == DETERMINISTIC
                 else probabilistic_distance_bound)
    bound = magnitude(x.num_qubits, cfg.estimation_bits)
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

    state = StateVector(prepared.amplitudes)
    target = StateVector(x.amplitudes())
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
