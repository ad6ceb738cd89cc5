"""The builder of phase-estimation based amplitude-encoding circuits.

Two preparation schemes share the same estimate-rotate-uncompute round:

* deterministic: grow the state one qubit at a time; each round estimates the
  branch rotation angles of a marginal-probability tree into an estimation
  register, applies the conditioned rotation to a fresh data qubit, and
  uncomputes the register.
* probabilistic: start from the uniform superposition, estimate per-index
  amplitude angles in one shot, rotate an ancilla, uncompute, and post-select
  the ancilla on 0.

Both end with a synthesized diagonal applying the quantized target phases.
The oracles always carry the floor-quantized (grid-exact) angles, so the
estimation register uncomputes to |0...0> exactly and only the rotation-angle
truncation contributes error.
"""

from __future__ import annotations

import math
import os
import resource
from dataclasses import dataclass
from itertools import count

import numpy as np

from .dyadic import MAX_LEVEL, TAU, floor_fraction, quantize
from .sim import (
    Circuit,
    DiagonalOracle,
    Gate,
    Hadamard,
    QFTBlock,
    RotationY,
    StateVector,
    apply_circuit,
    inverse_gate,
    new_basis_state,
    project_measure,
    shifted_gate,
)
from .synth import peel_synthesize

DETERMINISTIC = "deterministic"
PROBABILISTIC = "probabilistic"

# Marginal probabilities below this are identically zero branches.
_ZERO_BRANCH = 1e-300

LEAKAGE_TOLERANCE = 1e-6

# compute_angles stores the estimates as int64.
MAX_ESTIMATION_BITS = 63
# The multiples of a branch angle an estimation oracle may encode.
ANGLE_MULTIPLIERS = (1, 2, 4)


class LeakageError(RuntimeError):
    """The estimation register failed to return to |0...0>."""


@dataclass(frozen=True)
class TargetVector:
    """Magnitudes and phases of the vector to encode; need not be normalized."""

    num_qubits: int
    magnitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        size = 1 << self.num_qubits
        magnitudes = np.asarray(self.magnitudes, dtype=float)
        phases = np.asarray(self.phases, dtype=float)
        object.__setattr__(self, "magnitudes", magnitudes)
        object.__setattr__(self, "phases", phases)
        if magnitudes.shape != (size,):
            raise ValueError(f"expected {size} magnitudes, got {magnitudes.shape}")
        if phases.shape != (size,):
            raise ValueError(f"expected {size} phases, got {phases.shape}")
        for index, value in enumerate(magnitudes):
            if not math.isfinite(value):
                raise ValueError(f"entry {index}: magnitude {float(value)!r} is not finite")
            if value < 0.0:
                raise ValueError(f"entry {index}: magnitude {float(value)!r} is negative")
        if not np.any(magnitudes > 0.0):
            raise ValueError("all magnitudes are zero")
        for index, value in enumerate(phases):
            if not 0.0 <= value < TAU:
                raise ValueError(f"entry {index}: phase {float(value)!r} outside [0, 2*pi)")

    @classmethod
    def from_magnitudes(cls, magnitudes) -> "TargetVector":
        magnitudes = np.asarray(magnitudes, dtype=float)
        return cls(magnitudes.size.bit_length() - 1, magnitudes, np.zeros(magnitudes.size))

    def scaled_magnitudes(self) -> np.ndarray:
        """Magnitudes times the power of two that brings their peak into
        [1/2, 1): exact, so ratios are unchanged, and their squares neither
        overflow nor all underflow to zero."""
        return np.ldexp(self.magnitudes, -np.frexp(np.max(self.magnitudes))[1])

    def amplitudes(self) -> np.ndarray:
        """The normalized complex target e^{i*phase} * magnitude / norm."""
        scaled = self.scaled_magnitudes()
        return scaled / float(np.linalg.norm(scaled)) * np.exp(1.0j * self.phases)


def compute_marginals(x: TargetVector) -> tuple[np.ndarray, ...]:
    """levels[k-1] holds the 2**k bit-prefix probabilities; the last level is
    the normalized per-index distribution."""
    weights = x.scaled_magnitudes() ** 2
    probabilities = weights / weights.sum()
    levels = [probabilities]
    while levels[-1].size > 2:
        levels.append(levels[-1].reshape(-1, 2).sum(axis=1))
    return tuple(reversed(levels))


@dataclass(frozen=True)
class PrecisionConfig:
    """Register widths and which multiple of the angle the oracle encodes."""

    estimation_bits: int
    phase_bits: int
    mode: str = DETERMINISTIC
    angle_multiplier: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in (DETERMINISTIC, PROBABILISTIC):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.estimation_bits < 1:
            raise ValueError(f"estimation_bits must be >= 1, got {self.estimation_bits}")
        if self.estimation_bits > MAX_ESTIMATION_BITS:
            raise ValueError(f"estimation_bits {self.estimation_bits} exceeds "
                             f"the limit {MAX_ESTIMATION_BITS}")
        if self.phase_bits < 1:
            raise ValueError(f"phase_bits must be >= 1, got {self.phase_bits}")
        if self.phase_bits > MAX_LEVEL:
            raise ValueError(f"phase_bits {self.phase_bits} exceeds the limit {MAX_LEVEL}")
        if self.angle_multiplier is None:
            object.__setattr__(self, "angle_multiplier", 4 if self.mode == PROBABILISTIC else 2)
        if self.angle_multiplier not in ANGLE_MULTIPLIERS:
            raise ValueError(f"angle_multiplier must be one of {ANGLE_MULTIPLIERS}, "
                             f"got {self.angle_multiplier}")
        if self.mode == PROBABILISTIC and self.angle_multiplier != 4:
            raise ValueError("probabilistic mode fixes angle_multiplier = 4")


def deterministic_distance_bound(num_qubits: int, estimation_bits: int) -> float:
    """Magnitude error of the iterative scheme: (n-1) * sqrt(2)*pi / 2**(t-1)."""
    return math.ldexp((num_qubits - 1) * math.sqrt(2.0) * math.pi, 1 - estimation_bits)


def probabilistic_distance_bound(num_qubits: int, estimation_bits: int) -> float:
    """Post-selected magnitude error of the one-shot scheme: 2^(2n+1)*pi/2^(t+1)."""
    return math.ldexp(math.pi, 2 * num_qubits - estimation_bits)


def phase_stage_distance_bound(num_qubits: int, phase_bits: int) -> float:
    """Error added by quantizing the phases: 2^n * pi / 2**(t'-1)."""
    return math.ldexp(math.pi, num_qubits + 1 - phase_bits)


def least_width(bound, num_qubits: int, start: int, epsilon: float) -> int:
    """The least width from ``start`` up whose ``bound`` is at most epsilon."""
    return next(width for width in count(start) if bound(num_qubits, width) <= epsilon)


def required_precision(num_qubits: int, epsilon: float, mode: str) -> PrecisionConfig:
    """Register widths guaranteeing final 2-norm error at most epsilon: each the
    least whose paper bound fits epsilon / 2, searched up from where it is >= pi."""
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    half = epsilon / 2
    t = (least_width(deterministic_distance_bound, num_qubits, 1, half) if mode == DETERMINISTIC
         else least_width(probabilistic_distance_bound, num_qubits, 2 * num_qubits, half))
    return PrecisionConfig(
        t, least_width(phase_stage_distance_bound, num_qubits, num_qubits, half), mode)


def compute_angles(x: TargetVector,
                   cfg: PrecisionConfig) -> tuple[float | None, tuple[np.ndarray, ...]]:
    """The exact root angle and, per estimation round, the floor estimates of
    the configured multiple of the round's angles at the working width.

    * deterministic: the root angle is applied directly (never estimated);
      round k-1 estimates the depth-k branch angles, angle j halving the
      probability of marginal-tree branch j.
    * probabilistic: no root angle (None); one round of per-index
      arccos(x_i / max).
    """
    t, c = cfg.estimation_bits, cfg.angle_multiplier
    if cfg.mode == DETERMINISTIC:
        levels = compute_marginals(x)
        root = math.acos(min(1.0, math.sqrt(levels[0][0])))
        angles = []
        for parents, children in zip(levels, levels[1:]):
            alpha = np.zeros(parents.size)
            live = parents > _ZERO_BRANCH
            left = children[0::2]
            alpha[live] = np.arccos(np.clip(np.sqrt(left[live] / parents[live]), 0.0, 1.0))
            angles.append(alpha)
    else:
        root = None
        angles = [np.arccos(np.clip(x.magnitudes / np.max(x.magnitudes), 0.0, 1.0))]
    # A zero left child or a probabilistic x_i = 0 gives alpha = pi/2, so at
    # multiplier 4 a full turn, which floor_fraction wraps onto the top grid
    # cell, keeping every estimate strictly below a full turn.
    return root, tuple(np.array([floor_fraction(c * a / TAU, t) for a in alpha],
                                dtype=np.int64) for alpha in angles)


@dataclass(frozen=True)
class RegisterMap:
    """``build`` places the estimation register on the top bits, then the data
    register, then (probabilistic only) the rotation ancilla on the last bit."""

    estimation: tuple[int, ...]
    data: tuple[int, ...]
    ancilla: int | None

    @classmethod
    def layout(cls, num_qubits: int, cfg: PrecisionConfig) -> "RegisterMap":
        """The registers of the circuit ``build`` makes for ``num_qubits`` data
        qubits at ``cfg``; no vector is needed."""
        t = cfg.estimation_bits
        ancilla = None if cfg.mode == DETERMINISTIC else t + num_qubits
        return cls(tuple(range(t)), tuple(range(t, t + num_qubits)), ancilla)

    @property
    def num_qubits(self) -> int:
        return len(self.estimation) + len(self.data) + (self.ancilla is not None)


@dataclass(frozen=True)
class BuildResult:
    circuit: Circuit
    registers: RegisterMap
    # Just past the ancilla's rotation ladder, its last gate; None in
    # deterministic mode, which has no ancilla.
    ladder_end: int | None
    # Where the gates that apply the quantized target phases start.
    phase_start: int


def build_phase_stage(x: TargetVector, phase_bits: int,
                      data: tuple[int, ...] | None = None) -> tuple[Gate, ...]:
    """Gates on the ``data`` qubits (default 0..n-1) whose product is the
    diagonal applying the target phases quantized at ``phase_bits``.

    The synthesized product realizes every quantized phase exactly, the
    all-zeros entry included (via the synthesizer's global-phase block), so
    per-component phase error stays below one grid step 2*pi/2**phase_bits.
    """
    return peel_synthesize(quantize(x.phases, phase_bits), data).product_gates()


def _estimation_block(estimation: tuple[int, ...], register: tuple[int, ...],
                      phases: tuple[float, ...]) -> list[Gate]:
    t = len(estimation)
    gates: list[Gate] = [Hadamard(q) for q in estimation]
    for s in range(t):
        gates.append(DiagonalOracle(register, phases, power=1 << (t - 1 - s),
                                    controls=(estimation[s],)))
    gates.append(QFTBlock(estimation, inverse=True))
    return gates


def _rotation_ladder(estimation: tuple[int, ...], target: int,
                     multiplier: int) -> list[Gate]:
    # Estimate bit s carries weight 2**(t-1-s), so rotating by 2*pi/(c*2**s)
    # when it is set totals the doubled quantized angle, as R_Y(2a)|0> must.
    return [RotationY(TAU / (multiplier << s), target, controls=(estimation[s],))
            for s in range(len(estimation))]


def build(x: TargetVector, cfg: PrecisionConfig) -> BuildResult:
    """The preparation circuit: a first layer, estimation rounds, then the
    synthesized phase stage.

    Each round estimates grid angles of the data ``register`` into the
    estimation register, rotates ``target`` conditioned on the estimate, and
    uncomputes, which returns the estimation register to |0...0> exactly.
    The uncompute is the estimation's inverse: its oracles and Fourier block
    inverted in reverse order, then its leading Hadamards in their own order
    (they are self-inverse and commute).

    * deterministic: the exact root rotation on the first data qubit, then one
      round per further data qubit k, estimating the depth-k branch angles
      (times the angle multiplier) of the first k data qubits into data[k].
    * probabilistic: Hadamards on every data qubit, then one round estimating
      the amplitude angles into the ancilla, which is post-selected on 0.
    """
    n, t = x.num_qubits, cfg.estimation_bits
    registers = RegisterMap.layout(n, cfg)
    estimation, data = registers.estimation, registers.data
    root, estimates = compute_angles(x, cfg)
    if cfg.mode == DETERMINISTIC:
        gates: list[Gate] = [RotationY(2.0 * root, data[0])]
        rounds = [(data[:k], data[k]) for k in range(1, n)]
    else:
        gates = [Hadamard(q) for q in data]
        rounds = [(data, registers.ancilla)]

    ladder_end = None
    for (register, target), round_estimates in zip(rounds, estimates):
        phases = tuple(TAU * int(y) / (1 << t) for y in round_estimates)
        estimate = _estimation_block(estimation, register, phases)
        gates.extend(estimate)
        gates.extend(_rotation_ladder(estimation, target, cfg.angle_multiplier))
        if target == registers.ancilla:
            ladder_end = len(gates)
        gates.extend(inverse_gate(g) for g in reversed(estimate[t:]))
        gates.extend(estimate[:t])
    circuit = Circuit(registers.num_qubits,
                      (*gates, *build_phase_stage(x, cfg.phase_bits, data)))
    return BuildResult(circuit, registers, ladder_end, len(gates))


@dataclass(frozen=True)
class PreparedState:
    """The data-register state either route prepares: ``simulate_preparation``
    post-selects it from the full simulation, ``fast_path_prepare`` computes
    it without an estimation register, so its ``estimation_residual`` is None.
    ``success_probability`` is the exact ancilla-0 probability (1.0 in
    deterministic mode)."""

    amplitudes: np.ndarray
    success_probability: float
    estimation_residual: float | None


# Peak bytes per amplitude of a full simulation, as tracemalloc measures
# ``simulate_preparation`` at 18-21 qubits in either mode: 28.0-28.5 (28.0
# at 19-21 qubits; the interpreter's own allocations weigh more at 18).
# Two steps set it, at 28 each: the post-selection in probabilistic mode
# holds the state (16), the kept half (8) and the norm check's squares of
# its real parts (4); the readout in deterministic mode holds the state and
# its first two halving sums (8 and 4).  The widest stage peaks at 24, in
# the join of its last qubit (the state it grows and the grown one) and in
# the check at its end (the state and its squares).  Its QFTs act on the
# leading held qubits in order, so each FFT writes over a view of the state
# (test_qft_registers_lead_the_state holds them to that), and it runs no
# uncontrolled 2x2 gate, whose two half-state scratch arrays would reach
# 32: its Hadamards cancel in pairs or are read off.
SIMULATION_BYTES_PER_AMPLITUDE = 29

CGROUP_MEMORY_MAX = "/sys/fs/cgroup/memory.max"
PROC_SELF_STATM = "/proc/self/statm"


def memory_shortfall(num_qubits: int) -> str | None:
    """Why a full simulation of ``num_qubits`` qubits does not fit in the
    memory the process can get, or None if it does.  That memory is the
    least of physical memory, what is left of the soft RLIMIT_AS unless
    infinite, and a numeric cgroup ``memory.max`` (``max`` there means no
    limit)."""
    needed = SIMULATION_BYTES_PER_AMPLITUDE << num_qubits
    page = os.sysconf("SC_PAGE_SIZE")
    limits = [(page * os.sysconf("SC_PHYS_PAGES"), "of physical memory")]
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    if soft != resource.RLIM_INFINITY:
        # The interpreter, numpy and BLAS already map part of the limit: the
        # first field of statm, in pages.
        try:
            with open(PROC_SELF_STATM) as handle:
                mapped = int(handle.read().split()[0]) * page
        except OSError:  # unreadable: the whole limit
            limits.append((soft, "of the soft address-space limit RLIMIT_AS"))
        else:
            limits.append((max(0, soft - mapped),
                           f"left of the soft address-space limit RLIMIT_AS "
                           f"({soft} bytes, {mapped} already mapped)"))
    try:
        with open(CGROUP_MEMORY_MAX) as handle:
            cgroup = handle.read().strip()
    except OSError:  # no cgroup v2 here: no limit from it
        cgroup = "max"
    if cgroup.isdigit():
        limits.append((int(cgroup), f"of the cgroup limit {CGROUP_MEMORY_MAX}"))
    memory, name = min(limits, key=lambda limit: limit[0])
    if needed <= memory:
        return None
    return (f"simulating {num_qubits} qubits needs {needed} bytes, "
            f"more than the {memory} bytes {name}")


def _cancel_hadamard_pairs(gates) -> tuple[Gate, ...]:
    """``gates`` without the pairs of Hadamards on one qubit inside each
    maximal run of consecutive Hadamards: H*H is the identity, and
    Hadamards on different qubits commute.  Decided by the gates' own
    targets, so a Hadamard on any other qubit is kept.  The rest keep their
    order; a run that repeats no qubit is kept as the same objects."""
    kept: list[Gate] = []
    run: dict[int, Hadamard] = {}  # the unpaired Hadamard on each target
    for gate in gates:
        if isinstance(gate, Hadamard):
            if run.pop(gate.target, None) is None:
                run[gate.target] = gate
            continue
        kept.extend(run.values())
        run.clear()
        kept.append(gate)
    kept.extend(run.values())
    return tuple(kept)


def _estimation_zero_block(amplitudes: np.ndarray, t: int) -> np.ndarray:
    """<0|^t H^t on the leading ``t`` qubits of ``amplitudes``: the block a
    Hadamard on each of them would leave at |0...0>, which is
    2^(-t/2) times the sum of the 2^t blocks, taken as ``t`` halving sums
    and one scale."""
    block = amplitudes
    for _ in range(t):
        half = block.size >> 1
        block = block[:half] + block[half:]
    return block * 2.0 ** (-0.5 * t)


def simulate_preparation(build_result: BuildResult) -> PreparedState:
    """Run the circuit on |0...0>, post-select the ancilla (if any) on 0, check
    the estimation register uncomputed, and return the data-register state.

    Each stage is a slice of the gates at ``build``'s recorded boundaries,
    run as a ``Circuit`` by ``apply_circuit`` on the qubits touched so far:
    untouched qubits are |0> and factor out, so the amplitudes are the flat
    simulation's.  In probabilistic mode the first stage numbers the ancilla
    0 and every other qubit one higher, so the ancilla joins as the leading
    qubit at its rotation ladder and is post-selected right after it by
    keeping the first half of the state.  The estimation register is read
    off before the phase stage, which runs on the 2**n data amplitudes.  The
    widest stage is the whole circuit's width, so the memory check is the
    full simulation's.

    Hadamards run only where they act.  Inside each run of consecutive
    Hadamards of an estimation stage, pairs on one qubit cancel, so a
    round's closing Hadamards and the next round's opening ones are not
    run.  When the rounds end with one Hadamard on each estimation qubit,
    and those qubits lead the state, they are not run either: the register
    is read at |0...0> as <0|^t H^t psi, the sum of the state's 2^t blocks
    times 2^(-t/2), and the leakage is 1 - ||block||^2 of that block.
    Both are decided by the gates' values, so a Hadamard a builder puts on
    another qubit is simulated, and shows as leakage."""
    circuit, registers = build_result.circuit, build_result.registers
    if shortfall := memory_shortfall(circuit.num_qubits):
        raise ValueError(shortfall)
    gates, t, n = circuit.gates, len(registers.estimation), len(registers.data)
    ladder_end, phase_start = build_result.ladder_end, build_result.phase_start
    state, width, rounds = new_basis_state(0, 0), circuit.num_qubits, gates[:phase_start]
    success = 1.0
    if registers.ancilla is not None:
        # The ancilla, the circuit's last qubit, runs as qubit 0.
        leading = (*range(1, width), 0)
        ladder = _cancel_hadamard_pairs(shifted_gate(gate, leading)
                                        for gate in gates[:ladder_end])
        state = apply_circuit(state, Circuit(width, ladder))
        success, state = project_measure(state, 0, 0)
        if state is None:
            raise ValueError("ancilla outcome 0 has zero probability")
        width, rounds = t + n, gates[ladder_end:phase_start]
    rounds = _cancel_hadamard_pairs(rounds)
    # The state holds t + n qubits; estimation = |0...0> is its leading
    # block when the estimation qubits are the top bits.
    closing = sorted(gate.target for gate in rounds[-t:] if isinstance(gate, Hadamard))
    read_off = closing == list(registers.estimation) == list(range(t))
    if read_off:
        rounds = rounds[:-t]
    amplitudes = apply_circuit(state, Circuit(width, rounds)).amplitudes
    keep = _estimation_zero_block(amplitudes, t) if read_off else amplitudes[: 1 << n]
    residual = max(0.0, 1.0 - float(np.sum(np.abs(keep) ** 2)))
    if residual > LEAKAGE_TOLERANCE:
        raise LeakageError(
            f"estimation register failed to uncompute (residual {residual:.3e})"
        )
    data = StateVector(keep / np.linalg.norm(keep))
    phase_stage = tuple(shifted_gate(gate, range(-t, n)) for gate in gates[phase_start:])
    prepared = apply_circuit(data, Circuit(n, phase_stage))
    return PreparedState(prepared.amplitudes, success, residual)


def fast_path_prepare(x: TargetVector, cfg: PrecisionConfig) -> PreparedState:
    """Ancilla-free reference: the state the ideal-estimation circuit produces.

    Applies the same floor-quantized angles branch-by-branch over the marginal
    tree (deterministic) or cos of the quantized amplitude angles with exact
    post-selection renormalization (probabilistic), then the quantized phases.
    No estimation register is involved.  The probabilistic success
    probability is the exact ancilla-0 probability mean(cos^2 of the
    quantized angles), never below ||x||^2/(2^n max x_i^2) because floor
    quantization only shrinks each angle.
    """
    root, estimates = compute_angles(x, cfg)
    # The rotation angles the circuit realizes: estimate times the grid step.
    step = TAU / (cfg.angle_multiplier << cfg.estimation_bits)
    if cfg.mode == DETERMINISTIC:
        amps, success = np.ones(1), 1.0
        for angles in (np.array([root]), *(y * step for y in estimates)):
            grown = np.empty(2 * amps.size)
            grown[0::2] = amps * np.cos(angles)
            grown[1::2] = amps * np.sin(angles)
            amps = grown
    else:
        kept = np.cos(estimates[0] * step)
        amps, success = kept / np.linalg.norm(kept), float(np.mean(kept ** 2))
    phase_spec = quantize(x.phases, cfg.phase_bits)
    amplitudes = amps.astype(complex) * np.exp(1.0j * np.array(phase_spec.angles()))
    return PreparedState(amplitudes, success, None)
