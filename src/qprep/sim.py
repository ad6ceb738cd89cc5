"""Dense statevector simulation of the gate set used by the preparation circuits.

Bit convention, shared by every module: qubit 0 is the MOST significant bit of
a basis index, so the basis state |q0 q1 ... q_{n-1}> has index
sum(q_k << (n - 1 - k)).  All gates are pure transformations: applying a gate
returns a new state and never mutates its input.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dyadic import TAU

NORM_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Hadamard:
    target: int


@dataclass(frozen=True)
class PauliX:
    target: int


@dataclass(frozen=True)
class RotationY:
    """R_Y(angle) = [[cos a/2, -sin a/2], [sin a/2, cos a/2]], optionally controlled."""

    angle: float
    target: int
    controls: tuple[int, ...] = ()


@dataclass(frozen=True)
class ControlledZPow:
    """Phase e^{sign(level) * 2*pi*i / 2**|level|} on states with all listed qubits 1.

    A single listed qubit gives the plain phase gate (level 1 is Z, 2 is S,
    3 is T); more qubits add controls.  The gate is symmetric in its qubits.
    """

    level: int
    qubits: tuple[int, ...]


@dataclass(frozen=True)
class DiagonalOracle:
    """Multiply the amplitude of |c>|i> by e^{i * power * phases[i]}.

    The register value i is read from ``register`` most-significant first.
    When ``controls`` is nonempty the phase applies only where every control
    qubit is 1.
    """

    register: tuple[int, ...]
    phases: tuple[float, ...]
    power: int = 1
    controls: tuple[int, ...] = ()


@dataclass(frozen=True)
class QFTBlock:
    """Fourier transform |j> -> 2^{-t/2} sum_k e^{2*pi*i*j*k/2**t} |k> on ``register``."""

    register: tuple[int, ...]
    inverse: bool = False


Gate = Hadamard | PauliX | RotationY | ControlledZPow | DiagonalOracle | QFTBlock


def gate_qubits(gate: Gate) -> tuple[int, ...]:
    """Every qubit index the gate touches, controls included."""
    if isinstance(gate, (Hadamard, PauliX)):
        return (gate.target,)
    if isinstance(gate, RotationY):
        return (gate.target, *gate.controls)
    if isinstance(gate, ControlledZPow):
        return gate.qubits
    if isinstance(gate, DiagonalOracle):
        return (*gate.register, *gate.controls)
    if isinstance(gate, QFTBlock):
        return gate.register
    raise TypeError(f"unknown gate type {type(gate).__name__}")


def validate_gate(gate: Gate, num_qubits: int) -> None:
    qubits = gate_qubits(gate)
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"{gate!r} lists duplicate qubits")
    for q in qubits:
        if not 0 <= q < num_qubits:
            raise ValueError(f"{gate!r}: qubit {q} outside [0, {num_qubits})")
    if isinstance(gate, ControlledZPow):
        if gate.level == 0:
            raise ValueError("ControlledZPow level must be nonzero")
        if not gate.qubits:
            raise ValueError("ControlledZPow needs at least one qubit")
    if isinstance(gate, DiagonalOracle):
        if not gate.register:
            raise ValueError("DiagonalOracle needs a nonempty register")
        if len(gate.phases) != 1 << len(gate.register):
            raise ValueError(
                f"DiagonalOracle with {len(gate.register)} register qubits "
                f"needs {1 << len(gate.register)} phases, got {len(gate.phases)}"
            )
    if isinstance(gate, QFTBlock) and not gate.register:
        raise ValueError("QFTBlock needs a nonempty register")


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        for gate in self.gates:
            validate_gate(gate, self.num_qubits)


@dataclass(frozen=True)
class StateVector:
    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        if self.amplitudes.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes, "
                f"got shape {self.amplitudes.shape}"
            )
        norm = float(np.linalg.norm(self.amplitudes))
        if abs(norm - 1.0) > NORM_TOLERANCE:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond tolerance")


def new_basis_state(num_qubits: int, index: int) -> StateVector:
    dim = 1 << num_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} outside [0, {dim})")
    amplitudes = np.zeros(dim, dtype=complex)
    amplitudes[index] = 1.0
    return StateVector(num_qubits, amplitudes)


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _rotation_y_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _bit_position(num_qubits: int, qubit: int) -> int:
    return num_qubits - 1 - qubit


def _qubit_mask(num_qubits: int, qubits: tuple[int, ...]) -> int:
    mask = 0
    for q in qubits:
        mask |= 1 << _bit_position(num_qubits, q)
    return mask


def _apply_single(amps: np.ndarray, num_qubits: int, target: int,
                  matrix: np.ndarray) -> np.ndarray:
    psi = amps.reshape([2] * num_qubits)
    psi = np.moveaxis(psi, target, 0)
    shape = psi.shape
    psi = matrix @ psi.reshape(2, -1)
    psi = np.moveaxis(psi.reshape(shape), 0, target)
    return psi.reshape(-1)


def _apply_controlled_single(amps: np.ndarray, num_qubits: int, target: int,
                             controls: tuple[int, ...],
                             matrix: np.ndarray) -> np.ndarray:
    target_bit = 1 << _bit_position(num_qubits, target)
    control_mask = _qubit_mask(num_qubits, controls)
    indices = np.arange(amps.size)
    select = (indices & target_bit) == 0
    if control_mask:
        select &= (indices & control_mask) == control_mask
    low = indices[select]
    high = low | target_bit
    out = amps.copy()
    a0, a1 = amps[low], amps[high]
    out[low] = matrix[0, 0] * a0 + matrix[0, 1] * a1
    out[high] = matrix[1, 0] * a0 + matrix[1, 1] * a1
    return out


def _zpow_phase(level: int) -> complex:
    # Exact values for the common Z and S cases keep sign flips clean.
    if abs(level) == 1:
        return -1.0 + 0.0j
    if abs(level) == 2:
        return 1.0j if level > 0 else -1.0j
    return cmath.exp(1.0j * math.copysign(TAU / (1 << abs(level)), level))


def _apply_zpow(amps: np.ndarray, num_qubits: int,
                gate: ControlledZPow) -> np.ndarray:
    mask = _qubit_mask(num_qubits, gate.qubits)
    indices = np.arange(amps.size)
    out = amps.copy()
    select = (indices & mask) == mask
    out[select] *= _zpow_phase(gate.level)
    return out


def _apply_diagonal(amps: np.ndarray, num_qubits: int,
                    gate: DiagonalOracle) -> np.ndarray:
    indices = np.arange(amps.size)
    width = len(gate.register)
    values = np.zeros(amps.size, dtype=np.int64)
    for position, qubit in enumerate(gate.register):
        bit = (indices >> _bit_position(num_qubits, qubit)) & 1
        values |= bit << (width - 1 - position)
    factors = np.exp(1.0j * gate.power * np.asarray(gate.phases, dtype=float))[values]
    if gate.controls:
        control_mask = _qubit_mask(num_qubits, gate.controls)
        factors = np.where((indices & control_mask) == control_mask, factors, 1.0)
    return amps * factors


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    validate_gate(gate, state.num_qubits)
    amps, q = state.amplitudes, state.num_qubits
    if isinstance(gate, Hadamard):
        out = _apply_single(amps, q, gate.target, _HADAMARD)
    elif isinstance(gate, PauliX):
        out = _apply_single(amps, q, gate.target, _PAULI_X)
    elif isinstance(gate, RotationY):
        matrix = _rotation_y_matrix(gate.angle)
        if gate.controls:
            out = _apply_controlled_single(amps, q, gate.target, gate.controls, matrix)
        else:
            out = _apply_single(amps, q, gate.target, matrix)
    elif isinstance(gate, ControlledZPow):
        out = _apply_zpow(amps, q, gate)
    elif isinstance(gate, DiagonalOracle):
        out = _apply_diagonal(amps, q, gate)
    elif isinstance(gate, QFTBlock):
        out = amps
        for sub in qft_circuit(gate.register, gate.inverse, num_qubits=q).gates:
            out = apply_gate(StateVector(q, out), sub).amplitudes
    else:
        raise TypeError(f"unknown gate type {type(gate).__name__}")
    return StateVector(q, out)


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(
            f"circuit on {circuit.num_qubits} qubits applied to "
            f"{state.num_qubits}-qubit state"
        )
    for gate in circuit.gates:
        state = apply_gate(state, gate)
    return state


def inverse_gate(gate: Gate) -> Gate:
    if isinstance(gate, (Hadamard, PauliX)):
        return gate
    if isinstance(gate, RotationY):
        return RotationY(-gate.angle, gate.target, gate.controls)
    if isinstance(gate, ControlledZPow):
        return ControlledZPow(-gate.level, gate.qubits)
    if isinstance(gate, DiagonalOracle):
        return DiagonalOracle(gate.register, gate.phases, -gate.power, gate.controls)
    if isinstance(gate, QFTBlock):
        return QFTBlock(gate.register, not gate.inverse)
    raise TypeError(f"unknown gate type {type(gate).__name__}")


def _swap_gates(a: int, b: int) -> list[Gate]:
    # SWAP from the available vocabulary: three CNOTs, each an H-CZ-H sandwich.
    cnot_ab: list[Gate] = [Hadamard(b), ControlledZPow(1, (a, b)), Hadamard(b)]
    cnot_ba: list[Gate] = [Hadamard(a), ControlledZPow(1, (a, b)), Hadamard(a)]
    return cnot_ab + cnot_ba + cnot_ab


def qft_circuit(register: tuple[int, ...] | list[int], inverse: bool = False,
                num_qubits: int | None = None) -> Circuit:
    """Fourier transform on ``register`` as Hadamard and phase gates.

    The register is read most-significant first, matching the global bit
    convention; the trailing bit-reversal is realized with CNOT-triple swaps
    so the gate list stays inside the simulator vocabulary.
    """
    register = tuple(register)
    if not register:
        raise ValueError("QFT register must be nonempty")
    if len(set(register)) != len(register):
        raise ValueError("QFT register lists duplicate qubits")
    if num_qubits is None:
        num_qubits = max(register) + 1
    width = len(register)
    gates: list[Gate] = []
    for i in range(width):
        gates.append(Hadamard(register[i]))
        for distance in range(2, width - i + 1):
            gates.append(
                ControlledZPow(distance, (register[i], register[i + distance - 1]))
            )
    for i in range(width // 2):
        gates.extend(_swap_gates(register[i], register[width - 1 - i]))
    if inverse:
        gates = [inverse_gate(g) for g in reversed(gates)]
    return Circuit(num_qubits, tuple(gates))


def project_measure(state: StateVector, target: int,
                    outcome: int) -> tuple[float, StateVector | None]:
    """Probability of ``outcome`` on ``target`` and the renormalized projection.

    A zero-probability outcome returns (0.0, None) rather than renormalizing.
    """
    if not 0 <= target < state.num_qubits:
        raise ValueError(f"qubit {target} outside [0, {state.num_qubits})")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    bit = 1 << _bit_position(state.num_qubits, target)
    indices = np.arange(state.amplitudes.size)
    select = ((indices & bit) != 0) == bool(outcome)
    probability = float(np.sum(np.abs(state.amplitudes[select]) ** 2))
    if probability == 0.0:
        return 0.0, None
    post = np.where(select, state.amplitudes, 0.0) / math.sqrt(probability)
    return probability, StateVector(state.num_qubits, post)
