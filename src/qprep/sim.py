"""Dense statevector simulation of the gate set used by the preparation circuits.

Bit convention, shared by every module: qubit 0 is the MOST significant bit of
a basis index, so the basis state |q0 q1 ... q_{n-1}> has index
sum(q_k << (n - 1 - k)).  Callers run gates with ``apply_circuit``, whose
``Circuit`` checked each gate once; ``apply_gate`` is its unchecked in-place
step.  Applying one gate without changing the input is a one-gate circuit.

Each kernel works on a view of the flat amplitudes split only at the gate's
own qubits: each of them gets a length-2 axis, in ascending qubit order,
and each run of other qubits between them one merged axis, so a view has at
most 2k+1 axes for a gate on k qubits, whatever the state's width.  A 2x2
kernel serves H, X and (controlled) R_Y, and a phase kernel serves the
diagonal gates CZP and DIAG; both pin control qubits to 1 with integer
indices, so a controlled gate touches only its pinned part.  The phase
kernel never moves the state's axes: it puts the small factor table of a
DIAG into ascending qubit order and broadcasts it.  A ``QFTBlock`` is
simulated as one FFT along its register's axes, transposed to lead in
register order.  Every kernel updates the one array it is given:
``apply_circuit`` copies its input once and runs every gate in place on that
copy.  Scratch per gate: the 2x2 kernel two arrays of half a state; the FFT
writes over its input rows, which are a view of the state when the register
is the leading qubits in register order and one copy of it otherwise.

``apply_circuit`` takes a state on the circuit's leading qubits, possibly
none: the others start at |0> and each joins in its own place among the
qubits held when a gate first touches it, so each gate runs on the qubits
touched so far, relabelled by their rank among them.  ``shifted_gate``
relabels a gate's qubits by any map, so a stage can run on a state without
the qubits below it or with its qubits reordered.  ``project_measure``
drops the qubit it reads.

Every ``StateVector`` holds a flat C-contiguous complex128 array of 2^n
amplitudes, ready for the kernels, whose size gives ``num_qubits``, and
passes its constructor's norm check; it may hold no qubit, the scalar 1
that ``new_basis_state(0, 0)`` makes.  ``new_basis_state``,
``apply_circuit`` (its copy and its result) and ``project_measure`` each
build one, so a stage's norm is checked where it starts and where it ends;
``apply_gate`` and ``_join`` update the copy in place, unchecked.
How a ``QFTBlock`` is written as basic gates lives in ``qprep.gateformat``.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .dyadic import MAX_LEVEL, TAU

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
        raise ValueError(f"{type(gate).__name__} on qubits {list(qubits)} lists duplicate qubits")
    for q in qubits:
        if not 0 <= q < num_qubits:
            raise ValueError(f"{type(gate).__name__} on qubits {list(qubits)}: "
                             f"qubit {q} outside [0, {num_qubits})")
    if isinstance(gate, ControlledZPow):
        if not 0 < abs(gate.level) <= MAX_LEVEL:
            raise ValueError(
                "ControlledZPow level must be nonzero" if gate.level == 0
                else f"ControlledZPow level {gate.level} exceeds the limit {MAX_LEVEL}")
        if not gate.qubits:
            raise ValueError("ControlledZPow needs at least one qubit")
    elif isinstance(gate, DiagonalOracle):
        if not gate.register:
            raise ValueError("DiagonalOracle needs a nonempty register")
        if abs(gate.power) > sys.float_info.max:  # the kernel scales by a float
            raise ValueError(f"DiagonalOracle power of {abs(gate.power).bit_length()} bits "
                             "exceeds the float range")
        if len(gate.phases) != 1 << len(gate.register):
            raise ValueError(
                f"DiagonalOracle with {len(gate.register)} register qubits "
                f"needs {1 << len(gate.register)} phases, got {len(gate.phases)}"
            )
    elif isinstance(gate, QFTBlock) and not gate.register:
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


@dataclass
class StateVector:
    amplitudes: np.ndarray

    @property
    def num_qubits(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    def __post_init__(self) -> None:
        # Ready for the kernels: only float or strided input is copied.
        self.amplitudes = np.ascontiguousarray(self.amplitudes, dtype=complex)
        size = self.amplitudes.size
        if self.amplitudes.ndim != 1 or size < 1 or size & (size - 1):
            raise ValueError(f"expected 2^n amplitudes, got shape {self.amplitudes.shape}")
        # numpy's pairwise sum is accurate to ~1e-16 here; a one-thread BLAS
        # dot (np.linalg.norm) drifts by 1e-12 on 2^19 amplitudes.  The ufunc
        # calls are np.sum of the squares without its Python layer.  The
        # negated <= also refuses a NaN norm.
        amps = self.amplitudes
        norm = math.sqrt(float(np.add.reduce(np.square(amps.real))
                               + np.add.reduce(np.square(amps.imag))))
        if not abs(norm - 1.0) <= NORM_TOLERANCE:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond tolerance")


def new_basis_state(num_qubits: int, index: int) -> StateVector:
    dim = 1 << num_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} outside [0, {dim})")
    amplitudes = np.zeros(dim, dtype=complex)
    amplitudes[index] = 1.0
    return StateVector(amplitudes)


_H = 1.0 / math.sqrt(2.0)
_HADAMARD = ((_H, _H), (_H, -_H))
_PAULI_X = ((0.0, 1.0), (1.0, 0.0))


def _split(amps: np.ndarray, qubits: tuple[int, ...]) -> tuple[np.ndarray, list[int]]:
    """The flat ``amps`` reshaped so that each of ``qubits`` has its own
    length-2 axis, in ascending qubit order, and each run of other qubits
    between them one merged axis; with the axis of each of ``qubits``, in
    the order given.  The result is a view only of a C-contiguous array;
    of any other it is a copy, which only a reader may use."""
    shape: list[int] = []
    axis: dict[int, int] = {}
    edge = 0
    for qubit in sorted(qubits):
        if qubit > edge:
            shape.append(1 << (qubit - edge))
        axis[qubit] = len(shape)
        shape.append(2)
        edge = qubit + 1
    rest = amps.size >> edge
    if rest > 1:
        shape.append(rest)
    return amps.reshape(shape), [axis[qubit] for qubit in qubits]


def _at(view: np.ndarray, pins) -> np.ndarray:
    """``view`` with each (axis, bit) of ``pins`` fixed by an integer index;
    the trailing Ellipsis keeps the result a view even when every axis is
    pinned."""
    index: list = [slice(None)] * view.ndim + [Ellipsis]
    for axis, bit in pins:
        index[axis] = bit
    return view[tuple(index)]


def _apply_2x2(psi: np.ndarray, target: int, controls: tuple[int, ...],
               matrix) -> None:
    # In place, with the roundings of a*low + b*high and c*low + d*high;
    # complex products and sums of two terms commute exactly, so
    # d*high + c*low rounds the same.  c*low is kept before low is
    # overwritten: two scratch arrays of the pinned size.
    view, (target_axis, *control_axes) = _split(psi, (target, *controls))
    ones = [(axis, 1) for axis in control_axes]
    low, high = _at(view, [*ones, (target_axis, 0)]), _at(view, [*ones, (target_axis, 1)])
    (a, b), (c, d) = matrix
    c_low = c * low
    low *= a
    low += b * high
    high *= d
    high += c_low


def _zpow_phase(level: int) -> complex:
    # Exact values for the common Z and S cases keep sign flips clean.
    if abs(level) == 1:
        return -1.0 + 0.0j
    if abs(level) == 2:
        return 1.0j if level > 0 else -1.0j
    return cmath.exp(1.0j * math.copysign(TAU / (1 << abs(level)), level))


def _apply_phases(psi: np.ndarray, controls: tuple[int, ...],
                  register: tuple[int, ...], factors) -> None:
    """Multiply in place by factors[i], i read from ``register``
    most-significant first, wherever every control qubit is 1.

    The state's axes stay where they are: the 2**w factor table is put
    into ascending qubit order instead and broadcast over the pinned view."""
    view, axes = _split(psi, controls + register)
    control_axes, register_axes = axes[:len(controls)], axes[len(controls):]
    pinned = _at(view, [(axis, 1) for axis in control_axes])
    if register:
        ascending = sorted(range(len(register)), key=register.__getitem__)
        table = np.reshape(factors, (2,) * len(register)).transpose(ascending)
        factors = table.reshape([2 if axis in register_axes else 1
                                 for axis in range(view.ndim) if axis not in control_axes])
    pinned *= factors


def _apply_qft(psi: np.ndarray, register: tuple[int, ...], inverse: bool) -> None:
    # The forward QFT has the e^{+2*pi*i*j*k/N} kernel of numpy's ifft, which
    # writes over its input rows.  They are a view only when the register is
    # the leading qubits in order; any other register's rows are a copy,
    # written back through the transposed view.
    transform = np.fft.fft if inverse else np.fft.ifft
    view, axes = _split(psi, register)
    moved = view.transpose(*axes, *(a for a in range(view.ndim) if a not in axes))
    rows = moved.reshape(1 << len(register), -1)
    transform(rows, axis=0, norm="ortho", out=rows)
    if not np.may_share_memory(rows, psi):
        moved[...] = rows.reshape(moved.shape)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """``gate`` applied in place to ``state.amplitudes``; returns ``state``.

    Unchecked: ``gate`` comes from a ``Circuit``, which checked it, and its
    qubits lie below ``state.num_qubits``; every kernel is unitary.
    """
    amps = state.amplitudes
    if isinstance(gate, Hadamard):
        _apply_2x2(amps, gate.target, (), _HADAMARD)
    elif isinstance(gate, PauliX):
        _apply_2x2(amps, gate.target, (), _PAULI_X)
    elif isinstance(gate, RotationY):
        c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
        _apply_2x2(amps, gate.target, gate.controls, ((c, -s), (s, c)))
    elif isinstance(gate, ControlledZPow):
        _apply_phases(amps, gate.qubits, (), _zpow_phase(gate.level))
    elif isinstance(gate, DiagonalOracle):
        factors = np.exp(1.0j * gate.power * np.asarray(gate.phases, dtype=float))
        _apply_phases(amps, gate.controls, gate.register, factors)
    elif isinstance(gate, QFTBlock):
        _apply_qft(amps, gate.register, gate.inverse)
    else:
        raise TypeError(f"unknown gate type {type(gate).__name__}")
    return state


def _join(state: StateVector, held: set[int],
          qubits: tuple[int, ...]) -> dict[int, int] | None:
    """Grows ``state``, which holds the circuit qubits ``held`` in ascending
    order, in place and unchecked: each of ``qubits`` it lacks joins at |0>
    in its own place among them, and ``held`` takes them in.  Returns each
    held qubit's rank in the grown state, or None when the held qubits are
    the leading ones, so that rank and qubit agree."""
    fresh = set(qubits) - held
    held |= fresh
    order = sorted(held)
    grown = np.zeros(1 << len(order), dtype=complex)
    view, axes = _split(grown, tuple(rank for rank, q in enumerate(order) if q in fresh))
    old = _at(view, [(axis, 0) for axis in axes])
    old[...] = state.amplitudes.reshape(old.shape)
    state.amplitudes = grown
    return None if order[-1] == len(order) - 1 else {q: rank for rank, q in enumerate(order)}


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """``circuit`` applied to ``state``, which holds the circuit's leading
    qubits and is left as it is; a one-gate circuit applies that gate
    without changing ``state``.

    The circuit's other qubits start at |0>.  The amplitudes are copied once
    into a state that ``apply_gate`` then updates in place.  When a gate
    first touches a qubit the state lacks, ``_join`` grows it with that
    qubit at |0> in its own place among the qubits held, so each gate runs
    on the qubits touched so far, relabelled by their rank there unless the
    held qubits are the leading ones.  Qubits no gate touches join last, so
    the result is on ``circuit.num_qubits``.  The norm is checked on the
    copy and on the result, where the stage starts and ends, not per join."""
    if state.num_qubits > circuit.num_qubits:
        raise ValueError(
            f"circuit on {circuit.num_qubits} qubits applied to "
            f"{state.num_qubits}-qubit state"
        )
    owned = StateVector(np.array(state.amplitudes, dtype=complex))
    held, places = set(range(state.num_qubits)), None
    for gate in circuit.gates:
        qubits = gate_qubits(gate)
        if not held.issuperset(qubits):
            places = _join(owned, held, qubits)
        apply_gate(owned, gate if places is None else shifted_gate(gate, places))
    if len(held) < circuit.num_qubits:
        _join(owned, held, tuple(range(circuit.num_qubits)))
    return StateVector(owned.amplitudes)


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


def shifted_gate(gate: Gate, places) -> Gate:
    """``gate`` with each qubit q moved to ``places[q]``: a range shifts
    every qubit by one offset, a permutation or a map of ranks reorders
    them."""
    def moved(qubits: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(places[q] for q in qubits)

    if isinstance(gate, (Hadamard, PauliX)):
        return type(gate)(places[gate.target])
    if isinstance(gate, RotationY):
        return RotationY(gate.angle, places[gate.target], moved(gate.controls))
    if isinstance(gate, ControlledZPow):
        return ControlledZPow(gate.level, moved(gate.qubits))
    if isinstance(gate, DiagonalOracle):
        return DiagonalOracle(moved(gate.register), gate.phases, gate.power,
                              moved(gate.controls))
    if isinstance(gate, QFTBlock):
        return QFTBlock(moved(gate.register), gate.inverse)
    raise TypeError(f"unknown gate type {type(gate).__name__}")


def project_measure(state: StateVector, target: int,
                    outcome: int) -> tuple[float, StateVector | None]:
    """Probability of ``outcome`` on ``target``, and the renormalized state of
    the other qubits in their order: ``target`` is dropped.  A
    zero-probability outcome returns (0.0, None).
    """
    if not 0 <= target < state.num_qubits:
        raise ValueError(f"qubit {target} outside [0, {state.num_qubits})")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    view, (axis,) = _split(state.amplitudes, (target,))
    kept = _at(view, [(axis, outcome)])
    probability = float(np.sum(np.abs(kept) ** 2))
    if probability == 0.0:
        return 0.0, None
    return probability, StateVector((kept / math.sqrt(probability)).reshape(-1))
