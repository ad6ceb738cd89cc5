"""Shared test helpers: independent oracles and readout utilities.

The dense-matrix oracles build full 2^n x 2^n matrices from first principles
(kron products and explicit index arithmetic) so they share no code with the
simulator's gate kernels.  ``reference_2x2`` is the plain expression
``a*low + b*high, c*low + d*high`` on index arrays, the bit-exact reference
for the simulator's 2x2 kernel.  ``reference_apply`` runs every gate kind on
the amplitudes reshaped to (2,)*q, pinning qubits with length-1 slices and
moving register axes to the front: the byte-for-byte reference for the
simulator's kernels on their split views.  ``reference_peel`` is the peel
construction as an explicit loop over levels and patterns, the oracle for the
transform in ``qprep.synth.peel_synthesize``.  ``reference_reconstruct``
walks every index each gate's phase lands on, the oracle for the subset-sum
transform in ``qprep.synth.reconstruct``.  ``flat_preparation`` is the full
simulation on every qubit of the circuit from the first gate to the last,
post-selected by its own slice, the reference for
``qprep.prepare.simulate_preparation``.  ``dense_projection`` measures one
qubit with a dense projector matrix, the oracle for
``qprep.sim.project_measure``.
"""

import cmath
import math

import numpy as np

from qprep.dyadic import PhaseSpec, quantize
from qprep.sim import (
    ControlledZPow,
    DiagonalOracle,
    Hadamard,
    PauliX,
    QFTBlock,
    RotationY,
    apply_circuit,
    new_basis_state,
)
from qprep.synth import SynthesisResult

TAU = 2.0 * math.pi


def embed_single(matrix: np.ndarray, target: int, num_qubits: int) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for q in range(num_qubits):
        out = np.kron(out, matrix if q == target else np.eye(2))
    return out


def dense_gate_matrix(gate, num_qubits: int) -> np.ndarray:
    """Full matrix of a gate, built independently of the simulator kernels."""
    dim = 1 << num_qubits
    if isinstance(gate, Hadamard):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        return embed_single(h, gate.target, num_qubits)
    if isinstance(gate, PauliX):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        return embed_single(x, gate.target, num_qubits)
    if isinstance(gate, RotationY):
        c, s = math.cos(gate.angle / 2), math.sin(gate.angle / 2)
        ry = np.array([[c, -s], [s, c]], dtype=complex)
        if not gate.controls:
            return embed_single(ry, gate.target, num_qubits)
        full = np.eye(dim, dtype=complex)
        tbit = num_qubits - 1 - gate.target
        cmask = sum(1 << (num_qubits - 1 - c) for c in gate.controls)
        for i in range(dim):
            if (i & cmask) == cmask and not (i >> tbit) & 1:
                j = i | (1 << tbit)
                full[i, i], full[i, j] = ry[0, 0], ry[0, 1]
                full[j, i], full[j, j] = ry[1, 0], ry[1, 1]
        return full
    if isinstance(gate, ControlledZPow):
        phase = np.exp(1j * math.copysign(TAU / 2 ** abs(gate.level), gate.level))
        mask = sum(1 << (num_qubits - 1 - q) for q in gate.qubits)
        diag = np.array([phase if (i & mask) == mask else 1.0
                         for i in range(dim)], dtype=complex)
        return np.diag(diag)
    if isinstance(gate, DiagonalOracle):
        width = len(gate.register)
        cmask = sum(1 << (num_qubits - 1 - c) for c in gate.controls)
        diag = np.ones(dim, dtype=complex)
        for i in range(dim):
            if (i & cmask) != cmask:
                continue
            value = 0
            for pos, q in enumerate(gate.register):
                value |= ((i >> (num_qubits - 1 - q)) & 1) << (width - 1 - pos)
            diag[i] = np.exp(1j * gate.power * gate.phases[value])
        return np.diag(diag)
    raise TypeError(f"no dense oracle for {type(gate).__name__}")


def _matrix_2x2(gate):
    """((a, b), (c, d)) and the controls of H, X or (controlled) R_Y."""
    if isinstance(gate, Hadamard):
        h = 1.0 / math.sqrt(2.0)
        return (h, h), (h, -h), ()
    if isinstance(gate, PauliX):
        return (0.0, 1.0), (1.0, 0.0), ()
    if isinstance(gate, RotationY):
        cos, sin = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
        return (cos, -sin), (sin, cos), gate.controls
    raise TypeError(f"{type(gate).__name__} is not a 2x2 gate")


def reference_2x2(amplitudes: np.ndarray, gate, num_qubits: int) -> np.ndarray:
    """H, X or (controlled) R_Y as a*low + b*high, c*low + d*high evaluated
    on a copy; ``low`` and ``high`` are gathered by explicit index arithmetic
    (target bit 0 or 1, every control bit 1)."""
    (a, b), (c, d), controls = _matrix_2x2(gate)
    tbit = 1 << (num_qubits - 1 - gate.target)
    cmask = sum(1 << (num_qubits - 1 - q) for q in controls)
    index = np.arange(1 << num_qubits)
    low_index = index[((index & cmask) == cmask) & ((index & tbit) == 0)]
    high_index = low_index | tbit
    out = amplitudes.copy()
    low, high = amplitudes[low_index], amplitudes[high_index]
    out[low_index], out[high_index] = a * low + b * high, c * low + d * high
    return out


def _pinned(psi: np.ndarray, pins: dict[int, int]) -> np.ndarray:
    index = [slice(None)] * psi.ndim
    for qubit, bit in pins.items():
        index[qubit] = slice(bit, bit + 1)
    return psi[tuple(index)]


def reference_apply(amplitudes: np.ndarray, gate, num_qubits: int) -> np.ndarray:
    """``gate`` applied to a copy of ``amplitudes`` on the (2,)*q axis view
    (axis k is qubit k): controls and target pinned by length-1 slices,
    register axes moved to the front.  The operations and their order are
    the simulator's, so the result must match it byte for byte."""
    out = np.array(amplitudes, dtype=complex)
    psi = out.reshape((2,) * num_qubits)
    if isinstance(gate, (Hadamard, PauliX, RotationY)):
        (a, b), (c, d), controls = _matrix_2x2(gate)
        ones = dict.fromkeys(controls, 1)
        low = _pinned(psi, {**ones, gate.target: 0})
        high = _pinned(psi, {**ones, gate.target: 1})
        c_low = c * low
        low *= a
        low += b * high
        high *= d
        high += c_low
    elif isinstance(gate, (ControlledZPow, DiagonalOracle)):
        if isinstance(gate, ControlledZPow):
            level = abs(gate.level)
            if level == 1:
                factors = -1.0 + 0.0j
            elif level == 2:
                factors = 1.0j if gate.level > 0 else -1.0j
            else:
                factors = cmath.exp(1.0j * math.copysign(TAU / (1 << level), gate.level))
            controls, register = gate.qubits, ()
        else:
            factors = np.exp(1.0j * gate.power * np.asarray(gate.phases, dtype=float))
            controls, register = gate.controls, gate.register
        width = len(register)
        view = np.moveaxis(_pinned(psi, dict.fromkeys(controls, 1)), register, range(width))
        view *= np.reshape(factors, (2,) * width + (1,) * (num_qubits - width))
    elif isinstance(gate, QFTBlock):
        transform = np.fft.fft if gate.inverse else np.fft.ifft
        moved = np.moveaxis(psi, gate.register, range(len(gate.register)))
        rows = moved.reshape(1 << len(gate.register), -1)
        moved[...] = transform(rows, axis=0, norm="ortho").reshape(moved.shape)
    else:
        raise TypeError(f"unknown gate type {type(gate).__name__}")
    return out


def dense_circuit_matrix(gates, num_qubits: int) -> np.ndarray:
    out = np.eye(1 << num_qubits, dtype=complex)
    for gate in gates:
        out = dense_gate_matrix(gate, num_qubits) @ out
    return out


def dft_matrix(width: int) -> np.ndarray:
    """|j> -> 2^{-t/2} sum_k e^{2 pi i j k / 2^t} |k>, by direct summation."""
    dim = 1 << width
    return np.array(
        [[np.exp(2j * np.pi * j * k / dim) for j in range(dim)]
         for k in range(dim)]) / math.sqrt(dim)


def extract_data_amplitudes(amplitudes: np.ndarray, data_qubits: int,
                            has_ancilla: bool) -> np.ndarray:
    """Data-register amplitudes given the builders' fixed register layout
    (estimation on top bits, then data, ancilla last), post-selected on zero."""
    width = data_qubits + (1 if has_ancilla else 0)
    keep = amplitudes[: 1 << width]
    if has_ancilla:
        keep = keep[0::2]
    return keep / np.linalg.norm(keep)


def dense_projection(amplitudes: np.ndarray, num_qubits: int, target: int,
                     outcome: int) -> tuple[float, np.ndarray]:
    """Probability that ``target`` reads ``outcome``, and the renormalized
    amplitudes of the other qubits in their order: the dense projector
    |outcome><outcome| on ``target`` applied to the state, then the indices
    whose ``target`` bit is ``outcome`` kept."""
    bit = np.zeros((2, 2), dtype=complex)
    bit[outcome, outcome] = 1.0
    projected = embed_single(bit, target, num_qubits) @ amplitudes
    probability = float(np.vdot(projected, projected).real)
    index = np.arange(1 << num_qubits)
    kept = projected[(index >> (num_qubits - 1 - target)) & 1 == outcome]
    return probability, kept / math.sqrt(probability)


def flat_preparation(build_result) -> tuple[np.ndarray, float, float]:
    """Amplitudes, success probability and estimation residual of the whole
    circuit run by ``apply_circuit`` on all its qubits, the ancilla (if any)
    then post-selected on 0 and the estimation register read off."""
    circuit, registers = build_result.circuit, build_result.registers
    amplitudes = apply_circuit(new_basis_state(circuit.num_qubits, 0), circuit).amplitudes
    success = 1.0
    if registers.ancilla is not None:
        # The ancilla is the last qubit: outcome 0 is every even index.
        amplitudes = amplitudes[0::2]
        success = float(np.sum(np.abs(amplitudes) ** 2))
        amplitudes = amplitudes / math.sqrt(success)
    keep = amplitudes[: 1 << len(registers.data)]
    residual = max(0.0, 1.0 - float(np.sum(np.abs(keep) ** 2)))
    return keep / np.linalg.norm(keep), success, residual


def _ones_qubits(index: int, num_qubits: int) -> tuple[int, ...]:
    return tuple(
        q for q in range(num_qubits) if (index >> (num_qubits - 1 - q)) & 1
    )


def reference_peel(spec: PhaseSpec) -> SynthesisResult:
    """The peel loop on qubits 0..n-1: finest level first, patterns in
    (popcount, index) order; each set residual bit emits a gate and carries
    onto every superset pattern."""
    n, m = spec.num_qubits, spec.level
    size = 1 << n
    modulus = 1 << m
    residual = list(spec.numerators)
    global_phase = residual[0]
    if residual[0]:
        shift = residual[0]
        residual = [(p - shift) % modulus for p in residual]

    order = sorted(range(1, size), key=lambda i: (i.bit_count(), i))
    gates = []
    for level in range(m, 0, -1):
        step = 1 << (m - level)
        for index in order:
            if residual[index] & step:
                # Level 1 is plain Z where both signs coincide; emit +1 there,
                # the inverse sign everywhere else.
                emitted = 1 if level == 1 else -level
                gates.append(ControlledZPow(emitted, _ones_qubits(index, n)))
                superset = index
                while superset < size:
                    residual[superset] = (residual[superset] + step) % modulus
                    superset = (superset + 1) | index
    return SynthesisResult(tuple(range(n)), m, tuple(gates), global_phase)


def reference_reconstruct(result: SynthesisResult) -> PhaseSpec:
    """Phase per basis index by a direct walk: each ControlledZPow adds its
    phase to every index whose flipped bits are a superset of its pattern."""
    m, num_qubits = result.level, result.num_qubits
    size = 1 << num_qubits
    modulus = 1 << m
    index_bit = {q: 1 << (num_qubits - 1 - k) for k, q in enumerate(result.register)}
    accumulated = [result.global_phase] * size
    flip_mask = 0
    for gate in result.gates:
        if isinstance(gate, PauliX):
            flip_mask ^= index_bit[gate.target]
        elif isinstance(gate, ControlledZPow):
            magnitude = 1 << (m - abs(gate.level))
            contribution = magnitude if gate.level > 0 else -magnitude
            mask = 0
            for q in gate.qubits:
                mask |= index_bit[q]
            superset = mask
            while superset < size:
                index = superset ^ flip_mask
                accumulated[index] = (accumulated[index] + contribution) % modulus
                superset = (superset + 1) | mask
        else:
            raise TypeError(f"unexpected gate in synthesis result: {gate!r}")
    return PhaseSpec(m, tuple(accumulated))


def onto_register(gates, register: tuple[int, ...]) -> tuple:
    """Gates on qubits 0..n-1 moved to ``register`` (qubit q to register[q])."""
    moved = []
    for gate in gates:
        if isinstance(gate, ControlledZPow):
            moved.append(ControlledZPow(gate.level, tuple(register[q] for q in gate.qubits)))
        elif isinstance(gate, PauliX):
            moved.append(PauliX(register[gate.target]))
        else:
            raise TypeError(f"unexpected phase-stage gate {gate!r}")
    return tuple(moved)


def reference_phase_stage(x, phase_bits: int, data: tuple[int, ...]) -> tuple:
    """The phase stage ``build`` must emit: the reference peel of the
    quantized target phases, global-phase block first, on the data qubits."""
    spec = quantize(x.phases, phase_bits)
    return onto_register(reference_peel(spec).product_gates(), data)
