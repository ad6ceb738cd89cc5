"""Property tests of the widening simulation and of gate relabelling
against the flat simulation.

Derandomized, so every run draws the same examples.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from qprep.sim import (
    Circuit,
    ControlledZPow,
    DiagonalOracle,
    Hadamard,
    PauliX,
    QFTBlock,
    RotationY,
    StateVector,
    apply_circuit,
    apply_widening,
    gate_qubits,
    new_basis_state,
    shifted_gate,
    widen,
)

MAX_QUBITS = 5


@st.composite
def gates(draw, num_qubits):
    kind = draw(st.sampled_from(("H", "X", "RY", "CZP", "DIAG", "QFT")))
    qubits = draw(st.permutations(range(num_qubits)))
    if kind in ("H", "X"):
        return (Hadamard if kind == "H" else PauliX)(qubits[0])
    if kind == "QFT":
        width = draw(st.integers(1, num_qubits))
        return QFTBlock(tuple(qubits[:width]), draw(st.booleans()))
    split = draw(st.integers(1, num_qubits))
    controls = tuple(qubits[split:split + draw(st.integers(0, num_qubits - split))])
    if kind == "RY":
        return RotationY(draw(st.floats(-math.pi, math.pi)), qubits[0], controls)
    if kind == "CZP":
        level = draw(st.integers(1, 6)) * draw(st.sampled_from((-1, 1)))
        return ControlledZPow(level, tuple(qubits[:split]))
    register = tuple(qubits[:split])
    phases = draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1 << split,
                           max_size=1 << split))
    return DiagonalOracle(register, tuple(phases), draw(st.integers(-4, 4)), controls)


@st.composite
def runs(draw):
    num_qubits = draw(st.integers(1, MAX_QUBITS))
    start = draw(st.integers(1, num_qubits))
    seed = draw(st.one_of(st.none(), st.integers(0, 2**32 - 1)))  # None: |0...0>
    circuit = draw(st.lists(gates(num_qubits), max_size=12))
    return num_qubits, start, seed, tuple(circuit)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(runs())
def test_widening_is_the_flat_simulation(run):
    num_qubits, start, seed, circuit = run
    if seed is None:
        state = new_basis_state(start, 0)
    else:
        rng = np.random.default_rng(seed)
        amplitudes = rng.standard_normal(1 << start) + 1j * rng.standard_normal(1 << start)
        state = StateVector(start, amplitudes / np.linalg.norm(amplitudes))
    before = state.amplitudes.copy()
    lazy = apply_widening(state, circuit)
    touched = max((q + 1 for gate in circuit for q in gate_qubits(gate)), default=0)
    assert lazy.num_qubits == max(start, touched)
    flat = apply_circuit(widen(state, num_qubits), Circuit(num_qubits, circuit))
    assert np.max(np.abs(widen(lazy, num_qubits).amplitudes - flat.amplitudes)) < 1e-12
    assert np.array_equal(state.amplitudes, before)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 2**32 - 1), st.data())
def test_shifted_gates_run_below_untouched_leading_qubits(num_qubits, offset, seed, data):
    circuit = tuple(data.draw(st.lists(gates(num_qubits), max_size=8)))
    raised = tuple(shifted_gate(gate, -offset) for gate in circuit)
    assert tuple(shifted_gate(gate, offset) for gate in raised) == circuit
    rng = np.random.default_rng(seed)
    dim = 1 << num_qubits
    amplitudes = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amplitudes /= np.linalg.norm(amplitudes)
    # Leading qubits at |0>: the state is the first block of the wider array.
    wide = np.zeros(1 << (offset + num_qubits), dtype=complex)
    wide[:dim] = amplitudes
    below = apply_circuit(StateVector(offset + num_qubits, wide),
                          Circuit(offset + num_qubits, raised))
    alone = apply_circuit(StateVector(num_qubits, amplitudes), Circuit(num_qubits, circuit))
    assert np.max(np.abs(below.amplitudes[:dim] - alone.amplitudes)) < 1e-12
