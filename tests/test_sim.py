import math
import sys
import tracemalloc

import numpy as np
import pytest

from _util import (
    dense_circuit_matrix,
    dense_projection,
    dft_matrix,
    reference_2x2,
    reference_apply,
)
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
    apply_gate,
    inverse_gate,
    new_basis_state,
    project_measure,
)
from qprep.dyadic import MAX_LEVEL
from qprep.gateformat import qft_circuit

TAU = 2.0 * math.pi


def random_state(num_qubits, rng):
    v = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    return StateVector(v / np.linalg.norm(v))


def test_new_basis_state():
    assert np.array_equal(new_basis_state(0, 0).amplitudes, [1])
    assert np.array_equal(new_basis_state(1, 0).amplitudes, [1, 0])
    assert np.array_equal(new_basis_state(2, 3).amplitudes, [0, 0, 0, 1])
    expected = np.zeros(8)
    expected[5] = 1
    assert np.array_equal(new_basis_state(3, 5).amplitudes, expected)
    with pytest.raises(ValueError):
        new_basis_state(2, 4)


def test_empty_circuit_appends_trailing_zero_qubits():
    state = StateVector(np.array([0.6, 0.8j]))
    same = apply_circuit(state, Circuit(1, ()))
    assert np.array_equal(same.amplitudes, state.amplitudes)
    assert not np.shares_memory(same.amplitudes, state.amplitudes)
    expected = np.zeros(8, dtype=complex)
    expected[[0, 4]] = [0.6, 0.8j]
    wide = apply_circuit(state, Circuit(3, ()))
    assert wide.num_qubits == 3 and np.array_equal(wide.amplitudes, expected)
    with pytest.raises(ValueError, match="circuit on 2 qubits applied to 3-qubit state"):
        apply_circuit(wide, Circuit(2, ()))


def test_apply_circuit_runs_each_gate_on_the_qubits_touched_so_far(monkeypatch):
    widths = []

    def spy(state, gate):
        widths.append(state.num_qubits)
        return apply_gate(state, gate)

    monkeypatch.setattr("qprep.sim.apply_gate", spy)
    gates = (PauliX(0), Hadamard(2), RotationY(0.3, 1, (2,)), ControlledZPow(1, (0,)))
    out = apply_circuit(new_basis_state(1, 0), Circuit(5, gates))
    assert widths == [1, 2, 3, 3]
    assert out.num_qubits == 5


@pytest.mark.parametrize("start, width, gates", [
    (2, 2, (Hadamard(0), RotationY(0.3, 1, (0,)))),
    (1, 2, (Hadamard(1),)),
    (1, 4, (Hadamard(3), Hadamard(1), RotationY(0.3, 2, (1,)))),
    (0, 3, (Hadamard(1),)),
], ids=["no-join", "one-join", "three-joins", "untouched-qubits-join-last"])
def test_apply_circuit_builds_two_states_whatever_it_joins(monkeypatch, start, width, gates):
    # The norm is checked where a stage starts, on the copy, and where it
    # ends, on the result; a join grows the copy in place, unchecked.
    state = new_basis_state(start, 0)
    built = []
    post_init = StateVector.__post_init__

    def counted(self):
        built.append(self.num_qubits)
        post_init(self)

    monkeypatch.setattr(StateVector, "__post_init__", counted)
    out = apply_circuit(state, Circuit(width, gates))
    assert built == [start, width]
    assert out.num_qubits == width


def test_qft_off_the_leading_qubits_copies_the_state_once():
    # The FFT writes over its input rows, here the one copy of the moved
    # register: the peak is the circuit's own buffer and that copy, 32 B per
    # amplitude, and the FFT's small scratch.
    state = random_state(18, np.random.default_rng(5))
    circuit = Circuit(18, (QFTBlock((3, 1, 4)),))
    tracemalloc.start()
    try:
        apply_circuit(state, circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (32 << 18) + (1 << 20)


def test_hadamard_on_zero():
    out = apply_gate(new_basis_state(1, 0), Hadamard(0))
    assert np.allclose(out.amplitudes, [1 / math.sqrt(2)] * 2)


def test_cz_flips_only_one_one():
    state = StateVector(np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
    out = apply_gate(state, ControlledZPow(1, (0, 1)))
    assert np.allclose(out.amplitudes, [0.5, 0.5, 0.5, -0.5])


def test_level_two_is_the_s_gate():
    state = StateVector(np.array([0.6, 0.8], dtype=complex))
    out = apply_gate(state, ControlledZPow(2, (0,)))
    assert np.allclose(out.amplitudes, [0.6, 0.8j])


def test_rotation_y_convention():
    # R_Y(2a)|0> = cos(a)|0> + sin(a)|1>
    a = 0.3
    out = apply_gate(new_basis_state(1, 0), RotationY(2 * a, 0))
    assert np.allclose(out.amplitudes, [math.cos(a), math.sin(a)])


def test_controlled_rotation_fires_only_on_one_controls():
    state = apply_gate(new_basis_state(2, 0), Hadamard(0))
    out = apply_gate(state, RotationY(math.pi, 1, controls=(0,)))
    # |00> branch untouched, |10> branch rotated to |11>
    assert np.allclose(out.amplitudes,
                       [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)], atol=1e-12)


def test_empty_circuit_is_identity():
    state = new_basis_state(2, 1)
    out = apply_circuit(state, Circuit(2, ()))
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_hadamard_squares_to_identity():
    out = apply_circuit(new_basis_state(1, 0),
                        Circuit(1, (Hadamard(0), Hadamard(0))))
    assert np.allclose(out.amplitudes, [1, 0], atol=1e-12)


def test_sign_pattern_gate_list_matches_dense_product():
    # Synthesis of diag(1,1,1,-1) applied to the uniform state, checked
    # against an explicit dense 4x4 matrix product.
    gates = (ControlledZPow(1, (0, 1)),)
    state = StateVector(np.full(4, 0.5, dtype=complex))
    out = apply_circuit(state, Circuit(2, gates))
    oracle = dense_circuit_matrix(gates, 2) @ state.amplitudes
    assert np.allclose(out.amplitudes, oracle, atol=1e-12)
    assert np.allclose(out.amplitudes, [0.5, 0.5, 0.5, -0.5], atol=1e-12)


def test_random_circuits_match_dense_matrices():
    rng = np.random.default_rng(23)
    drawn = set()

    def draw(kind, qubits, most):
        size = min(len(qubits), int(rng.integers(0, most + 1)))
        drawn.add((kind, size))
        return tuple(int(q) for q in rng.choice(qubits, size=size, replace=False))

    for _ in range(30):
        n = int(rng.integers(1, 5))
        gates = []
        for _ in range(8):
            kind = rng.integers(0, 5)
            target = int(rng.integers(0, n))
            if kind == 0:
                gates.append(Hadamard(target))
            elif kind == 1:
                gates.append(PauliX(target))
            elif kind == 2:
                controls = draw("RY", [q for q in range(n) if q != target], 2)
                gates.append(RotationY(float(rng.uniform(0, TAU)), target, controls))
            elif kind == 3:
                size = int(rng.integers(1, n + 1))
                qubits = tuple(int(q) for q in rng.choice(n, size=size, replace=False))
                gates.append(ControlledZPow(int(rng.choice([-3, -1, 1, 2, 3])), qubits))
            else:
                width = int(rng.integers(1, n + 1))
                register = tuple(int(q) for q in rng.choice(n, size=width, replace=False))
                controls = draw("DIAG", [q for q in range(n) if q not in register], 2)
                phases = tuple(float(p) for p in rng.uniform(0, TAU, 1 << width))
                gates.append(DiagonalOracle(register, phases, int(rng.integers(-4, 5)),
                                            controls))
        state = random_state(n, rng)
        out = apply_circuit(state, Circuit(n, tuple(gates)))
        oracle = dense_circuit_matrix(gates, n) @ state.amplitudes
        assert np.allclose(out.amplitudes, oracle, atol=1e-10)
    assert {("RY", 1), ("RY", 2), ("DIAG", 1), ("DIAG", 2)} <= drawn


def one_gate(state: StateVector, gate) -> StateVector:
    """``gate`` applied to ``state`` without changing it."""
    return apply_circuit(state, Circuit(state.num_qubits, (gate,)))


def test_every_gate_variant_inverts():
    rng = np.random.default_rng(7)
    gates = [
        Hadamard(2),
        PauliX(0),
        RotationY(1.234, 3, controls=(1,)),
        ControlledZPow(-3, (0, 2, 4)),
        DiagonalOracle((1, 3), tuple(rng.uniform(0, TAU, 4)), power=5, controls=(0,)),
        QFTBlock((0, 1, 2, 3)),
    ]
    for gate in gates:
        state = random_state(6, rng)
        out = apply_circuit(state, Circuit(6, (gate, inverse_gate(gate))))
        assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-10), gate


def test_norm_preserved_over_long_sequences():
    rng = np.random.default_rng(3)
    state = random_state(4, rng)
    for i in range(10_000):
        target = int(rng.integers(0, 4))
        if i % 3 == 0:
            state = apply_gate(state, Hadamard(target))
        elif i % 3 == 1:
            state = apply_gate(state, RotationY(float(rng.uniform(0, TAU)), target))
        else:
            state = apply_gate(state, ControlledZPow(2, (target,)))
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def test_oracle_power_equals_repeated_application():
    rng = np.random.default_rng(9)
    phases = tuple(rng.uniform(0, TAU, 4))
    state = random_state(2, rng)
    for power in range(1, 17):
        powered = one_gate(state, DiagonalOracle((0, 1), phases, power=power))
        repeated = apply_circuit(state, Circuit(2, (DiagonalOracle((0, 1), phases),) * power))
        assert np.allclose(powered.amplitudes, repeated.amplitudes, atol=1e-10)


def test_qft_on_one_qubit_is_hadamard():
    assert qft_circuit((0,)) == (Hadamard(0),)


@pytest.mark.parametrize("register, refusal", [
    ((), "QFT register must be nonempty"),
    ((0, 0), "QFT register lists duplicate qubits"),
], ids=["empty", "duplicate"])
def test_qft_circuit_refuses_a_bad_register(register, refusal):
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        qft_circuit(register)


def test_qft_of_zero_is_uniform():
    out = apply_circuit(new_basis_state(2, 0), Circuit(2, qft_circuit((0, 1))))
    assert np.allclose(out.amplitudes, np.full(4, 0.5), atol=1e-12)


def test_qft_inverse_composes_to_identity():
    rng = np.random.default_rng(17)
    state = random_state(3, rng)
    out = apply_circuit(state, Circuit(3, qft_circuit((0, 1, 2))))
    out = apply_circuit(out, Circuit(3, qft_circuit((0, 1, 2), inverse=True)))
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-10)


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_qft_matches_direct_summation_dft(width):
    oracle = dft_matrix(width)
    circuit = Circuit(width, qft_circuit(tuple(range(width))))
    for j in range(1 << width):
        column = apply_circuit(new_basis_state(width, j), circuit)
        assert np.allclose(column.amplitudes, oracle[:, j], atol=1e-10)
    inverse = Circuit(width, qft_circuit(tuple(range(width)), inverse=True))
    for j in range(1 << width):
        column = apply_circuit(new_basis_state(width, j), inverse)
        assert np.allclose(column.amplitudes, oracle.conj().T[:, j], atol=1e-10)


@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("register, num_qubits", [((0, 1, 2), 3), ((4, 1, 3), 6)],
                         ids=["contiguous", "permuted"])
def test_qft_block_gate_equals_circuit(inverse, register, num_qubits):
    # The builders only transform contiguous top registers; a permuted,
    # non-contiguous register inside a larger state checks the axis order.
    rng = np.random.default_rng(29)
    state = random_state(num_qubits, rng)
    via_block = one_gate(state, QFTBlock(register, inverse=inverse))
    gates = qft_circuit(register, inverse=inverse)
    via_circuit = apply_circuit(state, Circuit(num_qubits, gates))
    assert np.allclose(via_block.amplitudes, via_circuit.amplitudes, atol=1e-12)


def test_qft_on_permuted_register():
    # Register order defines the transform's bit order: reading the register
    # (1, 0) means qubit 1 is the most significant transform bit.
    state = new_basis_state(2, 2)  # qubit 0 set -> register value 01 = 1
    out = apply_circuit(state, Circuit(2, qft_circuit((1, 0))))
    assert np.allclose(out.amplitudes, dft_matrix(2)[:, 1][[0, 2, 1, 3]], atol=1e-12)


def test_project_measure_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    probability, post = project_measure(StateVector(bell), 0, 0)
    assert probability == pytest.approx(0.5, abs=1e-12)
    assert post.num_qubits == 1
    assert np.allclose(post.amplitudes, [1, 0], atol=1e-12)


def test_project_measure_impossible_outcome():
    probability, post = project_measure(new_basis_state(1, 0), 0, 1)
    assert probability == 0.0
    assert post is None


def test_project_measure_uniform_cosine_state():
    # (1/sqrt(2)) sum_i |i>(cos a_i|0> + sin a_i|1>) for magnitudes (3, 4):
    # the ancilla-0 probability is ||x||^2 / (2 max^2) = 25/32.
    a0, a1 = math.acos(3 / 4), math.acos(4 / 4)
    amplitudes = np.array(
        [math.cos(a0), math.sin(a0), math.cos(a1), math.sin(a1)],
        dtype=complex) / math.sqrt(2)
    probability, _ = project_measure(StateVector(amplitudes), 1, 0)
    assert probability == pytest.approx(25 / 32, abs=1e-12)


@pytest.mark.parametrize("outcome", [0, 1])
@pytest.mark.parametrize("target", [0, 2, 4], ids=["first", "middle", "last"])
def test_project_measure_is_the_dense_projection(target, outcome):
    state = random_state(5, np.random.default_rng(31 + target))
    before = state.amplitudes.tobytes()
    probability, post = project_measure(state, target, outcome)
    expected_probability, expected = dense_projection(state.amplitudes, 5, target, outcome)
    assert state.amplitudes.tobytes() == before
    assert probability == pytest.approx(expected_probability, abs=1e-14)
    assert post.num_qubits == 4 and post.amplitudes.flags.c_contiguous
    assert np.max(np.abs(post.amplitudes - expected)) < 1e-14


def test_project_measure_refuses_bad_arguments():
    state = new_basis_state(2, 0)
    with pytest.raises(ValueError, match="outside"):
        project_measure(state, 2, 0)
    with pytest.raises(ValueError, match="outcome"):
        project_measure(state, 0, 2)


def test_gate_validation_errors():
    # A gate is checked when its circuit is made, before any state exists.
    with pytest.raises(ValueError, match="outside"):
        Circuit(2, (Hadamard(2),))
    with pytest.raises(ValueError, match="duplicate"):
        Circuit(2, (ControlledZPow(1, (0, 0)),))
    with pytest.raises(ValueError, match="phases"):
        Circuit(2, (DiagonalOracle((0, 1), (0.0, 0.0)),))
    with pytest.raises(ValueError, match="level"):
        Circuit(2, (ControlledZPow(0, (0,)),))
    with pytest.raises(ValueError, match="dimension|qubits"):
        apply_circuit(new_basis_state(3, 0), Circuit(2, ()))


def test_a_refused_gate_is_named_by_its_type_and_qubits():
    # Not by its repr, which would list every phase of an oracle and cannot
    # print a power past the digits int() converts to text.
    oracle = DiagonalOracle(tuple(range(8)), tuple(float(i) for i in range(256)),
                            controls=(8,))
    with pytest.raises(ValueError) as refused:
        Circuit(8, (oracle,))
    assert str(refused.value) == ("DiagonalOracle on qubits [0, 1, 2, 3, 4, 5, 6, 7, 8]: "
                                  "qubit 8 outside [0, 8)")
    with pytest.raises(ValueError) as refused:
        Circuit(1, (DiagonalOracle((5,), (0.0, 1.0), 10**5000),))
    assert str(refused.value) == "DiagonalOracle on qubits [5]: qubit 5 outside [0, 1)"
    with pytest.raises(ValueError) as refused:
        Circuit(2, (ControlledZPow(1, (0, 0)),))
    assert str(refused.value) == "ControlledZPow on qubits [0, 0] lists duplicate qubits"


def test_circuit_refuses_a_czp_level_past_the_finest_grid():
    # 2*pi/2**|level| stays a positive float up to MAX_LEVEL; past it a
    # Circuit refuses the gate before any simulation computes 1 << |level|.
    for level in (MAX_LEVEL, -MAX_LEVEL):
        circuit = Circuit(1, (PauliX(0), ControlledZPow(level, (0,))))
        phase = apply_circuit(new_basis_state(1, 0), circuit).amplitudes[1]
        assert phase.imag == math.copysign(TAU / 2.0 ** MAX_LEVEL, level)
    for level in (MAX_LEVEL + 1, -MAX_LEVEL - 1, 10**7):
        with pytest.raises(ValueError) as refused:
            Circuit(1, (ControlledZPow(level, (0,)),))
        assert str(refused.value) == f"ControlledZPow level {level} exceeds the limit 1021"


def test_circuit_refuses_a_diag_power_past_the_floats():
    # The kernel scales the phases by the power as a float: the largest
    # power that converts simulates, and a Circuit refuses any larger one,
    # naming its bit length, before a simulation overflows.
    for power in (2 ** 1023, -2 ** 1023):
        circuit = Circuit(1, (PauliX(0), DiagonalOracle((0,), (0.0, 1.0), power)))
        phase = apply_circuit(new_basis_state(1, 0), circuit).amplitudes[1]
        assert phase == np.exp(1.0j * float(power))
    for power, bits in ((2 ** 1024, 1025), (-2 ** 1024, 1025),
                        (int(sys.float_info.max) + 1, 1024)):
        with pytest.raises(ValueError) as refused:
            Circuit(1, (DiagonalOracle((0,), (0.0, 1.0), power),))
        assert str(refused.value) == f"DiagonalOracle power of {bits} bits exceeds the float range"


def test_apply_circuit_checks_no_gate_of_a_built_circuit(monkeypatch):
    circuit = Circuit(5, tuple(EVERY_GATE_KIND))
    calls = []
    monkeypatch.setattr("qprep.sim.validate_gate", lambda *args: calls.append(args))
    out = apply_circuit(random_state(5, np.random.default_rng(17)), circuit)
    assert calls == []
    assert out.num_qubits == 5


def test_state_vector_rejects_unnormalized_input():
    with pytest.raises(ValueError, match="norm"):
        StateVector(np.array([1.0, 1.0], dtype=complex))


@pytest.mark.parametrize("amplitudes", [
    np.zeros(0), np.full(3, 3 ** -0.5), np.full(6, 6 ** -0.5), np.full((2, 2), 0.5),
], ids=["size-0", "size-3", "size-6", "two-dimensional"])
def test_state_vector_refuses_anything_but_a_flat_power_of_two_array(amplitudes):
    # The qubit count is read off the size, so the shape is all there is to check.
    with pytest.raises(ValueError) as refused:
        StateVector(amplitudes)
    assert str(refused.value) == f"expected 2^n amplitudes, got shape {amplitudes.shape}"


def test_state_vector_refuses_nan_amplitudes():
    with pytest.raises(ValueError, match="norm nan"):
        StateVector(np.array([1.0, math.nan], dtype=complex))


# apply_gate runs the gate's kernel in place on the state and returns that
# state; a one-gate circuit applies it to a copy and checks the result.
EVERY_GATE_KIND = [
    Hadamard(2), PauliX(0), RotationY(0.7, 4), RotationY(-1.9, 1, (3,)),
    RotationY(2.3, 0, (4, 2)), ControlledZPow(3, (1,)), ControlledZPow(-2, (0, 3, 4)),
    DiagonalOracle((1, 3), (0.1, 0.2, 0.3, 0.4), 3),
    DiagonalOracle((4, 0), (0.5, -0.2, 1.3, 2.4), -2, (2,)),
    QFTBlock((3, 1, 4)), QFTBlock((0, 2), inverse=True),
]


@pytest.mark.parametrize("gate", EVERY_GATE_KIND, ids=repr)
def test_one_gate_circuit_leaves_its_input_unchanged(gate):
    state = random_state(5, np.random.default_rng(12))
    before = state.amplitudes.copy()
    out = one_gate(state, gate)
    assert state.amplitudes.tobytes() == before.tobytes()
    assert not np.shares_memory(out.amplitudes, state.amplitudes)


@pytest.mark.parametrize("gate", EVERY_GATE_KIND, ids=repr)
def test_apply_gate_runs_on_a_contiguous_copy_of_strided_amplitudes(gate):
    # The kernels reshape the array they run on, which is only a view of a
    # C-contiguous array: the state stores a copy of strided input.
    wide = np.zeros(64, dtype=complex)
    wide[::2] = random_state(5, np.random.default_rng(15)).amplitudes
    state = StateVector(wide[::2])
    before = wide.tobytes()
    assert apply_gate(state, gate) is state
    assert wide.tobytes() == before
    assert state.amplitudes.tobytes() == reference_apply(wide[::2], gate, 5).tobytes()


@pytest.mark.parametrize("amplitudes, shared", [
    (np.full(32, 32 ** -0.5, dtype=complex), True),
    (np.full(32, 32 ** -0.5), False),
    (np.full(64, 32 ** -0.5, dtype=complex)[::2], False),
], ids=["complex", "float64", "strided"])
def test_state_vector_stores_contiguous_complex_amplitudes(amplitudes, shared):
    state = StateVector(amplitudes)
    assert state.amplitudes.dtype == complex and state.amplitudes.flags.c_contiguous
    assert np.shares_memory(state.amplitudes, amplitudes) == shared
    assert np.array_equal(state.amplitudes, amplitudes)


def apply_in_place(state: StateVector, gate) -> np.ndarray:
    """The amplitudes of ``gate`` applied in place to a copy of ``state``."""
    copy = StateVector(state.amplitudes.copy())
    assert apply_gate(copy, gate) is copy
    return copy.amplitudes


@pytest.mark.parametrize("gate", EVERY_GATE_KIND, ids=repr)
def test_apply_gate_gives_the_bytes_of_a_one_gate_circuit(gate):
    state = random_state(5, np.random.default_rng(14))
    expected = one_gate(state, gate).amplitudes
    assert apply_in_place(state, gate).tobytes() == expected.tobytes()


def test_apply_circuit_copies_its_input_once():
    state = random_state(5, np.random.default_rng(16))
    before = state.amplitudes.tobytes()
    out = apply_circuit(state, Circuit(5, tuple(EVERY_GATE_KIND)))
    assert state.amplitudes.tobytes() == before
    assert not np.shares_memory(out.amplitudes, state.amplitudes)
    expected = StateVector(state.amplitudes.copy())
    for gate in EVERY_GATE_KIND:
        apply_gate(expected, gate)
    assert out.amplitudes.tobytes() == expected.amplitudes.tobytes()


TWO_BY_TWO = [
    make(target) for target in (0, 2, 4)
    for make in (Hadamard, PauliX, lambda t: RotationY(1.234, t),
                 lambda t: RotationY(-2.5, t, ((t + 1) % 5,)),
                 lambda t: RotationY(0.377, t, ((t + 3) % 5, (t + 1) % 5)))
]


@pytest.mark.parametrize("gate", TWO_BY_TWO, ids=repr)
def test_2x2_kernel_is_the_reference_expression_bit_for_bit(gate):
    rng = np.random.default_rng(13)
    amplitudes = random_state(5, rng).amplitudes
    amplitudes[rng.random(32) < 0.2] = complex(-0.0, 0.0)
    state = StateVector(amplitudes / np.linalg.norm(amplitudes))
    expected = reference_2x2(state.amplitudes, gate, 5)
    for out in (one_gate(state, gate).amplitudes, apply_in_place(state, gate)):
        # tobytes also tells a negative zero from a positive one.
        assert np.array_equal(out, expected) and out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("gate", [Hadamard(0), PauliX(0), RotationY(1.234, 0),
                                  RotationY(-2.5, 0), RotationY(math.pi, 0)], ids=repr)
def test_2x2_kernel_keeps_the_reference_sign_of_every_zero(gate):
    # Every pair of low and high amplitudes whose parts are +0, -0 or not
    # zero: a kernel that negates h*high instead of multiplying by -h gets
    # the sign of some zero parts wrong.
    parts = (0.0, -0.0, 0.5, -1.5)
    values = [(re, im) for re in parts for im in parts]
    pairs = [(low, high) for low in values for high in values]
    amplitudes = np.empty(2 * len(pairs), dtype=complex)
    halves = amplitudes.reshape(2, -1)
    for half, side in zip(halves, zip(*pairs)):
        half.real, half.imag = zip(*side)
    state = StateVector(amplitudes / np.linalg.norm(amplitudes))
    expected = reference_2x2(state.amplitudes, gate, 9).tobytes()
    assert one_gate(state, gate).amplitudes.tobytes() == expected
    assert apply_in_place(state, gate).tobytes() == expected


def test_apply_circuit_checks_the_norm_at_its_end(monkeypatch):
    # A kernel that loses norm passes apply_gate, which does not check per
    # gate, and is caught where a state leaves the simulator: at the end of
    # the circuit.
    monkeypatch.setattr("qprep.sim._HADAMARD", ((0.5, 0.5), (0.5, -0.5)))
    owned = new_basis_state(2, 0)
    assert apply_gate(owned, Hadamard(0)) is owned
    assert owned.amplitudes[0] == 0.5
    state = new_basis_state(2, 0)
    with pytest.raises(ValueError, match="norm"):
        apply_circuit(state, Circuit(2, (Hadamard(0), Hadamard(1))))
    # Lossy before three joins, the last of qubits no gate touches: the
    # joins check nothing, and the end still refuses.
    with pytest.raises(ValueError, match="norm"):
        apply_circuit(new_basis_state(0, 0), Circuit(4, (Hadamard(0), Hadamard(2))))
