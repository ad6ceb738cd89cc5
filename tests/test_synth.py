import math
import random
from itertools import product

import numpy as np
import pytest

from _util import (
    dense_circuit_matrix,
    onto_register,
    reference_peel,
    reference_reconstruct,
)
from qprep.dyadic import PhaseSpec, quantize
from qprep.sim import (
    Circuit,
    ControlledZPow,
    DiagonalOracle,
    Hadamard,
    PauliX,
    StateVector,
    apply_circuit,
)
from qprep.synth import (
    SynthesisResult,
    count_gate_list,
    global_phase_gates,
    peel_synthesize,
    reconstruct,
    sparse_synthesize,
)


def random_state(num_qubits, rng):
    v = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    return StateVector(v / np.linalg.norm(v))


def random_spec(rng, max_qubits=5, max_level=5):
    n = int(rng.integers(1, max_qubits + 1))
    m = int(rng.integers(1, max_level + 1))
    return PhaseSpec(m, tuple(int(v) for v in rng.integers(0, 1 << m, 1 << n)))


def test_all_zero_phases_need_no_gates():
    result = peel_synthesize(PhaseSpec(3, (0, 0, 0, 0)))
    assert result.gates == ()
    assert result.global_phase == 0


def test_single_sign_flip_is_one_cz():
    result = peel_synthesize(quantize([0, 0, 0, math.pi], 1))
    assert result.gates == (ControlledZPow(1, (0, 1)),)
    assert reconstruct(result) == PhaseSpec(1, (0, 0, 0, 1))


def test_level_two_example_product_is_forced():
    # diag(1, i, 1, 1): whatever the peel emits must multiply back to it.
    spec = quantize([0, math.pi / 2, 0, 0], 2)
    result = peel_synthesize(spec)
    assert reconstruct(result) == spec
    state = StateVector(np.full(4, 0.5, dtype=complex))
    out = apply_circuit(state, Circuit(2, result.product_gates()))
    assert np.allclose(out.amplitudes / 0.5, [1, 1j, 1, 1], atol=1e-12)


def test_exhaustive_sign_patterns_two_qubits():
    for bits in product((0, 1), repeat=4):
        spec = PhaseSpec(1, bits)
        result = peel_synthesize(spec)
        assert reconstruct(result) == spec
        assert len(result.gates) <= 3


def test_peel_output_is_deterministic():
    spec = PhaseSpec(2, (1, 3, 0, 2, 1, 1, 2, 0))
    assert peel_synthesize(spec).gates == peel_synthesize(spec).gates


def test_random_round_trips_and_gate_bound():
    rng = np.random.default_rng(42)
    for _ in range(120):
        spec = random_spec(rng)
        result = peel_synthesize(spec)
        assert reconstruct(result) == spec
        assert len(result.gates) <= spec.level * ((1 << spec.num_qubits) - 1)


def test_peel_matches_the_reference_loop():
    # The transform must emit the loop's gates in the loop's order, at every
    # level: words above m = 63 overflow a signed 64-bit integer, and n = 0
    # has no pattern but the empty one.
    rng = random.Random(606)
    for trial in range(150):
        n = rng.randint(0, 7)
        m = rng.randint(1, 11) if trial % 2 else rng.randint(60, 90)
        spec = PhaseSpec(m, tuple(rng.getrandbits(m) for _ in range(1 << n)))
        result, reference = peel_synthesize(spec), reference_peel(spec)
        assert result.gates == reference.gates
        assert result.global_phase == reference.global_phase
    assert peel_synthesize(PhaseSpec(70, ((1 << 69) + 3,))).gates == ()


def test_peel_on_a_register_moves_every_gate_there():
    rng = np.random.default_rng(9)
    for _ in range(20):
        spec = random_spec(rng, max_qubits=4, max_level=5)
        n = spec.num_qubits
        register = tuple(int(q) for q in rng.permutation(n + 3)[:n])
        placed = peel_synthesize(spec, register)
        assert placed.register == register
        assert placed.product_gates() == onto_register(
            peel_synthesize(spec).product_gates(), register)
        assert reconstruct(placed) == spec
    with pytest.raises(ValueError, match="register of 2 qubits"):
        peel_synthesize(PhaseSpec(1, (0,) * 8), (4, 5))


def test_entry_zero_phase_becomes_global_scalar():
    spec = PhaseSpec(2, (3, 0, 1, 2))
    result = peel_synthesize(spec)
    assert result.global_phase == 3
    assert reconstruct(result) == spec
    # and the materialized gate list realizes entry zero too
    rng = np.random.default_rng(0)
    state = random_state(2, rng)
    out = apply_circuit(state, Circuit(2, result.product_gates()))
    expected = state.amplitudes * np.exp(1j * np.array(spec.angles()))
    assert np.allclose(out.amplitudes, expected, atol=1e-12)


def test_emitted_levels_never_exceed_spec_level():
    rng = np.random.default_rng(8)
    for _ in range(40):
        spec = random_spec(rng, max_qubits=4, max_level=4)
        for gate in peel_synthesize(spec).gates:
            assert abs(gate.level) <= spec.level


def test_matrix_agreement_with_diagonal_oracle():
    rng = np.random.default_rng(13)
    for _ in range(25):
        spec = random_spec(rng, max_qubits=4, max_level=4)
        n = spec.num_qubits
        result = peel_synthesize(spec)
        state = random_state(n, rng)
        via_gates = apply_circuit(state, Circuit(n, result.product_gates()))
        oracle = DiagonalOracle(tuple(range(n)), spec.angles())
        via_oracle = apply_circuit(state, Circuit(n, (oracle,)))
        assert np.allclose(via_gates.amplitudes, via_oracle.amplitudes, atol=1e-10)


def test_sparse_all_ones_index_needs_no_conjugation():
    spec = PhaseSpec(1, (0, 0, 0, 0, 0, 0, 0, 1))
    result = sparse_synthesize(spec, [7])
    assert result.gates == (ControlledZPow(1, (0, 1, 2)),)


def test_sparse_conjugates_the_zero_bits():
    spec = PhaseSpec(1, (0, 0, 0, 0, 0, 1, 0, 0))
    result = sparse_synthesize(spec, [5])
    assert result.gates == (PauliX(1), ControlledZPow(1, (0, 1, 2)), PauliX(1))
    assert reconstruct(result) == spec


def test_sparse_splits_numerator_across_levels():
    spec = PhaseSpec(2, (0, 0, 0, 3))  # phase 3*pi/2 at index 3
    result = sparse_synthesize(spec, [3])
    assert set(g.level for g in result.gates) == {1, 2}
    assert all(g.qubits == (0, 1) for g in result.gates)
    assert reconstruct(result) == spec


def test_sparse_round_trip_and_count_bound():
    rng = np.random.default_rng(77)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 6))
        support_size = int(rng.integers(1, n + 1))
        support = [int(v) for v in rng.choice(1 << n, support_size, replace=False)]
        numerators = [0] * (1 << n)
        for index in support:
            numerators[index] = int(rng.integers(0, 1 << m))
        spec = PhaseSpec(m, tuple(numerators))
        result = sparse_synthesize(spec, support)
        assert reconstruct(result) == spec
        assert len(result.gates) <= support_size * (2 * n + m)


def test_sparse_rejects_inconsistent_support():
    spec = PhaseSpec(1, (0, 1, 0, 0))
    with pytest.raises(ValueError, match="outside the support"):
        sparse_synthesize(spec, [3])


def test_reconstruct_examples():
    empty = peel_synthesize(PhaseSpec(1, (0, 0, 0, 0)))
    assert reconstruct(empty).numerators == (0, 0, 0, 0)
    cz = peel_synthesize(PhaseSpec(1, (0, 0, 0, 1)))
    assert reconstruct(cz).numerators == (0, 0, 0, 1)


def test_reconstruct_round_trip_many_random_specs():
    rng = np.random.default_rng(3)
    for _ in range(200):
        spec = random_spec(rng, max_qubits=4, max_level=4)
        assert reconstruct(peel_synthesize(spec)) == spec


def test_reconstruct_round_trips_peel_at_twelve_qubits():
    rng = random.Random(1412)
    spec = PhaseSpec(10, tuple(rng.getrandbits(10) for _ in range(1 << 12)))
    assert reconstruct(peel_synthesize(spec)) == spec


def test_reconstruct_spreads_the_global_phase_under_full_patterns():
    # Every word sits on the full pattern, so only the global phase in word 0
    # needs the butterflies.
    spec = PhaseSpec(2, (1, 1, 1, 2))
    result = peel_synthesize(spec)
    assert result.global_phase == 1
    assert all(gate.qubits == (0, 1) for gate in result.gates)
    assert reconstruct(result) == spec
    sparse = sparse_synthesize(PhaseSpec(2, (0, 0, 0, 1)), [3])
    shifted = SynthesisResult(sparse.register, 2, sparse.gates, 3)
    assert reconstruct(shifted) == PhaseSpec(2, (3, 3, 3, 0))


@pytest.mark.parametrize("result, error", [
    (SynthesisResult((0, 1), 2, (Hadamard(0),), 0), TypeError),
    (SynthesisResult((0, 1), 2, (ControlledZPow(1, (0, 5)),), 0), KeyError),
    (SynthesisResult((0, 1), 2, (PauliX(5),), 0), KeyError),
    (SynthesisResult((0, 1), 2, (ControlledZPow(1, (0,)),), 4), ValueError),
    (SynthesisResult((0, 1), 2, (), -1), ValueError),
], ids=["gate-kind", "czp-qubit", "x-qubit", "global-high", "global-low"])
def test_reconstruct_refuses_what_the_reference_refuses(result, error):
    with pytest.raises(error):
        reference_reconstruct(result)
    with pytest.raises(error):
        reconstruct(result)


@pytest.mark.parametrize("sparse", [False, True], ids=["peel", "sparse"])
def test_reconstruct_matches_dense_product_of_gates(sparse):
    # The dense matrix of the materialized gates (global-phase block and PauliX
    # conjugations included) checks reconstruct independently of its walk.
    rng = np.random.default_rng(41)
    for _ in range(30):
        spec = random_spec(rng, max_qubits=4, max_level=4)
        n, m = spec.num_qubits, spec.level
        if sparse:
            support = [int(i) for i in rng.choice(1 << n, size=int(rng.integers(1, 1 << n)),
                                                    replace=False)]
            numerators = tuple(p if i in support else 0 for i, p in enumerate(spec.numerators))
            spec = PhaseSpec(m, numerators)
            result = sparse_synthesize(spec, support)
        else:
            result = peel_synthesize(spec)
        numerators = np.array(reconstruct(result).numerators)
        diagonal = np.diag(dense_circuit_matrix(result.product_gates(), n))
        assert np.allclose(np.exp(2j * np.pi * numerators / (1 << m)), diagonal, atol=1e-10)


def test_count_gates():
    assert count_gate_list(peel_synthesize(PhaseSpec(1, (0,) * 4)).gates) == {}
    single = peel_synthesize(PhaseSpec(1, (0, 0, 0, 1)))
    assert count_gate_list(single.gates) == {(2, 1): 1}
    rng = np.random.default_rng(4)
    for _ in range(20):
        spec = random_spec(rng, max_qubits=4, max_level=3)
        result = peel_synthesize(spec)
        assert sum(count_gate_list(result.gates).values()) == len(result.gates)


def test_worst_case_single_level_three_qubits_stays_within_bound():
    for pattern in range(256):
        numerators = tuple((pattern >> i) & 1 for i in range(8))
        result = peel_synthesize(PhaseSpec(1, numerators))
        assert len(result.gates) <= 7


def test_global_phase_gates_apply_uniform_phase():
    rng = np.random.default_rng(21)
    state = random_state(3, rng)
    out = apply_circuit(state, Circuit(3, global_phase_gates(5, 3)))
    assert np.allclose(out.amplitudes,
                       state.amplitudes * np.exp(2j * math.pi * 5 / 8), atol=1e-12)
