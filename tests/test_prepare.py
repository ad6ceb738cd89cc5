import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from _util import flat_preparation, reference_phase_stage
from qprep.dyadic import TAU
from qprep.prepare import (
    DETERMINISTIC,
    PROBABILISTIC,
    SIMULATION_BYTES_PER_AMPLITUDE,
    LeakageError,
    PrecisionConfig,
    TargetVector,
    build,
    build_phase_stage,
    compute_angles,
    compute_marginals,
    fast_path_prepare,
    required_precision,
    _cancel_hadamard_pairs,
    simulate_preparation,
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
    gate_qubits,
)
from qprep.synth import peel_synthesize, reconstruct
from qprep.dyadic import quantize


def test_target_vector_validation():
    with pytest.raises(ValueError, match="entry 1"):
        TargetVector(1, np.array([1.0, -0.5]), np.zeros(2))
    with pytest.raises(ValueError, match="all magnitudes"):
        TargetVector(1, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match="entry 0"):
        TargetVector(1, np.ones(2), np.array([TAU, 0.0]))
    with pytest.raises(ValueError, match="magnitudes"):
        TargetVector(2, np.ones(3), np.zeros(3))


@pytest.mark.parametrize("value, text", [
    (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")])
def test_target_vector_refuses_non_finite_magnitudes(value, text):
    with pytest.raises(ValueError, match=f"^entry 0: magnitude {text} is not finite$"):
        TargetVector(1, np.array([value, 1.0]), np.zeros(2))


def test_marginals_uniform():
    levels = compute_marginals(TargetVector.from_magnitudes([1, 1, 1, 1]))
    assert np.allclose(levels[1], [0.25] * 4)
    assert np.allclose(levels[0], [0.5, 0.5])


def test_marginals_basis_vector():
    levels = compute_marginals(TargetVector.from_magnitudes([1, 0, 0, 0]))
    assert np.allclose(levels[0], [1, 0])
    assert np.allclose(levels[1], [1, 0, 0, 0])


def test_marginals_direct_summation():
    x = TargetVector.from_magnitudes(np.sqrt([1, 2, 3, 4]) / math.sqrt(10))
    levels = compute_marginals(x)
    assert np.allclose(levels[0], [0.3, 0.7], atol=1e-12)


def test_marginals_parent_child_consistency():
    rng = np.random.default_rng(31)
    x = TargetVector.from_magnitudes(np.abs(rng.standard_normal(16)))
    levels = compute_marginals(x)
    for k in range(len(levels) - 1):
        parents, children = levels[k], levels[k + 1]
        assert np.allclose(parents, children.reshape(-1, 2).sum(axis=1), atol=1e-15)
        assert abs(parents.sum() - 1.0) < 1e-12


def test_angles_uniform_vector_splits_evenly():
    # pi/4 at multiplier 2 is a quarter turn: cell 16 of 2**6.
    x = TargetVector.from_magnitudes([1, 1, 1, 1])
    root, estimates = compute_angles(x, PrecisionConfig(6, 4))
    assert root == pytest.approx(math.pi / 4, abs=1e-12)
    assert [y.tolist() for y in estimates] == [[16, 16]]


def test_angles_basis_vector_root_is_zero():
    x = TargetVector.from_magnitudes([1, 0])
    assert compute_angles(x, PrecisionConfig(6, 4)) == (0.0, ())


def test_prob_angles_for_three_four():
    x = TargetVector.from_magnitudes([3, 4])
    cfg = PrecisionConfig(6, 4, PROBABILISTIC)
    root, estimates = compute_angles(x, cfg)
    # floor(4 * acos(0.75) / (2*pi) * 2**6) = floor(29.45)
    assert root is None and [y.tolist() for y in estimates] == [[29, 0]]


def test_zero_branches_get_zero_angles():
    x = TargetVector.from_magnitudes([0, 0, 1, 1])
    root, estimates = compute_angles(x, PrecisionConfig(6, 4))
    assert root == pytest.approx(math.pi / 2, abs=1e-12)
    # Dead branch: cell 0, not arccos(0/0); pi/4 at multiplier 2 is cell 16.
    assert [y.tolist() for y in estimates] == [[0, 16]]


def test_precision_config_validation():
    with pytest.raises(ValueError, match="angle_multiplier"):
        PrecisionConfig(4, 4, PROBABILISTIC, angle_multiplier=2)
    with pytest.raises(ValueError, match="estimation_bits"):
        PrecisionConfig(0, 4)
    with pytest.raises(ValueError, match="mode"):
        PrecisionConfig(4, 4, "other")
    assert PrecisionConfig(4, 4, PROBABILISTIC).angle_multiplier == 4
    assert PrecisionConfig(4, 4, DETERMINISTIC).angle_multiplier == 2


def test_multiplier_four_wraps_right_angles_onto_the_top_cell():
    # A zero left child gives pi/2, a full turn at multiplier 4: the top
    # cell, as a probabilistic x_i = 0 does; pi/4 there is half a turn.
    x = TargetVector.from_magnitudes([0, 1, 1, 1])
    cfg = PrecisionConfig(6, 4, DETERMINISTIC, angle_multiplier=4)
    _, estimates = compute_angles(x, cfg)
    assert [y.tolist() for y in estimates] == [[63, 32]]
    fast = fast_path_prepare(x, cfg)
    assert np.max(np.abs(simulate_preparation(build(x, cfg)).amplitudes
                         - fast.amplitudes)) <= 1e-12
    assert fast.amplitudes[0] == pytest.approx(math.sin(math.pi / 2 ** 7) / math.sqrt(3))


def test_required_precision_formulas():
    det = required_precision(3, 0.1, DETERMINISTIC)
    assert (det.estimation_bits, det.phase_bits) == (9, 10)
    prob = required_precision(3, 0.1, PROBABILISTIC)
    assert (prob.estimation_bits, prob.phase_bits) == (12, 10)
    assert required_precision(2, 0.5, PROBABILISTIC).estimation_bits == 8
    with pytest.raises(ValueError):
        required_precision(3, 1.5, DETERMINISTIC)
    # One qubit runs no estimation round: its bound is 0 at the least width.
    one = required_precision(1, 0.1, DETERMINISTIC)
    assert (one.estimation_bits, one.phase_bits) == (1, 8)
    for mode in (DETERMINISTIC, PROBABILISTIC):
        with pytest.raises(ValueError) as refused:
            required_precision(0, 0.1, mode)
        assert str(refused.value) == "num_qubits must be >= 1, got 0"
    with pytest.raises(ValueError) as refused:
        required_precision(2, 0.1, "nope")
    assert str(refused.value) == "unknown mode 'nope'"


def test_estimation_block_writes_exact_grid_estimates():
    # With grid-exact oracle phases, the estimation register must hold the
    # integer estimate per branch with unit-modulus amplitude, and the round's
    # uncompute, as ``build`` emits it, must return it to zero.
    from qprep.sim import new_basis_state

    t, n = 5, 2
    x = TargetVector.from_magnitudes([0.3, 1.0, 0.55, 0.8])
    cfg = PrecisionConfig(t, 4, PROBABILISTIC)
    _, (estimates,) = compute_angles(x, cfg)
    estimates = estimates.tolist()
    assert len(set(estimates)) == 1 << n
    total = t + n + 1
    gates = build(x, cfg).circuit.gates
    # Hadamards on the data, then estimate (2t+1 gates), ladder (t), uncompute.
    layer, estimate = gates[:n], gates[n:n + 2 * t + 1]
    uncompute = gates[n + 3 * t + 1:n + 5 * t + 2]
    mid = apply_circuit(new_basis_state(total, 0), Circuit(total, layer + estimate))
    for branch, y in enumerate(estimates):
        amplitude = mid.amplitudes[(y << (n + 1)) | (branch << 1)]
        assert abs(abs(amplitude) - 0.5) < 1e-10  # modulus 1 per branch / sqrt(4)
    out = apply_circuit(mid, Circuit(total, uncompute))
    residual = 1.0 - np.sum(np.abs(out.amplitudes[: 1 << (n + 1)]) ** 2)
    assert residual < 1e-10


def test_deterministic_basis_vector_is_exact():
    out = simulate_preparation(build(TargetVector.from_magnitudes([1, 0, 0, 0]),
                                     PrecisionConfig(6, 4)))
    assert np.allclose(out.amplitudes, [1, 0, 0, 0], atol=1e-12)


def test_deterministic_single_qubit_needs_only_the_root_rotation():
    out = simulate_preparation(build(TargetVector.from_magnitudes([1, 1]),
                                     PrecisionConfig(4, 4)))
    assert np.allclose(out.amplitudes, np.full(2, 1 / math.sqrt(2)), atol=1e-12)


def test_deterministic_register_layout():
    x = TargetVector.from_magnitudes([1, 1, 1, 1])
    result = build(x, PrecisionConfig(5, 4))
    assert result.circuit.num_qubits == 5 + 2
    assert result.registers.estimation == (0, 1, 2, 3, 4)
    assert result.registers.data == (5, 6)
    assert result.registers.ancilla is None
    fast = fast_path_prepare(x, PrecisionConfig(5, 4))
    assert fast.success_probability == 1.0 and fast.estimation_residual is None


def test_deterministic_distance_bound_example():
    x = TargetVector.from_magnitudes(np.sqrt([0.1, 0.2, 0.3, 0.4]))
    out = simulate_preparation(build(x, PrecisionConfig(10, 4)))
    distance = np.linalg.norm(out.amplitudes - x.amplitudes())
    assert distance <= math.sqrt(2) * math.pi / 512 + 1e-12
    assert out.estimation_residual < 1e-10


def test_deterministic_bound_random_vectors():
    rng = np.random.default_rng(55)
    for n in (2, 3):
        for _ in range(5):
            x = TargetVector.from_magnitudes(np.abs(rng.standard_normal(1 << n)))
            for t in (6, 8):
                out = simulate_preparation(build(x, PrecisionConfig(t, 1)))
                distance = np.linalg.norm(out.amplitudes - x.amplitudes())
                bound = (n - 1) * math.sqrt(2) * math.pi / (1 << (t - 1))
                assert distance <= bound + 1e-12


def test_deterministic_multiplier_one_matches_default():
    # The ladder's top rotation is a full turn at multiplier 1; it never fires
    # because the estimated fraction stays below one quarter.
    x = TargetVector.from_magnitudes([2, 1, 1, 3])
    out1 = simulate_preparation(
        build(x, PrecisionConfig(9, 4, DETERMINISTIC, angle_multiplier=1)))
    out2 = simulate_preparation(
        build(x, PrecisionConfig(10, 4, DETERMINISTIC, angle_multiplier=2)))
    assert np.linalg.norm(out1.amplitudes - out2.amplitudes) < 1e-2
    assert out1.estimation_residual < 1e-10


def test_probabilistic_uniform_succeeds_with_certainty():
    x = TargetVector.from_magnitudes([1, 1, 1, 1])
    cfg = PrecisionConfig(6, 4, PROBABILISTIC)
    out = simulate_preparation(build(x, cfg))
    fast = fast_path_prepare(x, cfg)
    assert fast.success_probability == pytest.approx(1.0, abs=1e-12)
    assert fast.estimation_residual is None
    assert out.success_probability == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out.amplitudes, np.full(4, 0.5), atol=1e-10)


def test_probabilistic_success_probability_three_four():
    x = TargetVector.from_magnitudes([3, 4])
    cfg = PrecisionConfig(12, 4, PROBABILISTIC)
    out = simulate_preparation(build(x, cfg))
    assert out.success_probability >= 25 / 32 - 1e-12
    assert out.success_probability == pytest.approx(25 / 32, abs=1e-3)
    fast = fast_path_prepare(x, cfg)
    assert fast.success_probability == pytest.approx(out.success_probability, abs=1e-12)


def test_probabilistic_register_layout():
    x = TargetVector.from_magnitudes([1, 2, 3, 4])
    result = build(x, PrecisionConfig(6, 4, PROBABILISTIC))
    assert result.circuit.num_qubits == 6 + 2 + 1
    assert result.registers.ancilla == 8


def test_probabilistic_distance_bound_example():
    x = TargetVector.from_magnitudes([1, 2, 3, 4])
    out = simulate_preparation(build(x, PrecisionConfig(12, 4, PROBABILISTIC)))
    distance = np.linalg.norm(out.amplitudes - x.amplitudes())
    assert distance <= (1 << 5) * math.pi / (1 << 13) + 1e-12


def test_probabilistic_success_never_below_lower_bound():
    rng = np.random.default_rng(66)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        magnitudes = np.abs(rng.standard_normal(1 << n))
        x = TargetVector.from_magnitudes(magnitudes)
        out = simulate_preparation(build(x, PrecisionConfig(7, 1, PROBABILISTIC)))
        lower = np.sum(magnitudes ** 2) / ((1 << n) * np.max(magnitudes) ** 2)
        assert out.success_probability >= lower - 1e-12


def test_vectors_with_zero_components_run_clean():
    rng = np.random.default_rng(12)
    for mode in (DETERMINISTIC, PROBABILISTIC):
        magnitudes = np.array([0.0, 1.3, 0.0, 0.7, 0.0, 0.0, 2.1, 0.0])
        x = TargetVector.from_magnitudes(magnitudes)
        out = simulate_preparation(build(x, PrecisionConfig(8, 1, mode)))
        distance = np.linalg.norm(out.amplitudes - x.amplitudes())
        if mode == DETERMINISTIC:
            bound = 2 * math.sqrt(2) * math.pi / (1 << 7)
        else:
            bound = (1 << 7) * math.pi / (1 << 9)
        assert distance <= bound + 1e-12
        assert out.estimation_residual < 1e-10


def test_phase_stage_trivial_for_zero_phases():
    x = TargetVector.from_magnitudes([1, 1, 1, 1])
    assert build_phase_stage(x, 6) == ()


def test_phase_stage_exact_grid_point_is_single_z():
    x = TargetVector(1, np.array([1.0, 1.0]), np.array([0.0, math.pi]))
    assert build_phase_stage(x, 1) == (ControlledZPow(1, (0,)),)


def test_phase_stage_quantization_error_per_entry():
    phases = np.array([0.0, math.pi / 3, 0.0, 0.0])
    x = TargetVector(2, np.ones(4), phases)
    spec = quantize(phases, 8)
    applied = reconstruct(peel_synthesize(spec))
    for target, got in zip(phases, applied.angles()):
        assert 0.0 <= target - got < TAU / (1 << 8)


def test_phase_stage_applies_quantized_phases_including_entry_zero():
    phases = np.array([1.0, 2.0, 3.0, 4.0])
    x = TargetVector(2, np.ones(4), phases)
    circuit = Circuit(2, build_phase_stage(x, 10))
    uniform = StateVector(np.full(4, 0.5, dtype=complex))
    out = apply_circuit(uniform, circuit)
    expected = 0.5 * np.exp(1j * np.array(quantize(phases, 10).angles()))
    assert np.allclose(out.amplitudes, expected, atol=1e-12)


def test_fast_path_basis_vector():
    x = TargetVector.from_magnitudes([0, 0, 1, 0])
    out = fast_path_prepare(x, PrecisionConfig(6, 4))
    assert np.allclose(out.amplitudes, [0, 0, 1, 0], atol=1e-12)


def test_fast_path_matches_circuit_on_dyadic_angles():
    # Build a target whose branch angles sit exactly on the estimation grid,
    # so both paths realize identical rotations.
    t, c = 5, 2
    root = TAU * 3 / (c * (1 << t))
    level1 = [TAU * 5 / (c * (1 << t)), TAU * 9 / (c * (1 << t))]
    amps = np.array([
        math.cos(root) * math.cos(level1[0]),
        math.cos(root) * math.sin(level1[0]),
        math.sin(root) * math.cos(level1[1]),
        math.sin(root) * math.sin(level1[1]),
    ])
    x = TargetVector.from_magnitudes(amps)
    cfg = PrecisionConfig(t, 4)
    full = simulate_preparation(build(x, cfg))
    fast = fast_path_prepare(x, cfg)
    assert np.max(np.abs(full.amplitudes - fast.amplitudes)) < 1e-9
    assert np.max(np.abs(fast.amplitudes - amps)) < 1e-9


def test_fast_path_matches_circuit_probabilistic():
    rng = np.random.default_rng(81)
    magnitudes = np.abs(rng.standard_normal(8))
    phases = rng.uniform(0, TAU / 2, 8)
    x = TargetVector(3, magnitudes, phases)
    cfg = PrecisionConfig(7, 5, PROBABILISTIC)
    full = simulate_preparation(build(x, cfg))
    fast = fast_path_prepare(x, cfg)
    assert np.max(np.abs(full.amplitudes - fast.amplitudes)) < 1e-9


def test_fast_path_matches_circuit_deterministic_generic():
    rng = np.random.default_rng(82)
    x = TargetVector(3, np.abs(rng.standard_normal(8)), rng.uniform(0, 6.0, 8))
    cfg = PrecisionConfig(8, 6)
    full = simulate_preparation(build(x, cfg))
    fast = fast_path_prepare(x, cfg)
    assert np.max(np.abs(full.amplitudes - fast.amplitudes)) < 1e-9


def test_end_to_end_with_phases_meets_epsilon():
    rng = np.random.default_rng(90)
    x = TargetVector(2, np.abs(rng.standard_normal(4)), rng.uniform(0, 6.0, 4))
    for mode in (DETERMINISTIC, PROBABILISTIC):
        cfg = required_precision(2, 0.1, mode)
        out = simulate_preparation(build(x, cfg))
        assert np.linalg.norm(out.amplitudes - x.amplitudes()) <= 0.1


def test_build_dispatch():
    x = TargetVector.from_magnitudes([1, 2])
    assert build(x, PrecisionConfig(4, 2)).registers.ancilla is None
    assert build(x, PrecisionConfig(4, 2, PROBABILISTIC)).registers.ancilla == 5


def _describe(gate):
    if isinstance(gate, Hadamard):
        return ("H", gate.target)
    if isinstance(gate, RotationY):
        return ("RY", gate.target, gate.controls, gate.angle)
    if isinstance(gate, DiagonalOracle):
        return ("DIAG", gate.register, gate.phases, gate.power, gate.controls)
    if isinstance(gate, QFTBlock):
        return ("QFT", gate.register, gate.inverse)
    return (type(gate).__name__,)


def _expected_round(estimation, register, estimates, target, multiplier):
    t = len(estimation)
    phases = tuple(TAU * int(y) / (1 << t) for y in estimates)
    oracles = [(e, 1 << (t - 1 - s)) for s, e in enumerate(estimation)]
    return ([("H", q) for q in estimation]
            + [("DIAG", register, phases, power, (e,)) for e, power in oracles]
            + [("QFT", estimation, True)]
            + [("RY", target, (e,), TAU / (multiplier << s))
               for s, e in enumerate(estimation)]
            + [("QFT", estimation, False)]
            + [("DIAG", register, phases, -power, (e,)) for e, power in reversed(oracles)]
            + [("H", q) for q in estimation])


@pytest.mark.parametrize("mode", [DETERMINISTIC, PROBABILISTIC])
def test_build_gate_order(mode):
    n, t = (3, 3) if mode == DETERMINISTIC else (2, 3)
    rng = np.random.default_rng(17)
    x = TargetVector(n, np.abs(rng.standard_normal(1 << n)), rng.uniform(0, 6.0, 1 << n))
    cfg = PrecisionConfig(t, 4, mode)
    root, estimates = compute_angles(x, cfg)
    result = build(x, cfg)
    estimation, data = tuple(range(t)), tuple(range(t, t + n))
    if mode == DETERMINISTIC:
        expected = [("RY", data[0], (), 2.0 * root)]
        for k in range(1, n):
            expected += _expected_round(estimation, data[:k], estimates[k - 1], data[k], 2)
    else:
        expected = [("H", q) for q in data]
        expected += _expected_round(estimation, data, estimates[0], t + n, 4)
    phase_stage = result.circuit.gates[result.phase_start:]
    assert phase_stage  # random phases need a nonempty diagonal
    assert result.phase_start == len(expected)
    assert result.ladder_end == (None if mode == DETERMINISTIC else n + 3 * t + 1)
    assert [_describe(g) for g in result.circuit.gates[:len(expected)]] == expected
    assert phase_stage == reference_phase_stage(x, cfg.phase_bits, data)
    assert all(set(gate_qubits(g)) <= set(data) for g in phase_stage)


@pytest.mark.parametrize("mode", [DETERMINISTIC, PROBABILISTIC])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_build_records_its_stage_boundaries(mode, n):
    # The recorded indices fall where the gates themselves say: the ladder
    # ends at the ancilla's last gate, the uncompute's QFT follows it, and
    # the phase stage is the synthesized diagonal on the data qubits.
    rng = np.random.default_rng(n)
    x = TargetVector(n, np.abs(rng.standard_normal(1 << n)), rng.uniform(0.0, TAU, 1 << n))
    cfg = PrecisionConfig(4, 5, mode)
    built = build(x, cfg)
    gates, registers = built.circuit.gates, built.registers
    if mode == DETERMINISTIC:
        assert built.ladder_end is None
    else:
        touching = [i for i, g in enumerate(gates) if registers.ancilla in gate_qubits(g)]
        assert built.ladder_end - 1 == touching[-1]
        assert gates[built.ladder_end] == QFTBlock(registers.estimation, inverse=False)
    assert gates[built.phase_start:] == build_phase_stage(x, cfg.phase_bits, registers.data)


@pytest.mark.parametrize("mode, magnitudes", [
    (DETERMINISTIC, [0.6, 0.8]),  # the root rotation only
    (DETERMINISTIC, [0.3, 1.0, 0.55, 0.8]),  # one round
    (DETERMINISTIC, [0.0, 1.3, 0.0, 0.7, 0.0, 0.0, 2.1, 0.0]),
    (DETERMINISTIC, [1.2, 0.1, 0.9, 0.4, 0.3, 1.0, 0.55, 0.8]),
    (PROBABILISTIC, [0.6, 0.8]),
    (PROBABILISTIC, [0.0, 0.7]),  # one data qubit, one amplitude zero
    (PROBABILISTIC, [0.0, 1.0, 0.55, 0.8]),
    (PROBABILISTIC, [0.0, 1.3, 0.0, 0.7, 0.0, 0.0, 2.1, 0.0]),
    (PROBABILISTIC, [1.2, 0.1, 0.9, 0.4, 0.3, 1.0, 0.55, 0.8]),
])
def test_factored_simulation_is_the_flat_one(mode, magnitudes):
    # simulate_preparation runs each stage on the qubits touched so far and
    # the phase stage on the data qubits alone; the flat run keeps every qubit
    # from the first gate to the last.
    rng = np.random.default_rng(len(magnitudes))
    phases = rng.uniform(0.0, TAU, len(magnitudes))
    x = TargetVector(len(magnitudes).bit_length() - 1, np.array(magnitudes), phases)
    built = build(x, PrecisionConfig(6, 5, mode))
    prepared = simulate_preparation(built)
    amplitudes, success, residual = flat_preparation(built)
    assert np.max(np.abs(prepared.amplitudes - amplitudes)) < 1e-12
    assert prepared.success_probability == pytest.approx(success, abs=1e-12)
    assert prepared.estimation_residual == pytest.approx(residual, abs=1e-12)
    if mode == PROBABILISTIC:
        assert success < 1.0 - 1e-3  # the ancilla's 1 branch was really dropped


def test_hadamard_pairs_on_one_qubit_cancel():
    h0, h1 = Hadamard(0), Hadamard(1)
    assert _cancel_hadamard_pairs([h0, h1, Hadamard(0)]) == (h1,)
    assert _cancel_hadamard_pairs([h0, h0, h0, h1, h1]) == (h0,)
    # Only inside a run: a gate between two Hadamards keeps both.
    assert _cancel_hadamard_pairs([h0, PauliX(0), h0]) == (h0, PauliX(0), h0)


def test_a_run_without_a_repeated_qubit_is_kept_as_it_is():
    run = [Hadamard(0), Hadamard(1)]
    kept = _cancel_hadamard_pairs(run)
    assert kept == tuple(run) and all(a is b for a, b in zip(kept, run))


@pytest.mark.parametrize("mode, n, simulated", [
    (DETERMINISTIC, 4, 5),  # the first round's opening Hadamards
    (PROBABILISTIC, 2, 2 + 5),  # the data qubits' and the round's opening ones
])
def test_only_hadamards_that_act_are_simulated(monkeypatch, mode, n, simulated):
    import qprep.sim

    ran = []
    original = qprep.sim.apply_gate

    def counted(state, gate):
        if isinstance(gate, Hadamard):
            ran.append(gate)
        return original(state, gate)

    monkeypatch.setattr(qprep.sim, "apply_gate", counted)
    rng = np.random.default_rng(n)
    x = TargetVector(n, np.abs(rng.standard_normal(1 << n)), rng.uniform(0.0, TAU, 1 << n))
    built = build(x, PrecisionConfig(5, 4, mode))
    built_count = sum(isinstance(g, Hadamard) for g in built.circuit.gates)
    prepared = simulate_preparation(built)
    assert len(ran) == simulated < built_count
    assert np.max(np.abs(prepared.amplitudes - flat_preparation(built)[0])) < 1e-12


def _det_round_hadamards(built):
    """Where each deterministic round's closing Hadamards start, in order."""
    gates, t = built.circuit.gates, len(built.registers.estimation)
    closing = []
    for i in range(len(gates) - t + 1):
        if isinstance(gates[i], DiagonalOracle) and gates[i].power == -(1 << (t - 1)):
            closing.append(i + 1)
    return closing


@pytest.mark.parametrize("defect", ["moved-last", "moved-between", "dropped-between"])
def test_a_misplaced_hadamard_is_simulated_and_leaks(defect):
    # One closing Hadamard of a round put on a data qubit, or dropped: the
    # estimation register no longer uncomputes, and the simulation sees it.
    rng = np.random.default_rng(7)
    x = TargetVector(3, np.abs(rng.standard_normal(8)), np.zeros(8))
    built = build(x, PrecisionConfig(5, 4))
    gates = list(built.circuit.gates)
    first, last = _det_round_hadamards(built)
    at = (last if defect == "moved-last" else first) + 2
    assert gates[at] == Hadamard(2)
    if defect == "dropped-between":
        del gates[at]
        phase_start = built.phase_start - 1
    else:
        gates[at] = Hadamard(built.registers.data[0])
        phase_start = built.phase_start
    broken = dataclasses.replace(built, circuit=Circuit(built.circuit.num_qubits, tuple(gates)),
                                 phase_start=phase_start)
    assert flat_preparation(broken)[2] > 0.1
    with pytest.raises(LeakageError):
        simulate_preparation(broken)


def test_simulation_peak_is_the_widest_stage():
    # 18 qubits in each mode: the peak stays within the
    # SIMULATION_BYTES_PER_AMPLITUDE figure the memory refusal asks for, so
    # no earlier stage's state is kept alive next to the widest one; and the
    # worse mode peaks within 1 B per amplitude of it, so the refusal does
    # not ask for more than a simulation takes.
    peaks = []
    for mode, n, t in ((PROBABILISTIC, 4, 13), (DETERMINISTIC, 6, 12)):
        rng = np.random.default_rng(n)
        x = TargetVector(n, np.abs(rng.standard_normal(1 << n)),
                         rng.uniform(0.0, TAU, 1 << n))
        built = build(x, PrecisionConfig(t, 8, mode))
        assert built.circuit.num_qubits == 18
        tracemalloc.start()
        try:
            simulate_preparation(built)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[-1] <= (SIMULATION_BYTES_PER_AMPLITUDE << 18) + (1 << 20), mode
    assert max(peaks) >= (SIMULATION_BYTES_PER_AMPLITUDE - 1) << 18, peaks


def test_qft_registers_lead_the_state(monkeypatch):
    # SIMULATION_BYTES_PER_AMPLITUDE counts no QFT copy: every Fourier block
    # a full simulation runs acts on the leading held qubits in order, so its
    # FFT writes over a view of the state.  Whoever changes that revisits
    # the memory rule.
    import qprep.sim

    registers = []
    original = qprep.sim._apply_qft

    def recorded(psi, register, inverse):
        registers.append(tuple(register))
        return original(psi, register, inverse)

    monkeypatch.setattr(qprep.sim, "_apply_qft", recorded)
    for mode in (DETERMINISTIC, PROBABILISTIC):
        for n in range(1, 6):
            rng = np.random.default_rng(n)
            x = TargetVector(n, np.abs(rng.standard_normal(1 << n)),
                             rng.uniform(0.0, TAU, 1 << n))
            built = build(x, PrecisionConfig(5, 4, mode))
            blocks = sum(isinstance(g, QFTBlock) for g in built.circuit.gates)
            before = len(registers)
            simulate_preparation(built)
            assert len(registers) - before == blocks, (mode, n)
    # Two blocks a round: det runs n - 1 rounds, prob one.
    assert len(registers) == 2 * (0 + 1 + 2 + 3 + 4) + 2 * 5
    assert all(register == tuple(range(len(register))) for register in registers), registers


def test_package_attribute_is_the_prepare_module():
    import types

    import qprep.prepare as module

    assert isinstance(module, types.ModuleType)
    assert module.build is build
