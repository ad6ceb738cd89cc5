"""Acceptance suite: every analytic bound and construction at desk scale.

Each test prints one PASS line with its case count and elapsed time; the
stated runtime ceilings are asserted.
"""

import json
import math
import time

import numpy as np

from _util import extract_data_amplitudes
from qprep.analysis import (
    deterministic_distance_bound,
    probabilistic_distance_bound,
    random_target_vector,
    success_lower_bound,
)
from qprep.cli import main
from qprep.dyadic import PhaseSpec
from qprep.gateformat import load_circuit
from qprep.prepare import (
    DETERMINISTIC,
    PROBABILISTIC,
    PrecisionConfig,
    build,
    fast_path_prepare,
    required_precision,
    simulate_preparation,
)
from qprep.sim import (
    Circuit,
    DiagonalOracle,
    StateVector,
    apply_circuit,
    new_basis_state,
)
from qprep.synth import peel_synthesize, reconstruct, sparse_synthesize


def random_state(num_qubits, rng):
    v = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    return StateVector(v / np.linalg.norm(v))


def test_criterion_1_synthesis_exactness_exhaustive():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    probe = random_state(3, rng)
    for pattern in range(256):
        numerators = tuple((pattern >> i) & 1 for i in range(8))
        spec = PhaseSpec(1, numerators)
        result = peel_synthesize(spec)
        assert reconstruct(result) == spec
        via_gates = apply_circuit(probe, Circuit(3, result.product_gates()))
        via_oracle = apply_circuit(
            probe, Circuit(3, (DiagonalOracle((0, 1, 2), spec.angles()),)))
        assert np.max(np.abs(via_gates.amplitudes - via_oracle.amplitudes)) <= 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: exhaustive level-1 synthesis on 3 qubits "
          f"(256 cases, {elapsed:.2f}s)")


def test_criterion_2_synthesis_gate_bound():
    start = time.monotonic()
    rng = np.random.default_rng(102)
    for _ in range(500):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        spec = PhaseSpec(m, tuple(int(v) for v in rng.integers(0, 1 << m, 1 << n)))
        result = peel_synthesize(spec)
        assert len(result.gates) <= m * ((1 << n) - 1)
        assert reconstruct(result) == spec
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"PASS criterion 2: peel gate count within m*(2^n - 1) "
          f"(500 specs, {elapsed:.2f}s)")


def test_criterion_3_sparse_synthesis():
    start = time.monotonic()
    rng = np.random.default_rng(103)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        support_size = int(rng.integers(1, n + 1))
        support = [int(v) for v in rng.choice(1 << n, support_size, replace=False)]
        numerators = [0] * (1 << n)
        for index in support:
            numerators[index] = int(rng.integers(0, 1 << m))
        spec = PhaseSpec(m, tuple(numerators))
        result = sparse_synthesize(spec, support)
        assert reconstruct(result) == spec
        assert len(result.gates) <= support_size * (2 * n + m)
    # full-support cost grows quadratically: with m = n the count stays
    # within |support|*(2n+m) = 3n^2
    for n in range(2, 7):
        support = list(range(n))
        numerators = [0] * (1 << n)
        for index in support:
            numerators[index] = (1 << n) - 1
        spec = PhaseSpec(n, tuple(numerators))
        result = sparse_synthesize(spec, support)
        assert reconstruct(result) == spec
        assert len(result.gates) <= 3 * n * n
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"PASS criterion 3: sparse synthesis exact and O(n^2) at full support "
          f"(105 specs, {elapsed:.2f}s)")


def test_criterion_4_deterministic_distance_bound():
    start = time.monotonic()
    rng = np.random.default_rng(104)
    cases = 0
    for n in (2, 3):
        for _ in range(50):
            x = random_target_vector(n, rng, complex_phases=False)
            for t in (6, 8, 10):
                out = simulate_preparation(build(x, PrecisionConfig(t, 1)))
                distance = float(np.linalg.norm(out.amplitudes - x.amplitudes()))
                assert distance <= deterministic_distance_bound(n, t) + 1e-12
                cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"PASS criterion 4: deterministic error within (n-1)*sqrt(2)*pi/2^(t-1) "
          f"({cases} runs, {elapsed:.2f}s)")


def test_criterion_5_probabilistic_bounds():
    start = time.monotonic()
    rng = np.random.default_rng(105)
    cases = 0
    for n in (2, 3):
        for epsilon in (0.5, 0.1):
            t = 2 * n + math.ceil(math.log2(math.pi / epsilon))
            for _ in range(25):
                x = random_target_vector(n, rng, complex_phases=False)
                out = simulate_preparation(build(x, PrecisionConfig(t, 1, PROBABILISTIC)))
                assert out.success_probability >= success_lower_bound(x) - 1e-12
                distance = float(np.linalg.norm(out.amplitudes - x.amplitudes()))
                assert distance <= probabilistic_distance_bound(n, t) + 1e-12
                assert distance <= epsilon
                cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    print(f"PASS criterion 5: success probability and post-selected error bounds "
          f"({cases} runs, {elapsed:.2f}s)")


def test_criterion_6_end_to_end_with_phases():
    start = time.monotonic()
    rng = np.random.default_rng(106)
    cases = 0
    for mode in (DETERMINISTIC, PROBABILISTIC):
        for n in (2, 3):
            for epsilon in (0.5, 0.1):
                cfg = required_precision(n, epsilon, mode)
                for _ in range(50):
                    x = random_target_vector(n, rng)
                    out = simulate_preparation(build(x, cfg))
                    distance = float(np.linalg.norm(out.amplitudes - x.amplitudes()))
                    assert distance <= epsilon
                    cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"PASS criterion 6: end-to-end error at the prescribed widths "
          f"({cases} runs, {elapsed:.2f}s)")


def test_criterion_7_dual_path_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(107)
    cases = 0
    for trial in range(50):
        n = int(rng.integers(1, 4))
        x = random_target_vector(n, rng)
        for mode in (DETERMINISTIC, PROBABILISTIC):
            cfg = PrecisionConfig(8, 6, mode)
            full = simulate_preparation(build(x, cfg))
            fast = fast_path_prepare(x, cfg)
            assert np.max(np.abs(full.amplitudes - fast.amplitudes)) <= 1e-9
            assert full.estimation_residual < 1e-10
            cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"PASS criterion 7: fast path matches full simulation, register "
          f"uncomputes ({cases} runs, {elapsed:.2f}s)")


def test_criterion_8_cli_determinism_and_round_trip(tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(108)
    for mode, has_ancilla in (("det", False), ("prob", True)):
        vec_path = tmp_path / f"{mode}.json"
        magnitudes = np.abs(rng.standard_normal(4))
        phases = rng.uniform(0, 6.0, 4)
        vec_path.write_text(json.dumps({"n": 2, "entries": [
            {"magnitude": float(m), "phase": float(p)}
            for m, p in zip(magnitudes, phases)]}))
        outputs = []
        for tag in ("a", "b"):
            report_path = tmp_path / f"{mode}-{tag}.json"
            gates_path = tmp_path / f"{mode}-{tag}.gates"
            rc = main(["prepare", str(vec_path), "--mode", mode,
                       "--epsilon", "0.25", "--seed", "7",
                       "--report", str(report_path), "--emit", str(gates_path)])
            assert rc == 0
            outputs.append((report_path.read_bytes(), gates_path.read_bytes()))
        assert outputs[0] == outputs[1]

        report = json.loads(outputs[0][0])
        data_qubits, circuit = load_circuit(tmp_path / f"{mode}-a.gates")
        state = apply_circuit(new_basis_state(circuit.num_qubits, 0), circuit)
        resimulated = extract_data_amplitudes(state.amplitudes, data_qubits,
                                              has_ancilla)
        reported = np.array([complex(re, im)
                             for re, im in report["prepared_amplitudes"]])
        assert np.max(np.abs(resimulated - reported)) <= 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"PASS criterion 8: byte-identical reruns and gate-list round-trip "
          f"(2 modes, {elapsed:.2f}s)")
