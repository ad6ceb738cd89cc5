import csv
import dataclasses
import json
import math
from functools import partial

import numpy as np
import pytest

from qprep.analysis import (
    BOUND_SLACK,
    BoundReport,
    deterministic_distance_bound,
    deterministic_tight_bound,
    evaluate_bounds,
    overlap_fidelity,
    phase_stage_distance_bound,
    phase_stage_tight_bound,
    probabilistic_distance_bound,
    probabilistic_tight_bound,
    random_target_vector,
    state_distance,
    success_lower_bound,
    total_distance_bound,
)
from qprep.cli import _bounds_configs, _bounds_row, main
from qprep.dyadic import MAX_LEVEL
from qprep.prepare import (
    DETERMINISTIC,
    MAX_ESTIMATION_BITS,
    PROBABILISTIC,
    PrecisionConfig,
    RegisterMap,
    TargetVector,
    build_phase_stage,
    fast_path_prepare,
    required_precision,
)
from qprep.sim import StateVector, new_basis_state
from qprep.synth import count_gate_list


def random_state(num_qubits, rng):
    v = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    return StateVector(v / np.linalg.norm(v))


def test_state_distance_examples():
    zero, one = new_basis_state(1, 0), new_basis_state(1, 1)
    assert state_distance(zero, zero) == 0.0
    assert state_distance(zero, one) == pytest.approx(math.sqrt(2))
    flipped = StateVector(np.array([-1.0 + 0j, 0.0]))
    assert state_distance(zero, flipped) == pytest.approx(2.0)  # phase-sensitive
    with pytest.raises(ValueError):
        state_distance(zero, new_basis_state(2, 0))


def test_overlap_fidelity_examples():
    zero, one = new_basis_state(1, 0), new_basis_state(1, 1)
    assert overlap_fidelity(zero, zero) == pytest.approx(1.0)
    assert overlap_fidelity(zero, one) == 0.0
    rotated = StateVector(np.array([np.exp(1.7j), 0.0]))
    assert overlap_fidelity(zero, rotated) == pytest.approx(1.0)


def test_fidelity_distance_identity():
    rng = np.random.default_rng(44)
    for _ in range(50):
        a, b = random_state(3, rng), random_state(3, rng)
        d = state_distance(a, b)
        assert overlap_fidelity(a, b) >= 1.0 - d * d / 2.0 - 1e-10


def test_success_lower_bound_examples():
    assert success_lower_bound(TargetVector.from_magnitudes([1, 1, 1, 1])) == 1.0
    assert success_lower_bound(TargetVector.from_magnitudes([1, 0, 0, 0])) == 0.25
    assert success_lower_bound(TargetVector.from_magnitudes([3, 4])) == pytest.approx(25 / 32)


def test_success_lower_bound_is_one_only_for_flat_magnitudes():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = random_target_vector(3, rng)
        bound = success_lower_bound(x)
        assert 0.0 < bound <= 1.0
        if not np.allclose(x.magnitudes, x.magnitudes[0]):
            assert bound < 1.0


def test_bound_formulas():
    assert deterministic_distance_bound(3, 8) == pytest.approx(
        2 * math.sqrt(2) * math.pi / 128)
    assert probabilistic_distance_bound(2, 12) == pytest.approx(
        32 * math.pi / 8192)
    assert phase_stage_distance_bound(2, 8) == pytest.approx(4 * math.pi / 128)
    x = TargetVector.from_magnitudes([1, 2, 3, 4])
    cfg = PrecisionConfig(8, 6)
    assert total_distance_bound(x, cfg) == deterministic_distance_bound(2, 8)
    withphase = TargetVector(2, np.ones(4), np.array([0, 1.0, 0, 0]))
    assert total_distance_bound(withphase, cfg) == pytest.approx(
        deterministic_distance_bound(2, 8) + phase_stage_distance_bound(2, 6))


def _is_least_width(bound, width, epsilon):
    """``width`` is the smallest width whose ``bound`` is at most ``epsilon``."""
    return bound(width) <= epsilon and (width == 1 or bound(width - 1) > epsilon)


def _epsilons(rng):
    """Epsilons in (0, 1): uniform, log-uniform down to 1e-300, and exact
    powers of two, powers of ten and pi times powers of two."""
    drawn = [*rng.uniform(0.0, 1.0, 150), *10.0 ** -rng.uniform(0.0, 300.0, 100)]
    drawn += [2.0 ** -k for k in range(1, 60)] + [10.0 ** -k for k in range(1, 20)]
    drawn += [math.pi * 2.0 ** -k for k in range(2, 60)]
    return [epsilon for epsilon in drawn if 0.0 < epsilon < 1.0]


@pytest.mark.parametrize("mode", [DETERMINISTIC, PROBABILISTIC])
def test_required_precision_inverts_the_bounds(mode):
    # required_precision inverts the bounds in closed form, spending half of
    # epsilon on each stage: each width must be the least whose forward bound
    # fits its half, and a width past its limit is refused.
    mode_bound = (deterministic_distance_bound if mode == DETERMINISTIC
                  else probabilistic_distance_bound)
    epsilons = _epsilons(np.random.default_rng(1912))
    for n in range(1, 25):
        estimation, phase = partial(mode_bound, n), partial(phase_stage_distance_bound, n)
        for epsilon in epsilons:
            half = epsilon / 2
            try:
                cfg = required_precision(n, epsilon, mode)
            except ValueError:
                assert (estimation(MAX_ESTIMATION_BITS) > half
                        or phase(MAX_LEVEL) > half), (n, epsilon)
                continue
            assert _is_least_width(estimation, cfg.estimation_bits, half), (n, epsilon)
            assert _is_least_width(phase, cfg.phase_bits, half), (n, epsilon)


def test_bounds_suite_probabilistic_widths_are_the_least_meeting_epsilon():
    for n in range(1, 30):
        fixed, _ = _bounds_configs(n)
        widths = [cfg.estimation_bits for cfg in fixed if cfg.mode == PROBABILISTIC]
        for epsilon, width in zip((0.5, 0.1), widths, strict=True):
            assert _is_least_width(partial(probabilistic_distance_bound, n), width,
                                   epsilon), (n, epsilon)


def test_evaluate_bounds_deterministic():
    rng = np.random.default_rng(10)
    x = random_target_vector(2, rng)
    cfg = required_precision(2, 0.1, DETERMINISTIC)
    report = evaluate_bounds(x, cfg, epsilon=0.1)
    assert report.satisfied
    assert report.measured_distance <= 0.1 + BOUND_SLACK
    assert report.measured_success_probability is None
    assert report.built.circuit.num_qubits == RegisterMap.layout(2, cfg).num_qubits


def test_evaluate_bounds_probabilistic_uniform():
    x = TargetVector.from_magnitudes([1, 1, 1, 1])
    report = evaluate_bounds(x, PrecisionConfig(6, 1, PROBABILISTIC))
    assert report.satisfied
    assert report.measured_success_probability == pytest.approx(1.0, abs=1e-12)
    assert report.success_lower_bound == pytest.approx(1.0)


def test_evaluate_bounds_probabilistic_with_phases():
    rng = np.random.default_rng(20)
    x = random_target_vector(2, rng)
    cfg = required_precision(2, 0.5, PROBABILISTIC)
    report = evaluate_bounds(x, cfg, epsilon=0.5)
    assert report.satisfied
    # the phase stage synthesized something
    assert report.built.phase_start < len(report.built.circuit.gates)


def test_mean_distance_decreases_with_estimation_width():
    rng = np.random.default_rng(99)
    vectors = [random_target_vector(2, rng, complex_phases=False)
               for _ in range(50)]
    means = []
    for t in (6, 8, 10):
        means.append(np.mean([evaluate_bounds(x, PrecisionConfig(t, 1)).measured_distance
                              for x in vectors]))
    assert means[0] > means[1] > means[2]


_ROW_COLUMNS = ["suite", "config", "measured_distance", "theoretical_bound",
                "measured_success_probability", "success_lower_bound", "gate_counts",
                "satisfied", "seed"]


def test_verify_bounds_rows_as_csv_and_json_lines(tmp_path, capsys):
    csv_path, json_path = tmp_path / "rows.csv", tmp_path / "rows.jsonl"
    for path in (csv_path, json_path):
        assert main(["verify", "--suite", "bounds", "--n", "2", "--trials", "2",
                     "--seed", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    assert csv_path.read_text().splitlines()[0] == ",".join(_ROW_COLUMNS)
    with open(csv_path, newline="") as handle:
        csv_rows = list(csv.DictReader(handle))
    json_rows = [json.loads(line) for line in json_path.read_text().splitlines()]
    fixed, by_epsilon = _bounds_configs(2)
    cells = [(cfg, None) for cfg in fixed] + [(cfg, 0.5) for cfg in by_epsilon]
    assert len(csv_rows) == len(json_rows) == 2 * len(cells)
    for index, (csv_row, json_row) in enumerate(zip(csv_rows, json_rows)):
        cfg, epsilon = cells[index % len(cells)]
        config = json.loads(csv_row["config"])
        # The CSV keeps the config's keys in the order they are built.
        assert list(config.items()) == [
            ("n", 2), ("t", cfg.estimation_bits), ("t_prime", cfg.phase_bits),
            ("mode", cfg.mode), ("angle_multiplier", cfg.angle_multiplier),
            ("epsilon", epsilon)]
        assert sorted(json_row) == sorted(_ROW_COLUMNS)
        assert json_row["config"] == config
        assert json_row["suite"] == csv_row["suite"] == "bounds"
        assert json_row["seed"] == int(csv_row["seed"]) == index // len(cells)
        assert json.loads(csv_row["gate_counts"]) == json_row["gate_counts"]
        assert json_row["satisfied"] is True and csv_row["satisfied"] == "True"


def test_random_target_vector_properties():
    rng = np.random.default_rng(0)
    x = random_target_vector(3, rng)
    assert np.any(x.magnitudes > 0)
    assert np.all(x.magnitudes >= 0)
    assert np.all((x.phases >= 0) & (x.phases < 2 * math.pi))
    real = random_target_vector(2, rng, complex_phases=False)
    assert np.all(real.phases == 0)


@pytest.mark.parametrize("mode", [DETERMINISTIC, PROBABILISTIC])
@pytest.mark.parametrize("fast_path", [False, True])
def test_evaluate_bounds_synthesizes_the_phase_stage_once(monkeypatch, mode, fast_path):
    import qprep.prepare

    calls = []
    original = qprep.prepare.peel_synthesize

    def counted(spec, *args):
        calls.append(spec)
        return original(spec, *args)

    monkeypatch.setattr(qprep.prepare, "peel_synthesize", counted)
    x = random_target_vector(2, np.random.default_rng(5))
    evaluate_bounds(x, PrecisionConfig(6, 4, mode), fast_path=fast_path)
    assert len(calls) == 1


@pytest.mark.parametrize("mode", [DETERMINISTIC, PROBABILISTIC])
def test_bounds_row_counts_the_phase_stage(mode):
    x = random_target_vector(2, np.random.default_rng(5))
    cfg = PrecisionConfig(6, 4, mode)
    row = _bounds_row(x, cfg, None, 0)
    stage = build_phase_stage(x, cfg.phase_bits, RegisterMap.layout(2, cfg).data)
    counts = {tuple(map(int, key.split(","))): count
              for key, count in row["gate_counts"].items()}
    assert counts == count_gate_list(stage) != {}
    assert list(row["gate_counts"]) == [f"{k},{l}" for k, l in sorted(counts)]


def test_bound_report_holds_only_what_was_built_and_measured():
    assert [field.name for field in dataclasses.fields(BoundReport)] == [
        "built", "amplitudes", "measured_distance", "overlap_fidelity",
        "theoretical_bound", "satisfied", "measured_success_probability",
        "success_lower_bound", "estimation_residual"]
    report = evaluate_bounds(TargetVector.from_magnitudes([1, 2]),
                             PrecisionConfig(4, 1, PROBABILISTIC), fast_path=True)
    assert report.estimation_residual is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.satisfied = False


@pytest.mark.parametrize("route", ["--fast-path", "--full-circuit"])
@pytest.mark.parametrize("mode", ["det", "prob"])
def test_prepare_counts_no_gates(tmp_path, monkeypatch, capsys, route, mode):
    import qprep.analysis
    import qprep.cli
    import qprep.synth

    calls = []

    def counted(gates):
        calls.append(gates)
        return count_gate_list(gates)

    for module in (qprep.analysis, qprep.cli, qprep.synth):
        if hasattr(module, "count_gate_list"):
            monkeypatch.setattr(module, "count_gate_list", counted)
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"n": 2, "entries": [
        {"magnitude": m, "phase": p} for m, p in ((1, 0.5), (2, 0), (3, 1), (4, 2))]}))
    assert main(["prepare", str(path), "--mode", mode, "--epsilon", "0.5", route,
                 "--emit", str(tmp_path / "gates.txt")]) == 0
    capsys.readouterr()
    assert calls == []
    assert main(["verify", "--suite", "bounds", "--n", "2", "--trials", "1"]) == 0
    capsys.readouterr()
    assert len(calls) == 7


def test_tight_bound_formulas():
    assert probabilistic_tight_bound(4, 10) == pytest.approx(4 * math.pi / 1024)
    assert probabilistic_tight_bound(3, 10) == pytest.approx(math.sqrt(8) * math.pi / 1024)
    assert deterministic_tight_bound(3, 8, 2) == pytest.approx(2 * 2 * math.pi / 512)
    assert deterministic_tight_bound(5, 6, 4) == pytest.approx(4 * 2 * math.pi / 256)
    assert phase_stage_tight_bound(7) == pytest.approx(2 * math.pi / 128)
    # Each is the paper's bound divided by a fixed factor.
    for n, t in ((2, 9), (6, 13)):
        assert probabilistic_distance_bound(n, t) == pytest.approx(
            2 ** (1.5 * n) * probabilistic_tight_bound(n, t))
        assert deterministic_distance_bound(n, t) == pytest.approx(
            2 * math.sqrt(2) * deterministic_tight_bound(n, t, 2))
        assert phase_stage_distance_bound(n, t) == pytest.approx(
            2 ** n * phase_stage_tight_bound(t))


# The full circuit up to this many qubits; the fast path beyond.
_FULL_CIRCUIT_QUBITS = 18


def _bound_vectors(n, rng):
    """A random, a one-hot and a near-flat magnitude vector on n qubits."""
    size = 1 << n
    one_hot = np.zeros(size)
    one_hot[rng.integers(size)] = 1.0
    near_flat = 1.0 + 1e-3 * rng.uniform(-1.0, 1.0, size)
    return [np.abs(rng.standard_normal(size)), one_hot, near_flat]


def _magnitude_tight_bound(n, cfg):
    if cfg.mode == DETERMINISTIC:
        return deterministic_tight_bound(n, cfg.estimation_bits, cfg.angle_multiplier)
    return probabilistic_tight_bound(n, cfg.estimation_bits)


@pytest.mark.parametrize("mode", [DETERMINISTIC, PROBABILISTIC])
def test_measured_distance_is_within_the_tight_bounds(mode):
    # Real vectors measure the magnitude term alone; the same magnitudes with
    # random phases measure both terms, which add.
    rng = np.random.default_rng(2019)
    for n in range(1, 11):
        for epsilon in (0.5, 0.1):
            cfg = required_precision(n, epsilon, mode)
            fast_path = RegisterMap.layout(n, cfg).num_qubits > _FULL_CIRCUIT_QUBITS
            magnitude = _magnitude_tight_bound(n, cfg)
            total = magnitude + phase_stage_tight_bound(cfg.phase_bits)
            for magnitudes in _bound_vectors(n, rng):
                phases = rng.uniform(0.0, 2 * math.pi, 1 << n)
                for x, bound in ((TargetVector.from_magnitudes(magnitudes), magnitude),
                                 (TargetVector(n, magnitudes, phases), total)):
                    report = evaluate_bounds(x, cfg, fast_path=fast_path)
                    assert report.measured_distance <= bound + BOUND_SLACK, (n, epsilon)


def test_phase_term_is_within_its_tight_bound():
    # The phase stage's own error: the prepared state against the state
    # prepared without phases, given the exact target phases.
    rng = np.random.default_rng(2020)
    for n in range(1, 11):
        for magnitudes in _bound_vectors(n, rng):
            phases = rng.uniform(0.0, 2 * math.pi, 1 << n)
            for mode in (DETERMINISTIC, PROBABILISTIC):
                for phase_bits in (2, 5, 9):
                    cfg = PrecisionConfig(8, phase_bits, mode)
                    prepared = fast_path_prepare(TargetVector(n, magnitudes, phases), cfg)
                    unphased = fast_path_prepare(TargetVector.from_magnitudes(magnitudes), cfg)
                    term = np.linalg.norm(prepared.amplitudes
                                          - unphased.amplitudes * np.exp(1j * phases))
                    assert term <= phase_stage_tight_bound(phase_bits) + BOUND_SLACK


@pytest.mark.parametrize("n", [2, 3, 6, 10])
def test_one_hot_vector_reaches_the_tight_probabilistic_bound(n):
    # Every other index keeps sin(pi / 2^(t+1)): the distance is about half
    # the bound, so the bound is tight and not only valid.
    x = TargetVector.from_magnitudes(np.eye(1 << n)[1])
    cfg = required_precision(n, 0.1, PROBABILISTIC)
    fast_path = RegisterMap.layout(n, cfg).num_qubits > _FULL_CIRCUIT_QUBITS
    report = evaluate_bounds(x, cfg, fast_path=fast_path)
    bound = probabilistic_tight_bound(n, cfg.estimation_bits)
    assert 0.4 * bound <= report.measured_distance <= bound
