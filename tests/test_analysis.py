import csv
import json
import math
from functools import partial

import numpy as np
import pytest

from qprep.analysis import (
    BOUND_SLACK,
    deterministic_distance_bound,
    evaluate_bounds,
    overlap_fidelity,
    phase_stage_distance_bound,
    probabilistic_distance_bound,
    random_target_vector,
    state_distance,
    success_lower_bound,
    sweep,
    total_distance_bound,
    write_rows,
)
from qprep.cli import _bounds_configs
from qprep.dyadic import MAX_LEVEL
from qprep.prepare import (
    DETERMINISTIC,
    MAX_ESTIMATION_BITS,
    PROBABILISTIC,
    PrecisionConfig,
    TargetVector,
    required_precision,
)
from qprep.sim import StateVector, new_basis_state
from qprep.synth import count_gate_list


def random_state(num_qubits, rng):
    v = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    return StateVector(num_qubits, v / np.linalg.norm(v))


def test_state_distance_examples():
    zero, one = new_basis_state(1, 0), new_basis_state(1, 1)
    assert state_distance(zero, zero) == 0.0
    assert state_distance(zero, one) == pytest.approx(math.sqrt(2))
    flipped = StateVector(1, np.array([-1.0 + 0j, 0.0]))
    assert state_distance(zero, flipped) == pytest.approx(2.0)  # phase-sensitive
    with pytest.raises(ValueError):
        state_distance(zero, new_basis_state(2, 0))


def test_overlap_fidelity_examples():
    zero, one = new_basis_state(1, 0), new_basis_state(1, 1)
    assert overlap_fidelity(zero, zero) == pytest.approx(1.0)
    assert overlap_fidelity(zero, one) == 0.0
    rotated = StateVector(1, np.array([np.exp(1.7j), 0.0]))
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
    for n in range(1 if mode == PROBABILISTIC else 2, 25):
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
    for n in range(2, 30):
        fixed, _ = _bounds_configs(n)
        widths = [cfg.estimation_bits for cfg in fixed if cfg.mode == PROBABILISTIC]
        for epsilon, width in zip((0.5, 0.1), widths, strict=True):
            assert _is_least_width(partial(probabilistic_distance_bound, n), width,
                                   epsilon), (n, epsilon)


def test_evaluate_bounds_deterministic():
    rng = np.random.default_rng(10)
    x = random_target_vector(2, rng)
    cfg = required_precision(2, 0.1, DETERMINISTIC)
    report = evaluate_bounds(x, cfg, epsilon=0.1, seed=10)
    assert report.satisfied
    assert report.measured_distance <= 0.1 + BOUND_SLACK
    assert report.measured_success_probability is None
    assert report.config["mode"] == DETERMINISTIC
    assert report.seed == 10


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
    assert report.gate_counts  # phase stage synthesized something


def test_sweep_single_cell_matches_evaluate():
    rng = np.random.default_rng(1)
    x = random_target_vector(2, rng, complex_phases=False)
    reports = list(sweep([x], [6], [1], [DETERMINISTIC], seeds=[7]))
    single = evaluate_bounds(x, PrecisionConfig(6, 1), seed=7)
    assert len(reports) == 1
    assert reports[0].measured_distance == single.measured_distance
    assert reports[0].seed == 7


def test_sweep_empty_vectors_and_bad_grid():
    assert list(sweep([], [6], [1], [DETERMINISTIC])) == []
    with pytest.raises(ValueError):
        list(sweep([], [], [1], [DETERMINISTIC]))


def test_sweep_grid_order_and_satisfaction():
    rng = np.random.default_rng(14)
    vectors = [random_target_vector(2, rng, complex_phases=False) for _ in range(3)]
    reports = list(sweep(vectors, [6, 8], [1], [DETERMINISTIC]))
    assert len(reports) == 6
    ts = [r.config["t"] for r in reports]
    assert ts == [6, 8, 6, 8, 6, 8]
    assert all(r.satisfied for r in reports)


def test_sweep_records_cell_failures_and_continues():
    rng = np.random.default_rng(15)
    x = random_target_vector(2, rng)
    reports = list(sweep([x], [0, 6], [4], [DETERMINISTIC]))
    assert len(reports) == 2
    assert reports[0].error is not None and not reports[0].satisfied
    assert reports[1].error is None


def test_mean_distance_decreases_with_estimation_width():
    rng = np.random.default_rng(99)
    vectors = [random_target_vector(2, rng, complex_phases=False)
               for _ in range(50)]
    means = []
    for t in (6, 8, 10):
        reports = sweep(vectors, [t], [1], [DETERMINISTIC])
        means.append(np.mean([r.measured_distance for r in reports]))
    assert means[0] > means[1] > means[2]


def test_report_serialization(tmp_path):
    rng = np.random.default_rng(3)
    x = random_target_vector(2, rng)
    report = evaluate_bounds(x, required_precision(2, 0.5, PROBABILISTIC),
                             epsilon=0.5, seed=3)
    record = report.to_json_dict()
    assert list(record) == ["config", "measured_distance", "theoretical_bound",
                            "measured_success_probability", "success_lower_bound",
                            "gate_counts", "satisfied", "seed"]
    json_path = tmp_path / "reports.jsonl"
    write_rows(json_path, [record])
    lines = json_path.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["satisfied"] is True

    csv_path = tmp_path / "reports.csv"
    write_rows(csv_path, [record])
    header = csv_path.read_text().splitlines()[0]
    assert header == ("config,measured_distance,theoretical_bound,"
                      "measured_success_probability,success_lower_bound,"
                      "gate_counts,satisfied,seed")
    with open(csv_path, newline="") as handle:
        row = next(csv.DictReader(handle))
    assert json.loads(row["config"])["mode"] == PROBABILISTIC


def test_random_target_vector_properties():
    rng = np.random.default_rng(0)
    x = random_target_vector(3, rng)
    assert np.any(x.magnitudes > 0)
    assert np.all(x.magnitudes >= 0)
    assert np.all((x.phases >= 0) & (x.phases < 2 * math.pi))
    real = random_target_vector(2, rng, complex_phases=False)
    assert np.all(real.phases == 0)


def test_sweep_is_lazy():
    rng = np.random.default_rng(4)
    x = random_target_vector(2, rng, complex_phases=False)
    iterator = sweep([x], [6], [1], [DETERMINISTIC])
    first = next(iterator)
    assert first.config["t"] == 6


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
    report = evaluate_bounds(x, PrecisionConfig(6, 4, mode), fast_path=fast_path)
    assert len(calls) == 1
    assert report.gate_counts == count_gate_list(original(calls[0]).gates)
