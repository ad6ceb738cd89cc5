import math

import numpy as np
import pytest

from qprep.dyadic import MAX_LEVEL, TAU, PhaseSpec, floor_fraction, quantize


def test_quantize_grid_points_map_to_themselves():
    spec = quantize([0.0, math.pi], 1)
    assert spec.numerators == (0, 1)
    assert spec.num_qubits == 1
    assert spec.level == 1


def test_quantize_floors_not_rounds():
    # floor(0.9*pi * 4 / 2*pi) = floor(1.8) = 1
    assert quantize([0.9 * math.pi, 0.0], 2).numerators[0] == 1


def test_quantize_just_below_full_turn_lands_on_last_cell():
    assert quantize([TAU - 1e-9, 0.0], 3).numerators[0] == 7


def test_quantize_rejects_out_of_range_angles():
    with pytest.raises(ValueError, match="outside"):
        quantize([TAU, 0.0], 2)
    with pytest.raises(ValueError, match="outside"):
        quantize([-0.1, 0.0], 2)


def test_quantize_rejects_bad_shapes_and_levels():
    with pytest.raises(ValueError):
        quantize([0.0, 0.0, 0.0], 2)  # not a power of two
    with pytest.raises(ValueError):
        quantize([0.0, 0.0], 0)


def test_quantize_recovers_float_grid_points_exactly():
    rng = np.random.default_rng(11)
    for _ in range(300):
        level = int(rng.integers(1, 17))
        p = int(rng.integers(0, 1 << level))
        angle = TAU * p / (1 << level)
        spec = quantize([angle, 0.0], level)
        assert spec.numerators[0] == p


def test_refinement_never_increases_quantization_error():
    # Finer grids nest, so floor at level m+1 is at least twice floor at m,
    # which is exactly "error does not grow" without any float comparison.
    rng = np.random.default_rng(5)
    for angle in rng.uniform(0.0, TAU, 200):
        fraction = angle / TAU
        for level in range(1, 8):
            coarse = floor_fraction(fraction, level)
            fine = floor_fraction(fraction, level + 1)
            assert fine >= 2 * coarse


def test_floor_fraction_wraps_full_turn_onto_top_cell():
    assert floor_fraction(1.0, 4) == 15


def test_phase_spec_validation():
    spec = PhaseSpec(2, (0, 1, 2, 3))
    assert spec.angles() == (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
    with pytest.raises(ValueError, match="^entry count 3 is not a power of two$"):
        PhaseSpec(2, (0, 1, 2))
    with pytest.raises(ValueError, match="entry 1"):
        PhaseSpec(1, (0, 2))


@pytest.mark.parametrize("numerators, first", [
    ((0, -1, 4, 1), "entry 1: numerator -1 outside"),
    ((0, 4, -1, 1), "entry 1: numerator 4 outside"),
    ((0, 3, 1, -2, 1, 8, 0, 2), "entry 3: numerator -2 outside"),
])
def test_phase_spec_names_the_first_numerator_out_of_range(numerators, first):
    with pytest.raises(ValueError, match=f"^{first} \\[0, 4\\)$"):
        PhaseSpec(2, numerators)


@pytest.mark.parametrize("size", [0, 3, 6])
def test_a_count_that_is_not_a_power_of_two_is_refused_where_specs_are_made(size):
    # The qubit count is read off the count of numerators: PhaseSpec holds
    # the one rule, and quantize reaches it.
    refusal = f"^entry count {size} is not a power of two$"
    with pytest.raises(ValueError, match=refusal):
        PhaseSpec(2, (0,) * size)
    with pytest.raises(ValueError, match=refusal):
        quantize([0.0] * size, 2)


def test_max_level_is_the_finest_grid_with_finite_angles():
    top = (1 << MAX_LEVEL) - 1
    assert floor_fraction(1.0, MAX_LEVEL) == top
    assert math.isfinite(PhaseSpec(MAX_LEVEL, (top,)).angles()[0])
    # One level finer, TAU * p overflows to inf for the top numerators.
    assert math.isinf(TAU * ((1 << (MAX_LEVEL + 1)) - 1))
    with pytest.raises(ValueError, match=f"level {MAX_LEVEL + 1} exceeds the limit"):
        floor_fraction(0.5, MAX_LEVEL + 1)
    with pytest.raises(ValueError, match="exceeds the limit"):
        quantize([0.5, 1.0], MAX_LEVEL + 1)
    # A spec refuses it as floor_fraction does, before any angle overflows.
    for level in (MAX_LEVEL + 1, 2000):
        with pytest.raises(ValueError, match=f"^level {level} exceeds the limit 1021$"):
            PhaseSpec(level, (1 << (level - 1), 0))


def test_floor_fraction_is_a_floor_past_level_48():
    # An absolute snap of 8 eps per unit fraction is 2**(level - 49) whole
    # cells from level 49 up; the snap is relative to the scaled value.
    assert floor_fraction(2.0 ** -70, 70) == 1
    assert floor_fraction(0.5, 70) == 1 << 69
    assert floor_fraction(2.0 ** -1021, MAX_LEVEL) == 1
