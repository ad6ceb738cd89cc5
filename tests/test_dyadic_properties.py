"""Property tests of ``floor_fraction`` at every level up to ``MAX_LEVEL``,
and of the qubit count a ``PhaseSpec`` reads off its numerators.

Derandomized, so every run draws the same examples.
"""

import random
import sys
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from qprep.dyadic import MAX_LEVEL, TAU, PhaseSpec, floor_fraction, quantize

LEVELS = st.integers(1, MAX_LEVEL)


@st.composite
def grid_points(draw):
    level = draw(LEVELS)
    p = draw(st.integers(0, min(1 << 48, 1 << level) - 1))
    return level, p


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(grid_points())
def test_grid_points_quantize_to_their_numerator(point):
    level, p = point
    angle = TAU * p / 2 ** level
    fraction = angle / TAU
    assert floor_fraction(fraction, level) == p
    assert quantize([angle, 0.0], level).numerators[0] == p
    assert (p + 1) / 2 ** level > fraction


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(LEVELS, st.floats(0.0, 1.0))
def test_floor_fraction_is_a_floor_up_to_the_snap(level, fraction):
    # In exact rationals, as (p + 1) / 2**level rounds once p reaches 2**53:
    # the next cell lies above the input, and p at most the 8 eps snap above.
    p = floor_fraction(fraction, level)
    scaled = Fraction(fraction) * 2 ** level
    assert 0 <= p < 2 ** level
    assert p + 1 > scaled or fraction == 1.0
    assert p <= scaled * (1 + Fraction(8 * sys.float_info.epsilon))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(LEVELS)
def test_a_full_turn_lands_on_the_top_cell(level):
    assert floor_fraction(1.0, level) == 2 ** level - 1


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(0, 10), LEVELS, st.integers(0, 2 ** 32 - 1))
def test_a_phase_spec_has_the_qubits_its_count_gives(num_qubits, level, seed):
    rng = random.Random(seed)
    spec = PhaseSpec(level, tuple(rng.getrandbits(level) for _ in range(1 << num_qubits)))
    assert spec.num_qubits == num_qubits
