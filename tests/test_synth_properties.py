"""Property tests of the peel transform against the reference loop.

Derandomized, so every run draws the same examples.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from _util import reference_peel
from qprep.dyadic import PhaseSpec
from qprep.synth import peel_synthesize, reconstruct


@st.composite
def phase_specs(draw):
    n = draw(st.integers(0, 5))
    m = draw(st.one_of(st.integers(1, 8), st.integers(60, 80)))
    cell = st.integers(0, (1 << m) - 1)
    numerators = draw(st.lists(cell, min_size=1 << n, max_size=1 << n))
    return PhaseSpec(n, m, tuple(numerators))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(phase_specs())
def test_peel_is_the_reference_loop_and_round_trips(spec):
    result, reference = peel_synthesize(spec), reference_peel(spec)
    assert result.gates == reference.gates
    assert result.global_phase == reference.global_phase
    assert reconstruct(result, spec.num_qubits) == spec
