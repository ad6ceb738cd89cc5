"""Property tests of the peel transform against the reference loop, and of
``reconstruct`` against the reference walk.

Derandomized, so every run draws the same examples.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from _util import reference_peel, reference_reconstruct
from qprep.dyadic import PhaseSpec
from qprep.sim import ControlledZPow, PauliX
from qprep.synth import (
    SynthesisResult,
    peel_synthesize,
    reconstruct,
    sparse_synthesize,
)

LEVELS = st.one_of(st.integers(1, 8), st.integers(60, 80))


@st.composite
def phase_specs(draw):
    n = draw(st.integers(0, 5))
    m = draw(LEVELS)
    cell = st.integers(0, (1 << m) - 1)
    numerators = draw(st.lists(cell, min_size=1 << n, max_size=1 << n))
    return PhaseSpec(m, tuple(numerators))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(phase_specs())
def test_peel_is_the_reference_loop_and_round_trips(spec):
    result, reference = peel_synthesize(spec), reference_peel(spec)
    assert result.gates == reference.gates
    assert result.global_phase == reference.global_phase
    assert reconstruct(result) == spec


@st.composite
def gate_lists(draw):
    """PauliX anywhere and ControlledZPow on any sub-pattern, in any qubit
    order, of a register with unsorted, non-contiguous labels."""
    n = draw(st.integers(0, 6))
    m = draw(LEVELS)
    register = tuple(draw(st.lists(st.integers(0, 40), unique=True,
                                   min_size=n, max_size=n)))
    levels = st.integers(1, m).flatmap(lambda k: st.sampled_from((k, -k)))
    sub_pattern = st.lists(st.sampled_from(register), unique=True) if n else st.just([])
    czp = st.builds(lambda level, qubits: ControlledZPow(level, tuple(qubits)),
                    levels, sub_pattern)
    gate = st.one_of(czp, st.builds(PauliX, st.sampled_from(register))) if n else czp
    gates = tuple(draw(st.lists(gate, max_size=24)))
    global_phase = draw(st.integers(0, (1 << m) - 1))
    return SynthesisResult(register, m, gates, global_phase)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(gate_lists())
def test_reconstruct_is_the_reference_walk(result):
    n = result.num_qubits
    assert reconstruct(result) == reference_reconstruct(result)


@st.composite
def sparse_specs(draw):
    n = draw(st.integers(1, 6))
    m = draw(LEVELS)
    size = 1 << n
    support = set(draw(st.lists(st.integers(0, size - 1), unique=True,
                                min_size=1, max_size=min(size, 12))))
    # The all-zeros and all-ones indices flip every qubit and none.
    support |= set(draw(st.sampled_from(((), (0,), (size - 1,), (0, size - 1)))))
    numerators = [0] * size
    for index in support:
        numerators[index] = draw(st.integers(0, (1 << m) - 1))
    return PhaseSpec(m, tuple(numerators)), draw(st.permutations(sorted(support)))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(sparse_specs())
def test_sparse_round_trips_through_reconstruct(case):
    spec, support = case
    assert reconstruct(sparse_synthesize(spec, support)) == spec
