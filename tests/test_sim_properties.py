"""Property tests of the simulation: a state's qubit count against its size,
each kernel against the (2,)*q axis reference byte for byte, widening and gate relabelling against the flat
simulation, written gate lists against the gates they were written from, the
estimation register's readout against its Hadamards, and the full
preparation against the fast path and, at multiplier 4 on zero branches,
against its bounds.

Derandomized, so every run draws the same examples.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from _util import reference_apply
from qprep.analysis import (
    BOUND_SLACK,
    deterministic_tight_bound,
    evaluate_bounds,
    phase_stage_tight_bound,
)
from qprep.dyadic import TAU
from qprep.gateformat import circuit_lines, parse_circuit
from qprep.prepare import (
    DETERMINISTIC,
    PROBABILISTIC,
    PrecisionConfig,
    TargetVector,
    _estimation_zero_block,
    build,
    compute_angles,
    fast_path_prepare,
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
    apply_gate,
    new_basis_state,
    project_measure,
    shifted_gate,
)

MAX_QUBITS = 5


@st.composite
def gates(draw, num_qubits):
    kind = draw(st.sampled_from(("H", "X", "RY", "CZP", "DIAG", "QFT")))
    qubits = draw(st.permutations(range(num_qubits)))
    if kind in ("H", "X"):
        return (Hadamard if kind == "H" else PauliX)(qubits[0])
    if kind == "QFT":
        width = draw(st.integers(1, num_qubits))
        return QFTBlock(tuple(qubits[:width]), draw(st.booleans()))
    split = draw(st.integers(1, num_qubits))
    controls = tuple(qubits[split:split + draw(st.integers(0, num_qubits - split))])
    if kind == "RY":
        return RotationY(draw(st.floats(-math.pi, math.pi)), qubits[0], controls)
    if kind == "CZP":
        level = draw(st.integers(1, 6)) * draw(st.sampled_from((-1, 1)))
        return ControlledZPow(level, tuple(qubits[:split]))
    register = tuple(qubits[:split])
    phases = draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1 << split,
                           max_size=1 << split))
    return DiagonalOracle(register, tuple(phases), draw(st.integers(-4, 4)), controls)


@st.composite
def split_cases(draw):
    """A state of 1-10 qubits, some amplitude parts signed zeros, and one
    gate on unsorted, mostly non-adjacent qubits: 0-3 controls, DIAG
    registers in any order, QFT registers leading in order or permuted."""
    num_qubits = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(("H", "X", "RY", "CZP", "DIAG", "QFT")))
    qubits = draw(st.permutations(range(num_qubits)))
    controls = tuple(qubits[1:1 + draw(st.integers(0, min(3, num_qubits - 1)))])
    if kind in ("H", "X"):
        gate = (Hadamard if kind == "H" else PauliX)(qubits[0])
    elif kind == "RY":
        gate = RotationY(draw(st.floats(-TAU, TAU)), qubits[0], controls)
    elif kind == "CZP":
        level = draw(st.integers(1, 6)) * draw(st.sampled_from((-1, 1)))
        gate = ControlledZPow(level, (qubits[0], *controls))
    elif kind == "DIAG":
        free = (qubits[0], *qubits[1 + len(controls):])
        register = tuple(free[:draw(st.integers(1, min(4, len(free))))])
        phases = draw(st.lists(st.floats(0.0, TAU), min_size=1 << len(register),
                               max_size=1 << len(register)))
        gate = DiagonalOracle(register, tuple(phases), draw(st.integers(-4, 4)), controls)
    else:
        width = draw(st.integers(1, num_qubits))
        leading = draw(st.booleans())
        register = tuple(range(width)) if leading else tuple(qubits[:width])
        gate = QFTBlock(register, draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = 1 << num_qubits
    amplitudes = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amplitudes.real[rng.random(dim) < 0.2] = -0.0
    amplitudes.imag[rng.random(dim) < 0.2] = 0.0
    amplitudes[0] = 1.0
    return StateVector(amplitudes / np.linalg.norm(amplitudes)), gate


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(split_cases())
def test_kernels_on_split_views_are_the_axis_reference_byte_for_byte(case):
    state, gate = case
    expected = reference_apply(state.amplitudes, gate, state.num_qubits).tobytes()
    one_gate = Circuit(state.num_qubits, (gate,))
    assert apply_circuit(state, one_gate).amplitudes.tobytes() == expected
    apply_gate(state, gate)
    assert state.amplitudes.tobytes() == expected


@st.composite
def runs(draw):
    num_qubits = draw(st.integers(1, MAX_QUBITS))
    start = draw(st.integers(0, num_qubits))
    seed = draw(st.one_of(st.none(), st.integers(0, 2**32 - 1)))  # None: |0...0>
    circuit = draw(st.lists(gates(num_qubits), max_size=12))
    return num_qubits, start, seed, tuple(circuit)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(0, 10), st.integers(0, 2 ** 32 - 1))
def test_a_state_has_the_qubits_its_size_gives(num_qubits, seed):
    # Joining a qubit and measuring one change only the amplitudes; the
    # count follows them.
    rng = np.random.default_rng(seed)
    amplitudes = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    state = StateVector(amplitudes / np.linalg.norm(amplitudes))
    assert state.num_qubits == num_qubits
    wider = apply_circuit(state, Circuit(num_qubits + 1, ()))
    assert wider.num_qubits == num_qubits + 1
    assert project_measure(wider, num_qubits, 0)[1].num_qubits == num_qubits


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(runs())
def test_widening_is_the_flat_simulation(run):
    num_qubits, start, seed, gate_list = run
    if seed is None:
        state = new_basis_state(start, 0)
    else:
        rng = np.random.default_rng(seed)
        amplitudes = rng.standard_normal(1 << start) + 1j * rng.standard_normal(1 << start)
        state = StateVector(amplitudes / np.linalg.norm(amplitudes))
    before = state.amplitudes.copy()
    circuit = Circuit(num_qubits, gate_list)
    lazy = apply_circuit(state, circuit)
    assert lazy.num_qubits == circuit.num_qubits
    # The flat oracle runs every gate on all qubits: the state times
    # |0...0> on the trailing qubits it lacks.
    padded = np.kron(state.amplitudes, np.eye(1 << (num_qubits - start))[0])
    flat = apply_circuit(StateVector(padded), circuit)
    assert np.max(np.abs(lazy.amplitudes - flat.amplitudes)) < 1e-12
    assert np.array_equal(state.amplitudes, before)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 2**32 - 1), st.data())
def test_shifted_gates_run_below_untouched_leading_qubits(num_qubits, offset, seed, data):
    circuit = tuple(data.draw(st.lists(gates(num_qubits), max_size=8)))
    raised = tuple(shifted_gate(gate, range(offset, offset + num_qubits))
                   for gate in circuit)
    assert tuple(shifted_gate(gate, range(-offset, num_qubits))
                 for gate in raised) == circuit
    rng = np.random.default_rng(seed)
    dim = 1 << num_qubits
    amplitudes = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amplitudes /= np.linalg.norm(amplitudes)
    # Leading qubits at |0>: the state is the first block of the wider array.
    wide = np.zeros(1 << (offset + num_qubits), dtype=complex)
    wide[:dim] = amplitudes
    below = apply_circuit(StateVector(wide),
                          Circuit(offset + num_qubits, raised))
    alone = apply_circuit(StateVector(amplitudes), Circuit(num_qubits, circuit))
    assert np.max(np.abs(below.amplitudes[:dim] - alone.amplitudes)) < 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(runs(), st.data())
def test_written_gate_list_simulates_as_its_gates(run, data):
    # QFTBlock is written expanded into H and CZP lines; every other gate is
    # one line, its angles exact to the bit.
    num_qubits, _, _, gate_list = run
    circuit = Circuit(num_qubits, gate_list)
    data_qubits = data.draw(st.integers(1, num_qubits))
    seed = data.draw(st.integers(0, 2**32 - 1))
    parsed_data, parsed = parse_circuit("\n".join(circuit_lines(circuit, data_qubits)))
    assert (parsed_data, parsed.num_qubits) == (data_qubits, num_qubits)
    rng = np.random.default_rng(seed)
    dim = 1 << num_qubits
    amplitudes = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    state = StateVector(amplitudes / np.linalg.norm(amplitudes))
    expected = apply_circuit(state, circuit).amplitudes
    assert np.max(np.abs(apply_circuit(state, parsed).amplitudes - expected)) < 1e-12


@st.composite
def preparations(draw):
    n = draw(st.integers(1, 3))
    magnitude = st.one_of(st.just(0.0), st.floats(0.0, 1e3))
    magnitudes = draw(st.lists(magnitude, min_size=1 << n, max_size=1 << n)
                      .filter(lambda values: max(values) > 0.0))
    phases = draw(st.lists(st.floats(0.0, TAU, exclude_max=True),
                           min_size=1 << n, max_size=1 << n))
    mode = draw(st.sampled_from((DETERMINISTIC, PROBABILISTIC)))
    cfg = PrecisionConfig(draw(st.integers(1, 8)), draw(st.integers(1, 8)), mode)
    return TargetVector(n, np.array(magnitudes), np.array(phases)), cfg


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(preparations())
def test_full_simulation_is_the_fast_path(preparation):
    x, cfg = preparation
    full = simulate_preparation(build(x, cfg))
    fast = fast_path_prepare(x, cfg)
    assert np.max(np.abs(full.amplitudes - fast.amplitudes)) <= 1e-9
    assert abs(full.success_probability - fast.success_probability) <= 1e-12


@st.composite
def zero_branch_preparations(draw):
    """A det vector on 2-5 qubits, about half its magnitudes zero, whose
    last split has a live branch ``dead`` with a zero left child, at angle
    multiplier 4."""
    n = draw(st.integers(2, 5))
    magnitude = st.one_of(st.just(0.0), st.floats(0.0, 1e3))
    magnitudes = draw(st.lists(magnitude, min_size=1 << n, max_size=1 << n))
    dead = draw(st.integers(0, (1 << (n - 1)) - 1))
    magnitudes[2 * dead], magnitudes[2 * dead + 1] = 0.0, draw(st.floats(0.1, 1e3))
    phases = draw(st.lists(st.floats(0.0, TAU, exclude_max=True),
                           min_size=1 << n, max_size=1 << n))
    cfg = PrecisionConfig(draw(st.sampled_from((4, 6, 8))), draw(st.integers(1, 8)),
                          DETERMINISTIC, angle_multiplier=4)
    return TargetVector(n, np.array(magnitudes), np.array(phases)), cfg, dead


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(zero_branch_preparations())
def test_multiplier_four_on_zero_branches_meets_its_bounds(preparation):
    # The dead branch's angle pi/2 is a full turn at multiplier 4, which
    # wraps onto the top cell: its error is one whole grid step, within
    # the tight bound still.
    x, cfg, dead = preparation
    t = cfg.estimation_bits
    assert compute_angles(x, cfg)[1][-1][dead] == (1 << t) - 1
    report = evaluate_bounds(x, cfg)
    assert report.satisfied and report.estimation_residual <= 1e-10
    fast = fast_path_prepare(x, cfg)
    assert np.max(np.abs(report.amplitudes - fast.amplitudes)) <= 1e-9
    tight = (deterministic_tight_bound(x.num_qubits, t, 4)
             + phase_stage_tight_bound(cfg.phase_bits))
    assert report.measured_distance <= tight + BOUND_SLACK


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(1, 6), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_estimation_readout_is_its_hadamards_then_block_zero(t, n, seed):
    # Any state, leakage included: the sum readout equals a Hadamard on each
    # leading qubit followed by reading the |0...0> block.
    rng = np.random.default_rng(seed)
    dim = 1 << (t + n)
    amplitudes = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    state = StateVector(amplitudes / np.linalg.norm(amplitudes))
    before = state.amplitudes.copy()
    closing = Circuit(t + n, tuple(Hadamard(q) for q in range(t)))
    expected = apply_circuit(state, closing).amplitudes[: 1 << n]
    assert np.max(np.abs(_estimation_zero_block(state.amplitudes, t) - expected)) <= 1e-15
    assert np.array_equal(state.amplitudes, before)
