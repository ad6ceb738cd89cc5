import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from qprep.gateformat import (
    as_dyadic,
    circuit_lines,
    expand_blocks,
    load_circuit,
    parse_circuit,
    qft_circuit,
    save_circuit,
    written_gate_count,
)
from qprep.prepare import (
    DETERMINISTIC,
    PROBABILISTIC,
    PrecisionConfig,
    TargetVector,
    build,
    required_precision,
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
)

TAU = 2.0 * math.pi


def gate_line(gate) -> str:
    """The one line ``circuit_lines`` writes for ``gate`` alone."""
    _, line = circuit_lines(Circuit(4, (gate,)), 1)
    return line


def test_simple_gate_lines():
    assert gate_line(Hadamard(3)) == "H q=3"
    assert gate_line(PauliX(0)) == "X q=0"
    assert gate_line(ControlledZPow(-2, (0, 2))) == "CZP l=-2 q=0,2"


def test_rotation_line_carries_dyadic_annotation():
    line = gate_line(RotationY(TAU / 8, 1, controls=(0,)))
    assert line.startswith("RY theta=0.78539816339744828 q=1 c=0")
    assert line.endswith("p=1 m=3")
    plain = gate_line(RotationY(1.0, 2))
    assert plain == "RY theta=1 q=2 c=-"


def test_diag_line_carries_common_level_annotation():
    gate = DiagonalOracle((1, 2), (0.0, TAU / 4, TAU / 8, TAU * 3 / 8),
                          power=4, controls=(0,))
    line = gate_line(gate)
    assert "j=4 reg=1,2 c=0" in line
    assert line.endswith("p=0,2,1,3 m=3")


def test_diag_gates_sharing_phases_write_as_each_alone():
    shared = (0.0, TAU / 4, TAU / 8, TAU * 3 / 8)
    signed = (-0.0, *shared[1:])  # equal to ``shared``, but written "-0"
    assert signed == shared
    gates = (DiagonalOracle((1, 2), shared, power=1, controls=(0,)),
             DiagonalOracle((1, 2), shared, power=-2, controls=(0,)),
             DiagonalOracle((1, 2), signed, power=4, controls=(0,)))
    lines = list(circuit_lines(Circuit(3, gates), 2))
    assert lines[1:] == [gate_line(gate) for gate in gates]
    assert "phases=0," in lines[2] and "phases=-0," in lines[3]


def _reduced(p: int, m: int) -> tuple[int, int]:
    """p/2**m in lowest terms, keeping m >= 1."""
    while m > 1 and p % 2 == 0:
        p, m = p // 2, m - 1
    return p, m


def test_as_dyadic():
    assert as_dyadic(TAU / 4) == (1, 2)
    assert as_dyadic(0.0) == (0, 1)
    assert as_dyadic(-0.0) == (0, 1)
    assert as_dyadic(TAU) == (2, 1)  # rotation angles may exceed one turn
    assert as_dyadic(1.0) is None
    assert as_dyadic(-1.0) is None
    for level in range(1, 33):
        top = 1 << level
        numerators = {1, 2, 3, 6, top - 1, top - 2, top + 1, 3 * top - 1, 2 * top}
        for p in sorted(numerators | {-p for p in numerators}):
            assert as_dyadic(TAU * p / top) == _reduced(p, level), (p, level)
    for p in (1, 3, -5, (1 << 33) - 1):  # odd numerators past level 32
        assert as_dyadic(TAU * p / (1 << 33)) is None


def test_round_trip_preserves_gates_exactly():
    gates = (
        Hadamard(0),
        PauliX(4),
        RotationY(0.12345678901234567, 2, controls=(0, 1)),
        RotationY(TAU / 16, 3),
        ControlledZPow(5, (1, 3)),
        DiagonalOracle((2, 3), (0.1, 0.2, 0.3, 0.4), power=-3, controls=(0,)),
        DiagonalOracle((1,), (0.0, TAU / 32), power=8),
    )
    circuit = Circuit(5, gates)
    text = "\n".join(circuit_lines(circuit, 3))
    data_qubits, parsed = parse_circuit(text)
    assert data_qubits == 3
    assert parsed.num_qubits == 5
    assert parsed.gates == gates  # float-exact via 17 significant digits


def test_qft_block_expands_to_primitives():
    circuit = Circuit(3, (QFTBlock((0, 1, 2)), Hadamard(1)))
    lines = list(circuit_lines(circuit, 3))
    assert lines[0] == "# qprep v1 n=3 qubits=3"
    assert all(line.split()[0] in ("H", "CZP") for line in lines[1:])
    assert written_gate_count(circuit) == len(lines) - 1
    _, parsed = parse_circuit("\n".join(lines))
    rng = np.random.default_rng(5)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    state = StateVector(v / np.linalg.norm(v))
    direct = apply_circuit(state, circuit)
    reparsed = apply_circuit(state, parsed)
    assert np.allclose(direct.amplitudes, reparsed.amplitudes, atol=1e-12)


@pytest.mark.parametrize("inverse", [False, True])
def test_written_count_of_a_qft_block_is_the_lines_written(inverse):
    for width in range(1, 41):
        block = QFTBlock(tuple(range(width)), inverse)
        circuit = Circuit(width, (block, Hadamard(0)))
        assert written_gate_count(circuit) == len(list(circuit_lines(circuit, 1))) - 1


@pytest.mark.parametrize("mode", [DETERMINISTIC, PROBABILISTIC])
def test_written_count_is_the_lines_written_for_every_build(mode):
    # Det widths have no formula at n = 1: there it takes them as given.
    rng = np.random.default_rng(8)
    for n in range(1, 7):
        x = TargetVector(n, rng.random(1 << n), rng.uniform(0.0, TAU, 1 << n))
        cfg = (PrecisionConfig(5, 4, mode) if n == 1 and mode == DETERMINISTIC
               else required_precision(n, 0.1, mode))
        circuit = build(x, cfg).circuit
        assert written_gate_count(circuit) == len(list(circuit_lines(circuit, n))) - 1


def test_blocks_on_two_registers_write_as_each_alone():
    # Each block is written as its own expansion, whichever blocks came
    # before it in the pass: forward and inverse on one register differ.
    gates = (QFTBlock((0, 1, 2)), Hadamard(3), QFTBlock((3, 4), True),
             RotationY(0.5, 0, (3,)), QFTBlock((0, 1, 2), True), QFTBlock((3, 4)),
             ControlledZPow(2, (1, 4)), QFTBlock((0, 1, 2)), QFTBlock((3, 4), True))
    circuit = Circuit(5, gates)
    lines = list(circuit_lines(circuit, 2))
    assert lines[1:] == [line for gate in gates
                         for line in list(circuit_lines(Circuit(5, (gate,)), 2))[1:]]
    assert written_gate_count(circuit) == len(lines) - 1


def test_each_distinct_block_is_expanded_once_per_pass(monkeypatch):
    # A det build writes a forward and an inverse block on one register in
    # every round: two expansions per pass, however many rounds it runs.
    rng = np.random.default_rng(6)
    x = TargetVector(4, rng.random(16), rng.uniform(0.0, TAU, 16))
    circuit = build(x, required_precision(4, 0.1, DETERMINISTIC)).circuit
    assert sum(isinstance(gate, QFTBlock) for gate in circuit.gates) > 2
    calls = []
    monkeypatch.setattr("qprep.gateformat.qft_circuit",
                        lambda *args: calls.append(args) or qft_circuit(*args))
    for _ in range(2):
        lines = list(circuit_lines(circuit, 4))
        assert len(calls) == len(set(calls)) == 2
        assert {inverse for _, inverse in calls} == {False, True}
        calls.clear()
    assert written_gate_count(circuit) == len(lines) - 1
    assert len(calls) == 2


def test_a_pass_lets_each_expansion_go_after_its_last_use(monkeypatch):
    # A weak reference to each expansion shows when the pass lets it go, so
    # a pass holds no more of the blocks than a block-by-block one would.
    class Expansion(list):
        pass

    held = []

    def expand(*args):
        expansion = Expansion(qft_circuit(*args))
        held.append(weakref.ref(expansion))
        return expansion

    monkeypatch.setattr("qprep.gateformat.qft_circuit", expand)
    gates = (QFTBlock((0, 1)), PauliX(2), QFTBlock((0, 1), True), QFTBlock((0, 1)),
             Hadamard(2))
    alive = {gate: [ref() is not None for ref in held]
             for gate in expand_blocks(gates) if gate in (PauliX(2), Hadamard(2))}
    assert alive == {PauliX(2): [True], Hadamard(2): [False, False]}


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError, match="header"):
        parse_circuit("H q=0")
    with pytest.raises(ValueError, match="mnemonic"):
        parse_circuit("# qprep v1 n=1 qubits=2\nSWAP q=0,1")
    with pytest.raises(ValueError, match="malformed"):
        parse_circuit("# qprep v1 n=1 qubits=2\nH q")


@pytest.mark.parametrize("text, refusal", [
    ("# qprep v1 n=1\nH q=0\n", "line 1: missing field qubits="),
    ("# qprep v1 n=1 qubits=1\n\n# a comment\nH\n", "line 4: missing field q="),
    ("# qprep v1 n=1 qubits=2\nH q=0\nRY q=1 c=-\n", "line 3: missing field theta="),
    ("\n# qprep v1 n=1 qubits=1\nH q=x\n",
     "line 3: field q=: invalid literal for int() with base 10: 'x'"),
    ("# qprep v1 n=1 qubits=1\nRY theta=0.5 q=0 c=- p=1 m=2000\n",
     "line 2: field m=: level 2000 exceeds the limit 1021"),
    ("# qprep v1 n=1 qubits=2\nH q=0\nH q=1 c=0\n", "line 3: H takes no field c="),
    ("# qprep v1 n=1 qubits=2\nCZP l=1 q=0,1 p=1 m=1\n", "line 2: CZP takes no field m="),
    ("# qprep v1 n=1 qubits=1\nRY theta=0.5 q=0 c=- p=1 m=-1\n",
     "line 2: field m=: negative level -1"),
    ("# qprep v1 n=1 qubits=1\nH q=0\n# a comment\nH q=5\n",
     "line 4: Hadamard(target=5): qubit 5 outside [0, 1)"),
    ("# qprep v1 n=1 qubits=1\nX q=0\nCZP l=0 q=0\n",
     "line 3: ControlledZPow level must be nonzero"),
    ("# qprep v1 n=1 qubits=0\nH q=0\n", "line 1: num_qubits must be >= 1, got 0"),
    ("# qprep v1 n=1 qubits=1\nRY theta=nan q=0 c=-\n",
     "line 2: field theta=: angle nan is not finite"),
    ("# qprep v1 n=1 qubits=1\nH q=0\nDIAG j=1 reg=0 c=- phases=0,inf\n",
     "line 3: field phases=: angle inf is not finite"),
    ("# qprep v1 n=1 qubits=1\nRY theta=-inf q=0 c=-\n",
     "line 2: field theta=: angle -inf is not finite"),
    ("# qprep v1 n=1 qubits=1\nRY theta=0.5,1 q=0 c=-\n",
     "line 2: field theta=: RY takes one angle, got 2"),
    ("# qprep v1 n=1 qubits=1\nRY theta=0.5 q=0 c=- p=1,3 m=2\n",
     "line 2: field p=: RY takes one angle, got 2"),
    ("# qprep v1 n=1 qubits=1 x=3\nH q=0\n", "line 1: # qprep v1 takes no field x="),
    ("# qprep v1 n=0 qubits=1\nH q=0\n", "line 1: n=0 outside [1, 1]"),
    ("# qprep v1 n=3 qubits=2\nH q=0\n", "line 1: n=3 outside [1, 2]"),
    ("# qprep v1 n=1 qubits=1\nRY theta=0.5 q=0 c=- p=1 m=1022\n",
     "line 2: field m=: level 1022 exceeds the limit 1021"),
    ("# qprep v1 n=1 qubits=1\nRY theta=0 q=0 c=- p=1 m=100000000\n",
     "line 2: field m=: level 100000000 exceeds the limit 1021"),
    ("# qprep v1 n=1 qubits=1\nH q=0\nCZP l=1022 q=0\n",
     "line 3: ControlledZPow level 1022 exceeds the limit 1021"),
    ("# qprep v1 n=1 qubits=1\nCZP l=-1022 q=0\n",
     "line 2: ControlledZPow level -1022 exceeds the limit 1021"),
    ("# qprep v1 n=1 qubits=1\nCZP l=10000000 q=0\n",
     "line 2: ControlledZPow level 10000000 exceeds the limit 1021"),
    ("# qprep v1 n=1 qubits=1\nRY theta=0.5 q=0 c=- p=" + "9" * 400 + " m=3\n",
     "line 2: field p=: int too large to convert to float"),
    ("# qprep v1 n=1 qubits=1\nRY q=0 c=- p=1 m=2\n", "line 2: missing field theta="),
    ("# qprep v1 n=1 qubits=1\nRY theta=abc q=0 c=- p=1 m=2\n",
     "line 2: field theta=: could not convert string to float: 'abc'"),
    ("# qprep v1 n=1 qubits=1\nRY theta=nan q=0 c=- p=1 m=2\n",
     "line 2: field theta=: angle nan is not finite"),
    ("# qprep v1 n=1 qubits=1\nDIAG j=1 reg=0 c=- p=0,1 m=2\n",
     "line 2: missing field phases="),
    ("# qprep v1 n=1 qubits=1\nDIAG j=1 reg=0 c=- phases=0,1.5,3 p=0,1 m=2\n",
     "line 2: field p=: 2 numerators for 3 angles"),
    ("# qprep v1 n=1 qubits=1\nRY theta=0.5,1 q=0 c=- p=1 m=2\n",
     "line 2: field p=: 1 numerators for 2 angles"),
    ("# qprep v1 n=1 qubits=1\nH q=0\nDIAG j=" + "9" * 400 + " reg=0 c=- phases=0,1\n",
     "line 3: DiagonalOracle power of 1329 bits exceeds the float range"),
], ids=["header-without-qubits", "h-without-q", "ry-without-theta", "q-not-an-integer",
        "level-past-the-floats", "field-the-gate-does-not-take", "level-on-a-czp",
        "negative-level", "qubit-outside-the-header", "czp-level-zero", "no-qubits",
        "nan-theta", "infinite-phase", "minus-infinite-theta", "two-thetas",
        "two-numerators-on-an-ry", "field-the-header-does-not-take", "no-data-qubits",
        "more-data-qubits-than-qubits", "level-past-the-finest-grid",
        "level-far-past-the-finest-grid", "czp-level-past-the-finest-grid",
        "negative-czp-level-past-the-finest-grid", "czp-level-far-past-the-finest-grid",
        "numerator-past-the-floats", "annotated-ry-without-theta",
        "annotated-ry-with-an-unreadable-theta", "annotated-ry-with-a-nan-theta",
        "annotated-diag-without-phases", "annotation-shorter-than-phases",
        "annotated-ry-with-two-thetas", "diag-power-past-the-floats"])
def test_parse_refuses_a_bad_line_by_its_number_and_field(tmp_path, text, refusal):
    # Lines are counted before blank and comment lines are dropped.  A
    # refusal reads no more than the line: a level is refused before any
    # 1 << level is made.
    path = tmp_path / "bad.gates"
    path.write_text(text)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as refused:
            load_circuit(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == refusal
    assert peak < 1 << 20


def test_readme_gate_list_example_is_what_the_writer_writes():
    # README's example, its header placeholders filled in, reads back and
    # is written again byte for byte.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("### Gate-list format", 1)[1].split("```\n")[1]
    text = example.replace("<data qubits>", "2").replace("<total qubits>", "7")
    data_qubits, circuit = parse_circuit(text)
    assert "".join(line + "\n" for line in circuit_lines(circuit, data_qubits)) == text


@pytest.mark.parametrize("mode", [DETERMINISTIC, PROBABILISTIC])
def test_every_field_the_writer_emits_is_read_back(mode):
    # The writer emits each field the reader takes, among them the p= m=
    # annotations of RY and DIAG, and the reader reads every gate back.
    rng = np.random.default_rng(3)
    x = TargetVector(3, rng.random(8), rng.uniform(0.0, TAU, 8))
    circuit = build(x, required_precision(3, 0.1, mode)).circuit
    lines = list(circuit_lines(circuit, 3))
    _, parsed = parse_circuit("\n".join(lines))
    assert parsed.gates == tuple(expand_blocks(circuit.gates))
    emitted = {(line.split()[0], part.partition("=")[0])
               for line in lines[1:] for part in line.split()[1:]}
    assert emitted == {("H", "q"), ("X", "q"), ("CZP", "l"), ("CZP", "q"), *(
        ("RY", key) for key in ("theta", "q", "c", "p", "m")), *(
        ("DIAG", key) for key in ("j", "reg", "c", "phases", "p", "m"))}


@pytest.mark.parametrize("mode, rounds", [(DETERMINISTIC, 4), (PROBABILISTIC, 1)])
def test_a_round_s_oracles_share_one_phases_tuple_as_read(mode, rounds):
    # The reader reads each distinct list text once per file, so the 2t
    # oracles of a round share one phases tuple, as ``build`` makes them.
    rng = np.random.default_rng(4)
    x = TargetVector(5, rng.random(32), rng.uniform(0.0, TAU, 32))
    circuit = build(x, required_precision(5, 0.1, mode)).circuit
    _, parsed = parse_circuit("\n".join(circuit_lines(circuit, 5)))
    for gates in (circuit.gates, parsed.gates):
        oracles = [gate for gate in gates if isinstance(gate, DiagonalOracle)]
        assert len({id(gate.phases) for gate in oracles}) == rounds


def test_one_text_reads_by_its_level():
    # Equal list texts at different levels, or as qubits and as angles, are
    # read apart; level 0 is a level (2*pi*p), not a missing one.
    _, circuit = parse_circuit("# qprep v1 n=1 qubits=2\n"
                               "DIAG j=1 reg=1 c=- phases=0,0 p=1,3 m=3\n"
                               "DIAG j=1 reg=1 c=- phases=0,0 p=1,3 m=4\n"
                               "DIAG j=1 reg=1 c=- phases=1,3\n"
                               "RY theta=0 q=0 c=1 p=1 m=0\n")
    assert circuit.gates == (DiagonalOracle((1,), (TAU / 8, TAU * 3 / 8)),
                             DiagonalOracle((1,), (TAU / 16, TAU * 3 / 16)),
                             DiagonalOracle((1,), (1.0, 3.0)),
                             RotationY(TAU, 0, controls=(1,)))
    assert type(circuit.gates[3].controls[0]) is int


def test_comment_lines_are_ignored():
    text = "# qprep v1 n=1 qubits=1\n# produced by a test\nH q=0\n"
    _, circuit = parse_circuit(text)
    assert circuit.gates == (Hadamard(0),)


def test_annotation_wins_over_decimal_field():
    _, circuit = parse_circuit("# qprep v1 n=1 qubits=1\n"
                               "RY theta=0.78539816339744828 q=0 c=- p=1 m=3")
    assert circuit.gates[0].angle == TAU / 8


@pytest.mark.parametrize("mode", [DETERMINISTIC, PROBABILISTIC])
def test_save_circuit_holds_no_copy_of_the_whole_text(mode, tmp_path):
    rng = np.random.default_rng(8)
    x = TargetVector(8, rng.random(256), rng.uniform(0.0, TAU, 256))
    circuit = build(x, required_precision(8, 0.1, mode)).circuit
    path = tmp_path / "gates.txt"
    tracemalloc.start()
    try:
        save_circuit(path, circuit, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = path.stat().st_size
    assert peak < written / 2, (peak, written)
