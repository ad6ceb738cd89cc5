"""Plain-text gate lists, one gate per line in application order.

Grammar (header first, then gates; later ``#`` lines are comments):

    # qprep v1 n=<data qubits> qubits=<total qubits>
    H q=<qubit>
    X q=<qubit>
    CZP l=<signed level> q=<qubit,qubit,...>
    RY theta=<radians> q=<qubit> c=<controls or -> [p=<int> m=<int>]
    DIAG j=<power> reg=<qubits> c=<controls or -> phases=<radians,...> [p=<ints> m=<int>]

Angles are written with 17 significant digits, which round-trips doubles
exactly; angles that are dyadic multiples of 2*pi additionally carry a
``p=... m=...`` annotation meaning theta = 2*pi*p/2**m, which decides the
value.  One reader reads every list field (qubits, decimal angles, and
``p=`` at level ``m=``), each distinct text once per file, so the 2t
oracles of an estimation round share one phases tuple, as built.  The
parser refuses a field the grammar does not give the header or a gate's
mnemonic, a header ``n`` outside [1, qubits], an angle that is not finite
(the decimal field's too, when annotated), an RY with more than one angle,
a ``p=`` whose count differs from its decimal field's and an ``m=`` or
``|l|`` past the finest grid (``dyadic.MAX_LEVEL``), and names the line at
fault.
``expand_blocks`` writes each Fourier block as the basic gates of
``qft_circuit``, each distinct one once per pass, and ``written_gate_count``
(the report's gate count) counts them; the simulator runs a block as one FFT.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import Iterable, Iterator

from .dyadic import MAX_LEVEL, TAU
from .sim import (
    Circuit,
    ControlledZPow,
    DiagonalOracle,
    Gate,
    Hadamard,
    PauliX,
    QFTBlock,
    RotationY,
    inverse_gate,
    validate_gate,
)

_MAX_DYADIC_LEVEL = 32
_HEADER = "# qprep v1"


def format_float(value: float) -> str:
    return f"{value:.17g}"


def as_dyadic(angle: float) -> tuple[int, int] | None:
    """(p, m) with angle == 2*pi*p/2**m exactly as floats, if one exists with
    m <= 32; p is odd unless m == 1.  None for an angle whose scaled value
    is not finite (NaN, or past about 4.2e298)."""
    scale = 1 << _MAX_DYADIC_LEVEL
    scaled = angle * scale / TAU
    if not math.isfinite(scaled):
        return None
    p = round(scaled)
    if TAU * p / scale != angle:
        return None
    if p == 0:
        return 0, 1
    shift = min((p & -p).bit_length() - 1, _MAX_DYADIC_LEVEL - 1)
    return p >> shift, _MAX_DYADIC_LEVEL - shift


def _indices(values: Iterable[int]) -> str:
    return ",".join(map(str, values))


def _controls(values: tuple[int, ...]) -> str:
    return _indices(values) if values else "-"


def _swap_gates(a: int, b: int) -> list[Gate]:
    # SWAP from the available vocabulary: three CNOTs, each an H-CZ-H sandwich.
    cnot_ab: list[Gate] = [Hadamard(b), ControlledZPow(1, (a, b)), Hadamard(b)]
    cnot_ba: list[Gate] = [Hadamard(a), ControlledZPow(1, (a, b)), Hadamard(a)]
    return cnot_ab + cnot_ba + cnot_ab


def qft_circuit(register: tuple[int, ...] | list[int],
                inverse: bool = False) -> tuple[Gate, ...]:
    """Fourier transform on ``register`` as Hadamard and phase gates: the
    gates a ``QFTBlock`` is written as.

    The register is read most-significant first, matching the global bit
    convention; the trailing bit-reversal is realized with CNOT-triple swaps
    so the gate list stays inside the simulator vocabulary.
    """
    register = tuple(register)
    if not register:
        raise ValueError("QFT register must be nonempty")
    if len(set(register)) != len(register):
        raise ValueError("QFT register lists duplicate qubits")
    width = len(register)
    gates: list[Gate] = []
    for i in range(width):
        gates.append(Hadamard(register[i]))
        for distance in range(2, width - i + 1):
            gates.append(ControlledZPow(distance, (register[i], register[i + distance - 1])))
    for i in range(width // 2):
        gates.extend(_swap_gates(register[i], register[width - 1 - i]))
    if inverse:
        gates = [inverse_gate(g) for g in reversed(gates)]
    return tuple(gates)


def expand_blocks(gates: tuple[Gate, ...]) -> Iterator[Gate]:
    """The gates as written: each Fourier block becomes its primitive gates,
    each distinct one expanded once per pass and dropped after its last use."""
    uses = Counter((gate.register, gate.inverse) for gate in gates if isinstance(gate, QFTBlock))
    expanded = {}
    for gate in gates:
        if isinstance(gate, QFTBlock):
            block = gate.register, gate.inverse
            if block not in expanded:
                expanded[block] = qft_circuit(*block)
            uses[block] -= 1
            yield from expanded[block] if uses[block] else expanded.pop(block)
        else:
            yield gate


def written_gate_count(circuit: Circuit) -> int:
    """Number of gate lines ``save_circuit`` writes for ``circuit``."""
    return sum(1 for _ in expand_blocks(circuit.gates))


def _dyadic_field(angles: tuple[float, ...]) -> str:
    """`` p=<numerators> m=<level>`` for angles that are all dyadic multiples
    of 2*pi, on their common level; otherwise empty."""
    dyadics = [as_dyadic(angle) for angle in angles]
    if not all(d is not None for d in dyadics):
        return ""
    level = max(d[1] for d in dyadics)
    return f" p={_indices(d[0] << (level - d[1]) for d in dyadics)} m={level}"


def _gate_line(gate: Gate, phases_fields: dict[int, str],
               qubits_fields: dict[tuple[int, ...], str]) -> str:
    """The gate's line.  A CZP qubit list is memoized by value in
    ``qubits_fields``, a DIAG phases field by tuple id in ``phases_fields``."""
    if isinstance(gate, ControlledZPow):
        field = qubits_fields.get(gate.qubits)
        if field is None:
            field = qubits_fields[gate.qubits] = _indices(gate.qubits)
        return f"CZP l={gate.level} q={field}"
    if isinstance(gate, Hadamard):
        return f"H q={gate.target}"
    if isinstance(gate, PauliX):
        return f"X q={gate.target}"
    if isinstance(gate, RotationY):
        return (f"RY theta={format_float(gate.angle)} q={gate.target} "
                f"c={_controls(gate.controls)}{_dyadic_field((gate.angle,))}")
    if isinstance(gate, DiagonalOracle):
        field = phases_fields.get(id(gate.phases))
        if field is None:
            field = phases_fields[id(gate.phases)] = (
                f"phases={','.join(map(format_float, gate.phases))}"
                f"{_dyadic_field(gate.phases)}")
        return (f"DIAG j={gate.power} reg={_indices(gate.register)} "
                f"c={_controls(gate.controls)} {field}")
    raise TypeError(f"unknown gate type {type(gate).__name__}")


def circuit_lines(circuit: Circuit, data_qubits: int) -> Iterator[str]:
    """The header, then one line per written gate, made as it is asked for."""
    yield f"{_HEADER} n={data_qubits} qubits={circuit.num_qubits}"
    # An estimation round's 2t oracles share one phases tuple: format it once.
    # Reuse goes by identity, as 0.0 == -0.0 but they print "0" and "-0"; the
    # circuit keeps every tuple alive, so no id is reused while this runs.
    phases_fields: dict[int, str] = {}
    # Peel reuses one qubits tuple across every level of a pattern: format
    # each CZP qubit list once.  Ints print alike, so reuse goes by value.
    qubits_fields: dict[tuple[int, ...], str] = {}
    for gate in expand_blocks(circuit.gates):
        yield _gate_line(gate, phases_fields, qubits_fields)


def save_circuit(path, circuit: Circuit, data_qubits: int) -> None:
    with open(path, "w") as handle:
        for line in circuit_lines(circuit, data_qubits):
            handle.write(line)
            handle.write("\n")


# The fields the header and each mnemonic take; p= and m= only together.
_FIELDS = {_HEADER: {"n", "qubits"}, "H": {"q"}, "X": {"q"}, "CZP": {"l", "q"},
           "RY": {"theta", "q", "c", "p", "m"},
           "DIAG": {"j", "reg", "c", "phases", "p", "m"}}


def _parse_fields(mnemonic: str, parts: list[str]) -> dict[str, str]:
    """The fields of a line, each of them one that ``mnemonic`` takes."""
    fields: dict[str, str] = {}
    for part in parts:
        key, _, value = part.partition("=")
        if not _ or key in fields:
            raise ValueError(f"malformed field {part!r}")
        fields[key] = value
    taken = _FIELDS.get(mnemonic)
    if taken is None:
        raise ValueError(f"unknown gate mnemonic {mnemonic!r}")
    if not fields.keys() <= taken:
        raise ValueError(f"{mnemonic} takes no field {min(fields.keys() - taken)}=")
    return fields


def _field(fields: dict[str, str], key: str, read=int, *args):
    """Field ``key`` as ``read(text, *args)`` reads it; a refusal names the field."""
    try:
        return read(fields[key], *args)
    except KeyError:
        raise ValueError(f"missing field {key}=") from None
    except (ValueError, OverflowError) as exc:  # 2*pi*p/2**m past the floats
        raise ValueError(f"field {key}=: {exc}") from None


def _level(text: str) -> int:
    """The ``m=`` level, refused before ``1 << level`` if past the finest grid."""
    level = int(text)
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"negative level {level}" if level < 0
                         else f"level {level} exceeds the limit {MAX_LEVEL}")
    return level


_QUBITS = -1  # the level that reads qubit indices: a read m= is never negative


def _parse_list(text: str, level: int | None = _QUBITS) -> tuple:
    """Qubit indices at level ``_QUBITS`` (``-`` for none), decimal angles at
    level None, else the angles 2*pi*p/2**level of integers p.  It refuses
    an angle that is not finite."""
    if level == _QUBITS:
        return () if text in ("-", "") else tuple(map(int, text.split(",")))
    if level is None:
        angles = tuple(map(float, text.split(",")))
    else:
        angles = tuple(TAU * int(p) / (1 << level) for p in text.split(","))
    for angle in angles:
        if not math.isfinite(angle):
            raise ValueError(f"angle {angle} is not finite")
    return angles


def _parse_gate_line(line: str, lists, levels) -> Gate:
    """The gate on ``line``, its list fields read by ``lists`` and its level
    by ``levels``."""
    parts = line.split()
    mnemonic, fields = parts[0], _parse_fields(parts[0], parts[1:])
    if mnemonic == "H":
        return Hadamard(_field(fields, "q"))
    if mnemonic == "X":
        return PauliX(_field(fields, "q"))
    if mnemonic == "CZP":
        return ControlledZPow(_field(fields, "l"), _field(fields, "q", lists))
    key = "theta" if mnemonic == "RY" else "phases"
    angles = _field(fields, key, lists, None)
    decimals = len(angles)
    if "p" in fields or "m" in fields:  # the annotation decides the value
        key, angles = "p", _field(fields, "p", lists, _field(fields, "m", levels))
    if mnemonic == "RY" and len(angles) != 1:
        raise ValueError(f"field {key}=: RY takes one angle, got {len(angles)}")
    if len(angles) != decimals:
        raise ValueError(f"field p=: {len(angles)} numerators for {decimals} angles")
    controls = _field(fields, "c", lists)
    if mnemonic == "RY":
        return RotationY(angles[0], _field(fields, "q"), controls)
    return DiagonalOracle(_field(fields, "reg", lists), angles,
                          _field(fields, "j"), controls)


def parse_circuit(text: str) -> tuple[int, Circuit]:
    """Returns (data qubit count, circuit) from gate-list text.  A refusal
    names its line, counted from 1 over every line of ``text``."""
    lines = [(number, stripped) for number, line in enumerate(text.splitlines(), 1)
             if (stripped := line.strip())]
    if not lines or not lines[0][1].startswith(_HEADER + " "):
        raise ValueError(f"missing '{_HEADER}' header line")
    number, header = lines[0]
    # Peel's CZP qubit lists, a round's 2t DIAG phases and the m= levels
    # repeat: read each once.
    lists, levels = functools.cache(_parse_list), functools.cache(_level)
    try:
        fields = _parse_fields(_HEADER, header.split()[3:])
        data_qubits, num_qubits = _field(fields, "n"), _field(fields, "qubits")
        if num_qubits >= 1 and not 1 <= data_qubits <= num_qubits:  # else Circuit refuses
            raise ValueError(f"n={data_qubits} outside [1, {num_qubits}]")
        gates = []
        for number, line in lines[1:]:  # names the line that raises
            if not line.startswith("#"):
                gates.append(_parse_gate_line(line, lists, levels))
    except ValueError as exc:
        raise ValueError(f"line {number}: {exc}") from None
    try:
        return data_qubits, Circuit(num_qubits, tuple(gates))
    except ValueError as exc:  # Circuit names no line: find it only now
        number = lines[0][0]  # Circuit checks the header's qubits= before any gate
        numbers = (number for number, line in lines[1:] if not line.startswith("#"))
        for gate_number, gate in zip(numbers, gates if num_qubits >= 1 else ()):
            try:
                validate_gate(gate, num_qubits)
            except ValueError:
                number = gate_number
                break
        raise ValueError(f"line {number}: {exc}") from None


def load_circuit(path) -> tuple[int, Circuit]:
    with open(path) as handle:
        return parse_circuit(handle.read())
