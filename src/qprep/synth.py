"""Synthesis of diagonal unitaries into products of multi-controlled phase gates.

The peel construction removes off-grid phase components one refinement level
at a time (finest level first) and, inside a level, one Hamming weight at a
time (single-qubit patterns first).  Each fix-up cascades onto every superset
pattern, which later weight passes absorb, so the emitted product reproduces
the target diagonal exactly on the grid.

No product of these phase gates can touch the all-zeros basis state, so a
nonzero phase there is split off first and recorded as ``global_phase`` on the
result.  ``global_phase_gates`` turns that scalar into an explicit gate block
(the phase applied separately to the 0- and 1-branches of one qubit), and
``SynthesisResult.product_gates`` prepends it so the materialized gate list
implements the full diagonal, entry zero included.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dyadic import DyadicPhase, PhaseSpec
from .sim import ControlledZPow, Gate, PauliX


@dataclass(frozen=True)
class SynthesisResult:
    num_qubits: int
    level: int
    gates: tuple[Gate, ...]
    global_phase: DyadicPhase

    def __post_init__(self) -> None:
        for gate in self.gates:
            if isinstance(gate, ControlledZPow) and abs(gate.level) > self.level:
                raise ValueError(
                    f"gate level {gate.level} exceeds synthesis level {self.level}"
                )

    @property
    def counts(self) -> dict[tuple[int, int], int]:
        return count_gate_list(self.gates)

    def product_gates(self) -> tuple[Gate, ...]:
        """Gate list whose product is the full diagonal, global phase included."""
        return global_phase_gates(self.global_phase) + self.gates


def count_gate_list(gates: tuple[Gate, ...]) -> dict[tuple[int, int], int]:
    """Occurrence counts keyed by (arity, level); PauliX counts as (1, 0)."""
    counts: dict[tuple[int, int], int] = {}
    for gate in gates:
        if isinstance(gate, ControlledZPow):
            key = (len(gate.qubits), gate.level)
        elif isinstance(gate, PauliX):
            key = (1, 0)
        else:
            raise TypeError(f"unexpected gate in synthesis result: {gate!r}")
        counts[key] = counts.get(key, 0) + 1
    return counts


def _ones_qubits(index: int, num_qubits: int) -> tuple[int, ...]:
    return tuple(
        q for q in range(num_qubits) if (index >> (num_qubits - 1 - q)) & 1
    )


def _phase_bit_gates(numerator: int, level: int,
                     qubits: tuple[int, ...]) -> list[Gate]:
    # One gate per set bit of the numerator: 2*pi*2**b/2**m = 2*pi/2**(m-b).
    gates: list[Gate] = []
    for b in reversed(range(level)):
        if (numerator >> b) & 1:
            gates.append(ControlledZPow(level - b, qubits))
    return gates


def global_phase_gates(phase: DyadicPhase, qubit: int = 0) -> tuple[Gate, ...]:
    """Gates multiplying every basis state by e^{i * phase.radians}.

    The phase is applied to the 1-branch of ``qubit`` directly and to its
    0-branch under PauliX conjugation, which together cover every index.
    """
    if phase.numerator == 0:
        return ()
    branch = _phase_bit_gates(phase.numerator, phase.level, (qubit,))
    return (*branch, PauliX(qubit), *branch, PauliX(qubit))


def peel_synthesize(spec: PhaseSpec) -> SynthesisResult:
    """Decompose diag(e^{i*2*pi*p_i/2**m}) into ControlledZPow gates.

    The gate list alone reproduces every entry relative to entry zero; the
    entry-zero phase is returned as ``global_phase``.  Gate count is at most
    level * (2**n - 1).
    """
    n, m = spec.num_qubits, spec.level
    size = 1 << n
    modulus = 1 << m
    residual = list(spec.numerators)
    global_phase = DyadicPhase(residual[0], m)
    if residual[0]:
        shift = residual[0]
        residual = [(p - shift) % modulus for p in residual]

    order = sorted(range(1, size), key=lambda i: (i.bit_count(), i))
    gates: list[Gate] = []
    for level in range(m, 0, -1):
        step = 1 << (m - level)
        for index in order:
            if residual[index] & step:
                # Level 1 is plain Z where both signs coincide; emit +1 there,
                # the inverse sign everywhere else.
                emitted = 1 if level == 1 else -level
                gates.append(ControlledZPow(emitted, _ones_qubits(index, n)))
                superset = index
                while superset < size:
                    residual[superset] = (residual[superset] + step) % modulus
                    superset = (superset + 1) | index
    return SynthesisResult(n, m, tuple(gates), global_phase)


def sparse_synthesize(spec: PhaseSpec, support: list[int]) -> SynthesisResult:
    """Synthesize a diagonal that is nonzero only on ``support``.

    Each supported index gets one fully controlled phase composite (one gate
    per set numerator bit), conjugated by PauliX on its zero bits so the phase
    lands on exactly that basis state.  Basic-gate count is at most
    |support| * (2n + level).
    """
    n, m = spec.num_qubits, spec.level
    if n < 1:
        raise ValueError("sparse synthesis needs at least one qubit")
    support_set = set(support)
    if len(support_set) != len(support):
        raise ValueError("support lists duplicate indices")
    for index in support_set:
        if not 0 <= index < (1 << n):
            raise ValueError(f"support index {index} outside [0, {1 << n})")
    for index, p in enumerate(spec.numerators):
        if p and index not in support_set:
            raise ValueError(
                f"entry {index} has nonzero phase but is outside the support"
            )

    all_qubits = tuple(range(n))
    gates: list[Gate] = []
    for index in sorted(support_set):
        p = spec.numerators[index]
        if p == 0:
            continue
        flips = tuple(
            q for q in range(n) if not (index >> (n - 1 - q)) & 1
        )
        for q in flips:
            gates.append(PauliX(q))
        gates.extend(_phase_bit_gates(p, m, all_qubits))
        for q in flips:
            gates.append(PauliX(q))
    return SynthesisResult(n, m, tuple(gates), DyadicPhase(0, m))


def reconstruct(result: SynthesisResult, num_qubits: int) -> PhaseSpec:
    """Integer-exact phase accumulated per basis index by the result's gates.

    PauliX gates flip which side of a qubit later phase gates see, so the
    sparse conjugation pattern reconstructs correctly.  The recorded global
    phase is added to every entry; reconstruct(peel_synthesize(s)) == s.
    """
    if num_qubits != result.num_qubits:
        raise ValueError(
            f"result is on {result.num_qubits} qubits, asked for {num_qubits}"
        )
    m = result.level
    size = 1 << num_qubits
    modulus = 1 << m
    accumulated = [result.global_phase.numerator] * size
    flip_mask = 0
    for gate in result.gates:
        if isinstance(gate, PauliX):
            flip_mask ^= 1 << (num_qubits - 1 - gate.target)
        elif isinstance(gate, ControlledZPow):
            magnitude = 1 << (m - abs(gate.level))
            contribution = magnitude if gate.level > 0 else -magnitude
            mask = 0
            for q in gate.qubits:
                mask |= 1 << (num_qubits - 1 - q)
            # Gate phase lands where the flipped index is a superset of mask.
            superset = mask
            while superset < size:
                index = superset ^ flip_mask
                accumulated[index] = (accumulated[index] + contribution) % modulus
                superset = (superset + 1) | mask
        else:
            raise TypeError(f"unexpected gate in synthesis result: {gate!r}")
    return PhaseSpec(num_qubits, m, tuple(accumulated))
