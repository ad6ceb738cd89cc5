"""Synthesis of diagonal unitaries into products of multi-controlled phase gates.

A ControlledZPow gate on the qubits of pattern i shifts the phase of exactly
the indices x that are supersets of i.  The peel construction emits
inverse-sign gates, so its words c_i (the phase taken away at pattern i, in
units of 2*pi/2**m) satisfy sum_{i subset of x} c_i = p(0) - p(x) (mod 2**m).
Moebius inversion makes that solution unique: the integer Moebius transform
of p(0) - p, n butterfly passes.  Bit b of a word is one gate of level m - b.

No product of these phase gates can touch the all-zeros basis state, so a
nonzero phase there is split off first and recorded as ``global_phase``, its
numerator at the result's level.  ``global_phase_gates`` turns that scalar
into an explicit gate block (the phase applied separately to the 0- and
1-branches of one qubit), and ``SynthesisResult.product_gates`` prepends it so
the materialized gate list implements the full diagonal, entry zero included.

``reconstruct`` is the integer-exact check that a result realizes its
diagonal.  It runs the opposite transform: one word per pattern from a pass
over the gates, then the subset sums (zeta transform), n butterfly passes at
most, so O(gates + n*2**n) for a peel result and O(gates + 2**n) for a sparse
one.  It is written apart from the peel transform and shares no code with it,
so the check stays independent of what it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dyadic import PhaseSpec
from .sim import ControlledZPow, Gate, PauliX


@dataclass(frozen=True)
class SynthesisResult:
    register: tuple[int, ...]  # the gates' qubits, most significant index bit first
    level: int
    gates: tuple[Gate, ...]
    global_phase: int  # numerator of 2*pi*global_phase/2**level

    @property
    def num_qubits(self) -> int:
        return len(self.register)

    def __post_init__(self) -> None:
        for gate in self.gates:
            if isinstance(gate, ControlledZPow) and abs(gate.level) > self.level:
                raise ValueError(f"gate level {gate.level} exceeds synthesis level {self.level}")

    def product_gates(self) -> tuple[Gate, ...]:
        """Gate list whose product is the full diagonal, global phase included."""
        return (global_phase_gates(self.global_phase, self.level, *self.register[:1])
                + self.gates)


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


def _phase_bit_gates(numerator: int, level: int,
                     qubits: tuple[int, ...]) -> list[Gate]:
    # One gate per set bit of the numerator: 2*pi*2**b/2**m = 2*pi/2**(m-b).
    return [ControlledZPow(level - b, qubits) for b in reversed(range(level))
            if (numerator >> b) & 1]


def global_phase_gates(numerator: int, level: int,
                       qubit: int = 0) -> tuple[Gate, ...]:
    """Gates multiplying every basis state by e^{2*pi*i * numerator/2**level}.

    The phase is applied to the 1-branch of ``qubit`` directly and to its
    0-branch under PauliX conjugation, which together cover every index.
    """
    if numerator == 0:
        return ()
    branch = _phase_bit_gates(numerator, level, (qubit,))
    return (*branch, PauliX(qubit), *branch, PauliX(qubit))


def peel_synthesize(spec: PhaseSpec,
                    register: tuple[int, ...] | None = None) -> SynthesisResult:
    """Decompose diag(e^{i*2*pi*p_i/2**m}) into ControlledZPow gates on
    ``register`` (default qubits 0..n-1, most significant index bit first).

    The gate list alone reproduces every entry relative to entry zero; the
    entry-zero phase is returned as ``global_phase``.  Gate count is at most
    level * (2**n - 1).

    The words are c = Moebius(p_0 - p) mod 2**m.  They are what the peel loop
    emits: finest level first, patterns in (popcount, index) order, each set
    residual bit giving ControlledZPow(-level) and a carry onto every
    superset.  That loop ends with residual zero, so its gates solve the same
    subset sum, whose solution is unique.  Gates come out in the loop's order,
    with level 1, where both signs coincide, emitted as +1.
    """
    n, m = spec.num_qubits, spec.level
    register = tuple(range(n)) if register is None else tuple(register)
    if len(register) != n:
        raise ValueError(f"{n}-qubit spec on a register of {len(register)} qubits")
    size, mask, shift = 1 << n, (1 << m) - 1, spec.numerators[0]
    words = [(shift - p) & mask for p in spec.numerators]
    for half in (1 << b for b in range(n)):
        for start in range(half, size, 2 * half):
            words[start:start + half] = [(high - low) & mask for high, low in zip(
                words[start:start + half], words[start - half:start])]
    # ones[i]: the register qubits of the set bits of index i, in order.
    ones: list[tuple[int, ...]] = [()]
    for q in reversed(register):
        ones += [(q, *rest) for rest in ones]
    patterns = [(words[i], ones[i]) for i in sorted(
        range(1, size), key=lambda i: (i.bit_count(), i)) if words[i]]
    gates: list[Gate] = []
    for level in range(m, 0, -1):
        bit, emitted = m - level, (1 if level == 1 else -level)
        gates.extend(ControlledZPow(emitted, qubits)
                     for word, qubits in patterns if (word >> bit) & 1)
    return SynthesisResult(register, m, tuple(gates), shift)


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
            raise ValueError(f"entry {index} has nonzero phase but is outside the support")

    all_qubits = tuple(range(n))
    gates: list[Gate] = []
    for index in sorted(i for i in support_set if spec.numerators[i]):
        flips = [PauliX(q) for q in range(n) if not (index >> (n - 1 - q)) & 1]
        gates += flips + _phase_bit_gates(spec.numerators[index], m, all_qubits) + flips
    return SynthesisResult(all_qubits, m, tuple(gates), 0)


def reconstruct(result: SynthesisResult) -> PhaseSpec:
    """Integer-exact phase accumulated per basis index by the result's gates.

    A ControlledZPow on pattern P adds +-2**(m - |level|) to every index that
    is a superset of P.  One pass over the gates sums these onto one word per
    pattern, the global phase onto word 0.  The phases are the subset sums
    of the words (zeta transform, n butterfly passes), reduced mod 2**m once;
    a pass runs only along a bit that some word's pattern leaves clear.
    PauliX gates flip which side of a qubit later phase gates see.  A gate
    flipped on one of its own qubits (sparse synthesis emits these, on full
    patterns) is added directly at its 2**(n - |P|) indices.  The cost is
    O(gates + n*2**n) for a peel result and O(gates + 2**n) for a sparse
    one.  The transform shares no code with ``peel_synthesize``, which it
    checks.

    Index bits are read through the result's register.  A qubit outside it
    raises KeyError, a gate other than PauliX and ControlledZPow TypeError,
    and a global phase outside [0, 2**m) ValueError.
    reconstruct(peel_synthesize(s)) == s.
    """
    m, num_qubits = result.level, result.num_qubits
    size = 1 << num_qubits
    modulus = 1 << m
    if not 0 <= result.global_phase < modulus:
        raise ValueError(f"global phase {result.global_phase} outside [0, {modulus})")
    index_bit = {q: 1 << (num_qubits - 1 - k) for k, q in enumerate(result.register)}
    masks: dict[tuple[int, ...], int] = {}
    words = [0] * size
    words[0] = result.global_phase
    # Bits set in every pattern that holds a word (the global phase holds
    # pattern 0): a butterfly along one of them would add only zeros.
    common = size - 1 if result.global_phase == 0 else 0
    flipped: list[tuple[int, int, int]] = []
    flip_mask = 0
    for gate in result.gates:
        if isinstance(gate, PauliX):
            flip_mask ^= index_bit[gate.target]
        elif isinstance(gate, ControlledZPow):
            magnitude = 1 << (m - abs(gate.level))
            contribution = magnitude if gate.level > 0 else -magnitude
            mask = masks.get(gate.qubits)
            if mask is None:
                mask = 0
                for q in gate.qubits:
                    mask |= index_bit[q]
                masks[gate.qubits] = mask
            if mask & flip_mask:
                flipped.append((mask, flip_mask, contribution))
            else:
                words[mask] += contribution
                common &= mask
        else:
            raise TypeError(f"unexpected gate in synthesis result: {gate!r}")
    for half in (1 << b for b in range(num_qubits)):
        if half & common:
            continue
        for start in range(half, size, 2 * half):
            words[start:start + half] = [high + low for high, low in zip(
                words[start:start + half], words[start - half:start])]
    for mask, flip, contribution in flipped:
        # The phase lands where the flipped index is a superset of mask.
        superset = mask
        while superset < size:
            words[superset ^ flip] += contribution
            superset = (superset + 1) | mask
    return PhaseSpec(m, tuple([word % modulus for word in words]))
