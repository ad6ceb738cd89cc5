"""Exact dyadic angles: integer multiples of 2*pi/2**level.

Angles on the uniform grid {2*pi*p/2**m : p = 0, ..., 2**m - 1} are carried
as the integer pair (p, m), and a ``PhaseSpec`` holds 2**n numerators at one
level (n read off their count), so synthesis and reconstruction run on
integers alone.  Quantization floors onto the grid, never rounds to nearest:
the grid value is the largest one not exceeding the input.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable

TAU = 2.0 * math.pi

# The finest grid: TAU * 2**level must stay a finite float, because grid
# angles are computed as TAU * p / 2**level.
MAX_LEVEL = sys.float_info.max_exp - math.ceil(math.log2(TAU))

# A grid point 2*pi*p/2**m recomputed through floats lands within a few ulps
# of p cells: a non-integer cell count within 8 eps of itself below p snaps to p.
_SNAP = 8.0 * sys.float_info.epsilon


def floor_fraction(fraction: float, level: int) -> int:
    """Largest p with p/2**level <= fraction, snapped against float noise.

    ``fraction`` is an angle in turns (angle / 2*pi) and must lie in [0, 1].
    A fraction of exactly 1.0 wraps onto the top grid cell 2**level - 1.
    """
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    if level > MAX_LEVEL:
        raise ValueError(f"level {level} exceeds the limit {MAX_LEVEL}")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction!r} outside [0, 1]")
    cells = 1 << level
    scaled = fraction * cells  # exact: cells is a power of two
    p = math.floor(scaled)
    if scaled - p >= 1.0 - scaled * _SNAP and scaled != p:
        p += 1
    return min(p, cells - 1)


@dataclass(frozen=True)
class PhaseSpec:
    """Grid phases at a common level, one per basis index: 2**num_qubits of them."""

    level: int
    numerators: tuple[int, ...]

    @property
    def num_qubits(self) -> int:
        return len(self.numerators).bit_length() - 1

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError(f"level must be >= 1, got {self.level}")
        if self.level > MAX_LEVEL:
            raise ValueError(f"level {self.level} exceeds the limit {MAX_LEVEL}")
        size = len(self.numerators)
        if size < 1 or size & (size - 1):
            raise ValueError(f"entry count {size} is not a power of two")
        cells = 1 << self.level
        if not (0 <= min(self.numerators) and max(self.numerators) < cells):
            index, p = next((index, p) for index, p in enumerate(self.numerators)
                            if not 0 <= p < cells)
            raise ValueError(f"entry {index}: numerator {p} outside [0, {cells})")

    def angles(self) -> tuple[float, ...]:
        cells = 1 << self.level
        return tuple(TAU * p / cells for p in self.numerators)


def quantize(angles: Iterable[float], level: int) -> PhaseSpec:
    """Floor each angle onto the 2**level grid.

    Angles must lie in [0, 2*pi) and the sequence length must be a power of
    two (one entry per basis index of some qubit count).
    """
    numerators = []
    for index, angle in enumerate(map(float, angles)):
        if not 0.0 <= angle < TAU:
            raise ValueError(f"angle {index} = {angle!r} outside [0, 2*pi)")
        numerators.append(floor_fraction(angle / TAU, level))
    return PhaseSpec(level, tuple(numerators))
