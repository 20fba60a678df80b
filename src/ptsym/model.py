"""System definitions: direct sums of 2x2 gain-loss blocks and real levels.

A :class:`PTBlock` is the three-parameter complex-symmetric block

    [[r e^{i theta}, s],
     [s, r e^{-i theta}]]

with coupling ``s > 0``; a :class:`RealLevel` is a decoupled 1x1 real entry.
A :class:`HamiltonianSpec` is an ordered direct sum of these, in any order
and multiplicity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .linalg import direct_sum

__all__ = [
    "PTBlock",
    "RealLevel",
    "Block",
    "HamiltonianSpec",
    "block_width",
    "block_matrix",
    "assemble",
    "dimension",
    "block_offsets",
]


@dataclass(frozen=True)
class PTBlock:
    """Parameters (r, theta, s) of one 2x2 block; theta is in radians.

    Sign conventions are absorbed into theta, so ``r >= 0``; the coupling
    ``s`` must be strictly positive.
    """

    r: float
    theta: float
    s: float

    def __post_init__(self):
        for name in ("r", "theta", "s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"PTBlock.{name} must be finite, got {value!r}")
        if self.s <= 0:
            raise ValueError(f"PTBlock.s must be > 0, got {self.s!r}")
        if self.r < 0:
            raise ValueError(f"PTBlock.r must be >= 0, got {self.r!r}")
        # every eigenvalue modulus is at most r + s, so this bounds them all
        if not math.isfinite(self.r + self.s):
            raise ValueError(f"PTBlock.r + s must be finite, got {self.r!r} + {self.s!r}")


@dataclass(frozen=True)
class RealLevel:
    """A decoupled real diagonal entry."""

    a: float

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ValueError(f"RealLevel.a must be finite, got {self.a!r}")


Block = Union[PTBlock, RealLevel]


@dataclass(frozen=True)
class HamiltonianSpec:
    """Ordered, nonempty direct sum of blocks and levels."""

    blocks: tuple[Block, ...]

    def __init__(self, blocks):
        blocks = tuple(blocks)
        if not blocks:
            raise ValueError("HamiltonianSpec needs at least one block")
        for i, b in enumerate(blocks):
            if not isinstance(b, (PTBlock, RealLevel)):
                raise TypeError(f"blocks[{i}] is not a PTBlock or RealLevel: {b!r}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dimension(self) -> int:
        return dimension(self)


def block_width(block: Block) -> int:
    """Matrix dimension contributed by one block (2 or 1)."""
    return 2 if isinstance(block, PTBlock) else 1


def block_matrix(block: Block) -> np.ndarray:
    """The dense matrix of a single block."""
    if isinstance(block, RealLevel):
        return np.array([[block.a]], dtype=np.complex128)
    z = block.r * cmath.exp(1j * block.theta)
    return np.array([[z, block.s], [block.s, z.conjugate()]], dtype=np.complex128)


def assemble(spec: HamiltonianSpec) -> np.ndarray:
    """Build the full N x N matrix of ``spec``.

    The result is complex symmetric exactly (equal to its transpose
    bitwise), since each block places the same coupling float at (0, 1)
    and (1, 0).
    """
    return direct_sum([block_matrix(b) for b in spec.blocks])


def dimension(spec: HamiltonianSpec) -> int:
    """Total matrix dimension N of the direct sum."""
    return sum(block_width(b) for b in spec.blocks)


def block_offsets(spec: HamiltonianSpec) -> list[tuple[int, int]]:
    """(start_index, width) of each block; the offsets partition [0, N)."""
    offsets = []
    at = 0
    for b in spec.blocks:
        w = block_width(b)
        offsets.append((at, w))
        at += w
    return offsets
