"""System definitions: direct sums of 2x2 gain-loss blocks and real levels.

A :class:`PTBlock` is the three-parameter complex-symmetric block

    [[r e^{i theta}, s],
     [s, r e^{-i theta}]]

with coupling ``s > 0``; a :class:`RealLevel` is a decoupled 1x1 real entry.
A :class:`HamiltonianSpec` is an ordered direct sum of these, in any order
and multiplicity.

Each block also has a spectral :class:`Phase`: :func:`classify` is the one
phase rule, and a spec's ``phases`` applies it once per block and keeps
the answer.  :func:`require_unbroken` is the one phase gate for anything
that needs eigenvectors.  None of this touches an array, so this module
imports numpy only when :func:`block_matrix` or :func:`assemble` first
builds one: the CLI refuses a config or a phase without loading it.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PTBlock",
    "RealLevel",
    "Block",
    "HamiltonianSpec",
    "Phase",
    "NotUnbrokenError",
    "EXCEPTIONAL_BAND",
    "classify",
    "require_unbroken",
    "block_width",
    "block_matrix",
    "assemble",
    "dimension",
    "block_offsets",
]

# Relative half-width of the band around |r sin theta| = s classified as
# exceptional.  Inside it cos(phi) -> 0 and the closed-form normalisation
# 1/sqrt(2 cos phi) loses all precision, so we refuse to diagonalise.
EXCEPTIONAL_BAND = 1e-9


class Phase(enum.Enum):
    """Spectral regime of a single block."""

    UNBROKEN = "unbroken"
    EXCEPTIONAL = "exceptional"
    BROKEN = "broken"


class NotUnbrokenError(ValueError):
    """An operation requiring real spectra met a non-unbroken block."""


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

    @cached_property
    def phases(self) -> tuple[Phase, ...]:
        """Each block's phase, computed on first use and kept: :func:`classify`
        of a 2x2 block, unbroken for a level."""
        return tuple(
            classify(b) if isinstance(b, PTBlock) else Phase.UNBROKEN for b in self.blocks
        )


def classify(block: PTBlock) -> Phase:
    """Spectral regime of a block from the sign of s - |r sin(theta)|."""
    x = abs(block.r * math.sin(block.theta))
    if abs(block.s - x) <= EXCEPTIONAL_BAND * max(block.s, x):
        return Phase.EXCEPTIONAL
    return Phase.UNBROKEN if x < block.s else Phase.BROKEN


def require_unbroken(i: int, phase: Phase) -> None:
    """The phase gate: refuse block ``i`` unless ``phase`` is unbroken."""
    if phase is not Phase.UNBROKEN:
        raise NotUnbrokenError(
            f"block {i} is {phase.value}; "
            "eigenvectors exist only in the unbroken phase "
            "(eigenvalues-only spectra are still available)"
        )


def block_width(block: Block) -> int:
    """Matrix dimension contributed by one block (2 or 1)."""
    return 2 if isinstance(block, PTBlock) else 1


def block_matrix(block: Block) -> np.ndarray:
    """The dense matrix of a single block."""
    import numpy as np

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
    from .linalg import direct_sum

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
