"""Closed-form eigen-analysis of gain-loss blocks.

A 2x2 block [[r e^{i theta}, s], [s, r e^{-i theta}]] has the real spectrum

    E_pm = r cos(theta) +- s cos(phi),    sin(phi) = r sin(theta) / s,

whenever |r sin(theta)| < s (the unbroken regime).  The matching
eigenvectors, in the convention used throughout this package, are

    psi_+ = (e^{i phi/2},  e^{-i phi/2}) / sqrt(2 cos phi)
    psi_- = (e^{-i phi/2}, -e^{i phi/2}) / sqrt(2 cos phi)

normalised so that the *bilinear* pairing (see :mod:`ptsym.ccs`) of each
vector with itself is one.  At |r sin(theta)| = s the two eigenvectors
coalesce and the matrix is defective; beyond it the eigenvalues form a
complex-conjugate pair.  The phase convention is fixed exactly as above so
that operator constructions downstream come out entrywise, not merely up
to gauge.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    HamiltonianSpec,
    PTBlock,
    RealLevel,
    block_offsets,
)

__all__ = [
    "Phase",
    "EigenPair",
    "BlockSpectrum",
    "NotUnbrokenError",
    "NotBrokenError",
    "EXCEPTIONAL_BAND",
    "classify",
    "phase_angle",
    "eigen_block",
    "eigen_broken",
    "full_spectrum",
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


class NotBrokenError(ValueError):
    """A broken-phase-only operation was applied to an unbroken block."""


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with its right eigenvector and sign label.

    ``sign_index`` is +1 for the upper branch (and for levels), -1 for the
    lower branch; it is the eigenvalue of the C operator on this state.
    ``vector`` holds only the block's own entries (length 2 for a block,
    1 for a level), stored read-only; ``offset`` is the index in [0, N) of
    its first entry.  Every other entry of the full eigenvector is zero, so
    :meth:`embedded` recovers it.
    """

    value: complex
    vector: np.ndarray
    sign_index: int
    block_id: int
    offset: int = 0

    def __post_init__(self):
        vec = np.array(self.vector, dtype=np.complex128)
        vec.flags.writeable = False
        object.__setattr__(self, "vector", vec)
        if self.sign_index not in (+1, -1):
            raise ValueError(f"sign_index must be +1 or -1, got {self.sign_index!r}")

    @property
    def bra(self) -> np.ndarray:
        """Row of the bilinear bra: the plain transpose, no conjugation."""
        return self.vector

    def embedded(self, n: int) -> np.ndarray:
        """The full length-``n`` eigenvector: ``vector`` at ``offset``, zeros elsewhere."""
        out = np.zeros(n, dtype=np.complex128)
        out[self.offset : self.offset + self.vector.shape[0]] = self.vector
        return out


@dataclass(frozen=True)
class BlockSpectrum:
    """Eigen-data of one block.

    ``pairs`` is populated only in the unbroken phase; ``values`` always
    carries the eigenvalues (a conjugate pair in the broken phase, a
    doubly-degenerate real value at an exceptional point).  ``phi`` is the
    unbroken phase angle (0.0 for a real level, None otherwise).
    """

    block_id: int
    phase: Phase
    phi: float | None
    pairs: tuple[EigenPair, ...]
    values: tuple[complex, ...]


def classify(block: PTBlock) -> Phase:
    """Spectral regime of a block from the sign of s - |r sin(theta)|."""
    x = abs(block.r * math.sin(block.theta))
    if abs(block.s - x) <= EXCEPTIONAL_BAND * max(block.s, x):
        return Phase.EXCEPTIONAL
    return Phase.UNBROKEN if x < block.s else Phase.BROKEN


def phase_angle(block: PTBlock) -> float:
    """The angle phi with sin(phi) = r sin(theta) / s, principal branch."""
    ratio = block.r * math.sin(block.theta) / block.s
    if abs(ratio) >= 1.0:
        raise NotUnbrokenError(
            f"|r sin(theta)|/s = {abs(ratio):.6g} >= 1: no real phase angle"
        )
    return math.asin(ratio)


def eigen_block(block: PTBlock, block_id: int = 0) -> BlockSpectrum:
    """Closed-form eigenvalues and bilinear-normalised eigenvectors.

    Only defined in the unbroken phase, where both eigenvalues are real.

    Raises
    ------
    NotUnbrokenError
        If the block is exceptional or broken (the normalisation
        1/sqrt(2 cos phi) diverges at the exceptional point).
    """
    phase = classify(block)
    if phase is not Phase.UNBROKEN:
        raise NotUnbrokenError(
            f"block {block_id} is {phase.value}; eigen_block needs the unbroken phase"
        )
    phi = phase_angle(block)
    scale = 1.0 / math.sqrt(2.0 * math.cos(phi))
    half = cmath.exp(0.5j * phi)
    plus_vec = scale * np.array([half, half.conjugate()], dtype=np.complex128)
    minus_vec = scale * np.array([half.conjugate(), -half], dtype=np.complex128)
    base = block.r * math.cos(block.theta)
    split = block.s * math.cos(phi)
    e_plus = complex(base + split)
    e_minus = complex(base - split)
    pairs = (
        EigenPair(e_plus, plus_vec, +1, block_id),
        EigenPair(e_minus, minus_vec, -1, block_id),
    )
    return BlockSpectrum(block_id, Phase.UNBROKEN, phi, pairs, (e_plus, e_minus))


def eigen_broken(block: PTBlock) -> tuple[complex, complex]:
    """Conjugate eigenvalue pair r cos(theta) +- i sqrt(r^2 sin^2(theta) - s^2).

    The two returned values are exact complex conjugates of each other.

    Raises
    ------
    NotBrokenError
        If the block is not in the broken phase.
    """
    if classify(block) is not Phase.BROKEN:
        raise NotBrokenError("eigen_broken needs a broken-phase block")
    x = block.r * math.sin(block.theta)
    width = math.sqrt(x * x - block.s * block.s)
    upper = complex(block.r * math.cos(block.theta), width)
    return upper, upper.conjugate()


def full_spectrum(
    spec: HamiltonianSpec, allow_broken: bool = False
) -> list[BlockSpectrum]:
    """Per-block spectra, each eigenpair tagged with its block's offset.

    Eigenvectors keep only their block's entries; ``pair.offset`` places
    them in the full dimension N (see :meth:`EigenPair.embedded`).  A real
    level contributes an unbroken one-member spectrum: eigenvalue ``a``,
    the local vector ``[1]`` at its offset, sign +1.

    With ``allow_broken=True`` non-unbroken blocks are reported
    eigenvalues-only (empty ``pairs``); otherwise they raise
    :class:`NotUnbrokenError` naming the offending block.
    """
    out: list[BlockSpectrum] = []
    for block_id, (block, (start, _width)) in enumerate(
        zip(spec.blocks, block_offsets(spec))
    ):
        if isinstance(block, RealLevel):
            value = complex(block.a)
            pair = EigenPair(value, np.ones(1), +1, block_id, start)
            out.append(BlockSpectrum(block_id, Phase.UNBROKEN, 0.0, (pair,), (value,)))
            continue
        phase = classify(block)
        if phase is Phase.UNBROKEN:
            local = eigen_block(block, block_id)
            pairs = tuple(
                EigenPair(p.value, p.vector, p.sign_index, block_id, start)
                for p in local.pairs
            )
            out.append(BlockSpectrum(block_id, phase, local.phi, pairs, local.values))
        elif not allow_broken:
            raise NotUnbrokenError(
                f"block {block_id} is {phase.value}; "
                "eigenvectors exist only in the unbroken phase "
                "(eigenvalues-only spectra are still available)"
            )
        elif phase is Phase.BROKEN:
            out.append(BlockSpectrum(block_id, phase, None, (), eigen_broken(block)))
        else:
            # Exceptional: doubly-degenerate real eigenvalue, defective matrix.
            value = complex(block.r * math.cos(block.theta))
            out.append(BlockSpectrum(block_id, phase, None, (), (value, value)))
    return out
