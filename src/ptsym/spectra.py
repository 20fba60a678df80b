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

:func:`full_spectrum` is the one way to a block's closed form: it reads
each block's phase from the spec (:func:`~ptsym.model.classify` of
|r sin(theta)| / s, computed once per block and kept) and computes the
closed form of that phase once.  A single block's spectrum is
``full_spectrum(HamiltonianSpec([block]))[0]``.

A list of block spectra is the direct sum of its blocks in list order, as
the spec is: a spectrum's place in the list is the only record of which
block it describes and where that block's entries sit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# the phase rule lives with the block types, numpy-free; it is re-exported here
from .model import (
    EXCEPTIONAL_BAND,
    Block,
    HamiltonianSpec,
    NotUnbrokenError,
    Phase,
    RealLevel,
    classify,
)

__all__ = [
    "Phase",
    "EigenPair",
    "BlockSpectrum",
    "NotUnbrokenError",
    "EXCEPTIONAL_BAND",
    "classify",
    "full_spectrum",
]


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with its right eigenvector and sign label.

    ``sign_index`` is +1 for the upper branch (and for levels), -1 for the
    lower branch; it is the eigenvalue of the C operator on this state.
    ``vector`` holds only the block's own entries (length 2 for a block,
    1 for a level), stored read-only; the full eigenvector is zero outside
    the block, whose place is that of its spectrum in the list.
    """

    value: complex
    vector: np.ndarray
    sign_index: int

    def __post_init__(self):
        vec = np.array(self.vector, dtype=np.complex128)
        vec.flags.writeable = False
        object.__setattr__(self, "vector", vec)
        if self.sign_index not in (+1, -1):
            raise ValueError(f"sign_index must be +1 or -1, got {self.sign_index!r}")


@dataclass(frozen=True)
class BlockSpectrum:
    """Eigen-data of one block.

    ``pairs`` is populated only in the unbroken phase; ``values`` always
    carries the eigenvalues (a conjugate pair in the broken phase, a
    doubly-degenerate real value at an exceptional point).  ``phi`` is the
    unbroken phase angle (0.0 for a real level, None otherwise).
    """

    phase: Phase
    phi: float | None
    pairs: tuple[EigenPair, ...]
    values: tuple[complex, ...]


def _block_spectrum(block: Block, phase: Phase) -> BlockSpectrum:
    """The closed form of one block or level in its ``phase``."""
    if isinstance(block, RealLevel):
        value = complex(block.a)
        pair = EigenPair(value, np.ones(1), +1)
        return BlockSpectrum(Phase.UNBROKEN, 0.0, (pair,), (value,))
    base = block.r * math.cos(block.theta)
    if phase is Phase.EXCEPTIONAL:
        # doubly-degenerate real eigenvalue, defective matrix
        value = complex(base)
        return BlockSpectrum(phase, None, (), (value, value))
    if phase is Phase.BROKEN:
        # r cos(theta) +- i x sqrt((1 - t)(1 + t)), x = |r sin(theta)|, t = s / x:
        # the width neither overflows for large x nor cancels near the EP
        x = abs(block.r * math.sin(block.theta))
        t = block.s / x
        upper = complex(base, x * math.sqrt((1.0 - t) * (1.0 + t)))
        return BlockSpectrum(phase, None, (), (upper, upper.conjugate()))
    phi = math.asin(block.r * math.sin(block.theta) / block.s)
    scale = 1.0 / math.sqrt(2.0 * math.cos(phi))
    half = cmath.exp(0.5j * phi)
    split = block.s * math.cos(phi)
    e_plus = complex(base + split)
    e_minus = complex(base - split)
    pairs = (
        EigenPair(e_plus, scale * np.array([half, half.conjugate()]), +1),
        EigenPair(e_minus, scale * np.array([half.conjugate(), -half]), -1),
    )
    return BlockSpectrum(phase, phi, pairs, (e_plus, e_minus))


def full_spectrum(spec: HamiltonianSpec) -> list[BlockSpectrum]:
    """Per-block spectra, in block order.

    Eigenvectors keep only their block's entries; a block's place in the
    full dimension N is its place in the list.  A real level contributes an
    unbroken one-member spectrum: eigenvalue ``a``, the local vector
    ``[1]``, sign +1.

    Every block is described.  Exceptional and broken blocks come back
    eigenvalues-only (empty ``pairs``); whatever needs their eigenvectors
    refuses them (see :mod:`ptsym.ccs`).
    """
    return [_block_spectrum(b, phase) for b, phase in zip(spec.blocks, spec.phases)]
