"""Bilinear (complex-conjugate-space) pairing and the identities it induces.

The pairing used for all eigenvector algebra in this package is the plain
bilinear sum

    <u*||v> = sum_i u_i v_i

with *no* conjugation on the bra side: the bra of a ket is its transpose.
Under this pairing the closed-form eigenvectors of unbroken blocks are an
orthonormal family even though the Hamiltonian is not Hermitian, and the
usual spectral identities of Hermitian quantum mechanics hold verbatim:
orthonormality, energy expectation, spectral reconstruction, completeness.
Self-orthogonal vectors such as (1, i) exist in this geometry, which is why
broken-phase blocks (whose coalescing eigenvectors are exactly of that
kind) are refused rather than paired: every sum here, and the C and P of
:mod:`ptsym.symmetry`, goes through one phase gate that names the first
block that is not unbroken.

Eigenpairs carry only their block's entries (see
:class:`~ptsym.spectra.EigenPair`), and a list of block spectra is the
direct sum of its blocks in list order.  Each N x N sum below is therefore
one w x w sum per block, placed by :func:`~ptsym.linalg.direct_sum`:
entries between blocks are zero by construction and are never summed.
"""

from __future__ import annotations

import numpy as np

from .linalg import as_cvector, direct_sum, pow2_above
from .model import require_unbroken
from .spectra import BlockSpectrum

__all__ = [
    "ccs_inner",
    "bilinear_gram",
    "reconstruct",
    "completeness",
]


def ccs_inner(u, v) -> complex:
    """Bilinear pairing sum_i u_i v_i (symmetric, no conjugation)."""
    u = as_cvector(u)
    v = as_cvector(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return complex(np.dot(u, v))


def _check_unbroken(spectra: list[BlockSpectrum]) -> None:
    """The phase gate on a spectrum list: refuse any block that is not unbroken."""
    for i, bs in enumerate(spectra):
        require_unbroken(i, bs.phase)


def _blockwise_sum(spectra, term) -> np.ndarray:
    """The N x N direct sum over blocks of each block's w x w sum of
    ``term(pair)``, added in pair order."""
    spectra = list(spectra)
    _check_unbroken(spectra)
    return direct_sum([sum(term(pair) for pair in bs.pairs) for bs in spectra])


def bilinear_gram(spectra: list[BlockSpectrum]) -> np.ndarray:
    """Pairings ``ccs_inner(psi_m, psi_n)`` of all eigenpairs, in spectrum order.

    Eigenvectors of different blocks have disjoint supports, so only the
    pairings within each block are computed; the rest are zero.
    """
    spectra = list(spectra)
    _check_unbroken(spectra)
    return direct_sum(
        [[[ccs_inner(a.vector, b.vector) for b in bs.pairs] for a in bs.pairs] for bs in spectra]
    )


def reconstruct(spectra: list[BlockSpectrum]) -> np.ndarray:
    """Spectral sum  sum_n E_n |psi_n><psi_n*|  (equals the Hamiltonian).

    Each block's sum is formed from E_n / 2**k, with 2**k the
    :func:`~ptsym.linalg.pow2_above` the block's max |E_n|, and multiplied
    by 2**k: near the EP an outer product grows like sec(phi), so E_n times
    it can overflow although the sum, the block itself, does not.  The
    power-of-two scale changes no digit of a sum that stays a normal float.
    """
    spectra = list(spectra)
    _check_unbroken(spectra)
    sums = []
    for bs in spectra:
        scale = pow2_above(max(abs(p.value) for p in bs.pairs))
        terms = ((p.value / scale) * np.outer(p.vector, p.vector) for p in bs.pairs)
        sums.append(sum(terms) * scale)
    return direct_sum(sums)


def completeness(spectra: list[BlockSpectrum]) -> np.ndarray:
    """Resolution of the identity  sum_n |psi_n><psi_n*|."""
    return _blockwise_sum(spectra, lambda p: np.outer(p.vector, p.vector))
