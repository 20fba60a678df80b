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
kind) are refused rather than paired.

Eigenpairs carry only their block's entries plus an offset (see
:class:`~ptsym.spectra.EigenPair`).  The N x N sums below are therefore
formed block by block: each pair's w x w outer product lands on its own
diagonal block, and entries between blocks are zero by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_cmatrix, as_cvector
from .spectra import BlockSpectrum, NotUnbrokenError, Phase

__all__ = [
    "CCSBra",
    "ccs_inner",
    "ccs_expectation",
    "outer",
    "bilinear_gram",
    "reconstruct",
    "completeness",
]


@dataclass(frozen=True)
class CCSBra:
    """Row functional u -> sum_i row_i u_i (the transpose of a ket)."""

    row: np.ndarray

    def __post_init__(self):
        row = as_cvector(self.row)
        row.flags.writeable = False
        object.__setattr__(self, "row", row)

    def pair(self, ket) -> complex:
        return ccs_inner(self.row, ket)


def ccs_inner(u, v) -> complex:
    """Bilinear pairing sum_i u_i v_i (symmetric, no conjugation)."""
    u = as_cvector(u)
    v = as_cvector(v)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return complex(np.dot(u, v))


def ccs_expectation(u, matrix, v) -> complex:
    """Bilinear matrix element <u*| M |v> = ccs_inner(u, M v)."""
    matrix = as_cmatrix(matrix)
    v = as_cvector(v)
    if matrix.shape[1] != v.shape[0]:
        raise ValueError(f"dimension mismatch: {matrix.shape} @ {v.shape}")
    return ccs_inner(u, matrix @ v)


def outer(u, v) -> np.ndarray:
    """Rank-1 matrix |u><v*| with entries u_i v_j (no conjugation)."""
    return np.outer(as_cvector(u), as_cvector(v))


def _check_unbroken(spectra: list[BlockSpectrum], what: str) -> int:
    """Validate phases and that the blocks' offsets tile [0, N); return N."""
    spans = []
    for bs in spectra:
        if bs.phase is not Phase.UNBROKEN:
            raise NotUnbrokenError(
                f"{what} needs all-unbroken spectra; block {bs.block_id} "
                f"is {bs.phase.value}"
            )
        spans.extend({(pair.offset, pair.vector.shape[0]) for pair in bs.pairs})
    n = 0
    for start, width in sorted(spans):
        if start != n:
            raise ValueError(
                f"eigenpair offsets do not tile [0, N): a block starts at {start}, "
                f"expected {n}"
            )
        n += width
    return n


def _blockwise_sum(spectra, what: str, term) -> np.ndarray:
    """The N x N sum over eigenpairs of ``term(pair)``, a w x w matrix on the
    pair's own block ``[offset, offset + w)``.

    Each term is the nonzero part of a rank-1 outer product of a full
    eigenvector, so entries between different blocks are zero by
    construction and are never summed.
    """
    spectra = list(spectra)
    n = _check_unbroken(spectra, what)
    out = np.zeros((n, n), dtype=np.complex128)
    for bs in spectra:
        for pair in bs.pairs:
            o, w = pair.offset, pair.vector.shape[0]
            out[o : o + w, o : o + w] += term(pair)
    return out


def bilinear_gram(spectra: list[BlockSpectrum]) -> np.ndarray:
    """Pairings ``ccs_inner(psi_m, psi_n)`` of all eigenpairs, in spectrum order.

    Eigenvectors of different blocks have disjoint supports, so only the
    pairings within each block are computed; the rest are zero.
    """
    spectra = list(spectra)
    n = _check_unbroken(spectra, "bilinear_gram")
    out = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for bs in spectra:
        for i, a in enumerate(bs.pairs):
            for j, b in enumerate(bs.pairs):
                out[at + i, at + j] = ccs_inner(a.vector, b.vector)
        at += len(bs.pairs)
    return out


def reconstruct(spectra: list[BlockSpectrum]) -> np.ndarray:
    """Spectral sum  sum_n E_n |psi_n><psi_n*|  (equals the Hamiltonian)."""
    return _blockwise_sum(
        spectra, "reconstruct", lambda p: p.value * outer(p.vector, p.vector)
    )


def completeness(spectra: list[BlockSpectrum]) -> np.ndarray:
    """Resolution of the identity  sum_n |psi_n><psi_n*|."""
    return _blockwise_sum(spectra, "completeness", lambda p: outer(p.vector, p.vector))
