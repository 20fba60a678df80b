"""Explicit C, P and T operators and the identities that tie them together.

The C operator is the signed spectral sum  sum_n (-1)^n |psi_n><psi_n*|
over the bilinear outer products; on each 2x2 block it evaluates to

    [[i tan(phi), sec(phi)],
     [sec(phi),  -i tan(phi)]]

and every real level contributes +1 on the diagonal.  Parity is recovered
from C through the *Hermitian* Gram matrix G = sum_n |psi_n><psi_n| of the
eigenvectors as P = G^{-1} C, which collapses to the block-exchange matrix
(an anti-diagonal swap per 2x2 block, +1 per level).  Time reversal is
fixed as the antilinear map T = I K with K entrywise conjugation, so
T^{-1} = T and the CPT identity applies T as a plain conjugation.  Every
operator is a plain N x N matrix; an antilinear one, A K, is passed as its
linear part A.  C and G are summed block by block from the block-local
eigenpairs, like the sums in :mod:`ptsym.ccs`.

On top of the operators this module provides the commutation residuals
([H, C], antilinear [H, P K], the full C-P-T conjugation identity) and the
matrix continued fraction F = C / (beta + C / (beta + ...)), a rational
function of C that inherits every commutation relation C satisfies.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .ccs import _blockwise_sum, ccs_expectation, outer
from .linalg import SingularMatrixError, as_cmatrix, frob_norm, max_abs, mat_inverse
from .model import HamiltonianSpec, block_offsets, dimension
from .spectra import BlockSpectrum

__all__ = [
    "build_C",
    "build_P",
    "parity_matrix",
    "commutator_norm",
    "antilinear_commutator_norm",
    "verify_cpt",
    "c_expectations",
    "cfrac_scalar",
    "cfrac_F",
]


def build_C(spectra: Sequence[BlockSpectrum]) -> np.ndarray:
    """Signed spectral sum  sum_n sign_n |psi_n><psi_n*|  (involutory)."""
    return _blockwise_sum(
        spectra, "build_C", lambda p: p.sign_index * outer(p.vector, p.vector)
    )


def build_P(spectra: Sequence[BlockSpectrum], c_matrix) -> np.ndarray:
    """Parity from the Gram-inverse route P = G^{-1} C.

    ``c_matrix`` is the C that :func:`build_C` made from the same
    ``spectra``.  G is the *Hermitian* Gram matrix sum_n |psi_n><psi_n|
    (conjugating bra), the one choice under which the product collapses to
    the real block-exchange matrix.
    """
    gram = _blockwise_sum(
        spectra, "build_P", lambda p: np.outer(p.vector, np.conj(p.vector))
    )
    return mat_inverse(gram) @ c_matrix


def parity_matrix(spec: HamiltonianSpec) -> np.ndarray:
    """Structural parity: anti-diagonal exchange per 2x2 block, +1 per level.

    Unlike :func:`build_P` this needs no spectral data, so it is available
    in every phase; on all-unbroken systems the two agree.
    """
    n = dimension(spec)
    out = np.zeros((n, n), dtype=np.complex128)
    for start, width in block_offsets(spec):
        if width == 2:
            out[start, start + 1] = 1.0
            out[start + 1, start] = 1.0
        else:
            out[start, start] = 1.0
    return out


def commutator_norm(h, m) -> float:
    """Frobenius norm of H M - M H."""
    h = as_cmatrix(h)
    m = as_cmatrix(m)
    if h.shape != m.shape or h.shape[0] != h.shape[1]:
        raise ValueError(f"need equal square shapes, got {h.shape} and {m.shape}")
    return frob_norm(h @ m - m @ h)


def antilinear_commutator_norm(h, a) -> float:
    """Commutation residual of H with the antilinear A K:  ||H A - A conj(H)||_F.

    ``a`` is the linear part A; K is entrywise conjugation.
    """
    h = as_cmatrix(h)
    a = as_cmatrix(a)
    if h.shape != a.shape:
        raise ValueError(f"dimension mismatch: {h.shape} vs {a.shape}")
    return frob_norm(h @ a - a @ np.conj(h))


def verify_cpt(h, c_matrix, p_matrix) -> float:
    """Max-norm distance of T^{-1} P^{-1} C^{-1} H C P T from H.

    The antilinear similarity by T = A K acts on a linear map M as
    conj(A^{-1} M A).  T is I K, so the full conjugation chain is
    conj(P^{-1} C^{-1} H C P).
    """
    h = as_cmatrix(h)
    inner = mat_inverse(c_matrix) @ h @ c_matrix
    return max_abs(np.conj(mat_inverse(p_matrix) @ inner @ p_matrix) - h)


def c_expectations(
    spectra: Sequence[BlockSpectrum], c_matrix
) -> list[tuple[str, complex]]:
    """Bilinear diagonal elements <psi_n*| C |psi_n>, labelled per pair.

    Each pair's local vector meets only C's diagonal block at its offset;
    the rest of the full eigenvector is zero.  Each element comes out equal
    to the pair's sign index (+1 or -1).  Labels are ``block<id>+`` /
    ``block<id>-``.
    """
    c_matrix = as_cmatrix(c_matrix)
    out = []
    for bs in spectra:
        for pair in bs.pairs:
            label = f"block{bs.block_id}{'+' if pair.sign_index > 0 else '-'}"
            o, w = pair.offset, pair.vector.shape[0]
            block = c_matrix[o : o + w, o : o + w]
            out.append((label, ccs_expectation(pair.vector, block, pair.vector)))
    return out


# Poles of the scalar continued fraction are detected relative to this scale.
_POLE_RTOL = 1e-12


def cfrac_scalar(lam: float, beta: float, depth: int) -> float:
    """Scalar continued fraction f_0 = lam, f_{k+1} = lam / (beta + f_k).

    This is the eigenvalue the matrix continued fraction takes on an
    eigenspace of C with eigenvalue ``lam``.

    Raises
    ------
    SingularMatrixError
        If any denominator beta + f_k lands on a pole.
    """
    guard = _POLE_RTOL * max(1.0, abs(beta))
    f = lam
    for _ in range(depth):
        denom = beta + f
        if abs(denom) <= guard:
            raise SingularMatrixError(
                f"continued fraction pole: beta + f = {denom:.3e} at eigenvalue {lam:+g}"
            )
        f = lam / denom
    return f


def cfrac_F(c_matrix, beta: float, depth: int) -> np.ndarray:
    """Matrix continued fraction F_0 = C, F_{k+1} = C (beta I + F_k)^{-1}.

    Expects an involutory C (spectrum {+1, -1}); the scalar recursion is
    run at both eigenvalues first, so a pole raises before any matrix
    inversion is attempted.  The result is a rational function of C and
    therefore commutes with everything C commutes with.

    Raises
    ------
    ValueError
        If ``beta`` is not finite or ``depth`` < 1.
    SingularMatrixError
        If the fraction hits a pole.
    """
    if not np.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth!r}")
    c_matrix = as_cmatrix(c_matrix)
    if c_matrix.shape[0] != c_matrix.shape[1]:
        raise ValueError(f"C must be square, got {c_matrix.shape}")
    for lam in (1.0, -1.0):
        cfrac_scalar(lam, beta, depth)
    eye = np.eye(c_matrix.shape[0], dtype=np.complex128)
    f = c_matrix.copy()
    for _ in range(depth):
        f = c_matrix @ mat_inverse(beta * eye + f)
    return f
