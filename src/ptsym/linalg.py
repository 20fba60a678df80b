"""Dense complex linear algebra for small matrices.

Everything in this package runs on plain ``numpy`` arrays of dtype
``complex128``.  Systems are tiny (N <= ~64), so inversion is done with
explicit partial-pivot Gauss-Jordan elimination: unlike a library inverse,
it carries a hard pivot threshold and raises :class:`SingularMatrixError`
instead of silently returning a garbage inverse near a pole.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SingularMatrixError",
    "as_cmatrix",
    "as_cvector",
    "mat_inverse",
    "frob_norm",
    "max_abs",
    "direct_sum",
]

# Relative pivot threshold for Gauss-Jordan elimination: a pivot passes only
# if |pivot| > PIVOT_RTOL * max|entry of the input matrix|.
PIVOT_RTOL = 1e-12


class SingularMatrixError(ValueError):
    """Inversion hit a pivot below the singularity threshold."""


def as_cmatrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite, C-ordered complex128 matrix (always a copy)."""
    m = np.array(a, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size == 0:
        raise ValueError("empty matrix")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def as_cvector(v) -> np.ndarray:
    """Coerce ``v`` to a finite 1-D complex128 vector (always a copy)."""
    w = np.array(v, dtype=np.complex128)
    if w.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got ndim={w.ndim}")
    if w.size == 0:
        raise ValueError("empty vector")
    if not np.isfinite(w).all():
        raise ValueError("vector has non-finite entries")
    return w


def mat_inverse(a) -> np.ndarray:
    """Invert a square matrix by partial-pivot Gauss-Jordan elimination.

    Raises
    ------
    SingularMatrixError
        If any pivot falls at or below ``PIVOT_RTOL * max|a_ij|``.
    """
    a = as_cmatrix(a)
    n, m = a.shape
    if n != m:
        raise ValueError(f"cannot invert non-square matrix of shape {a.shape}")
    threshold = PIVOT_RTOL * max_abs(a)
    aug = np.hstack([a, np.eye(n, dtype=np.complex128)])
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(aug[col:, col])))
        pivot = abs(aug[pivot_row, col])
        if pivot <= threshold:
            raise SingularMatrixError(
                f"pivot {pivot:.3e} at column {col} below threshold {threshold:.3e}"
            )
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        aug[col] = aug[col] / aug[col, col]
        coeffs = aug[:, col].copy()
        coeffs[col] = 0.0
        aug -= np.outer(coeffs, aug[col])
    return np.ascontiguousarray(aug[:, n:])


def frob_norm(a) -> float:
    """Frobenius norm, sqrt(sum of squared entry moduli).

    The entries are divided by the largest modulus before squaring, so no
    finite input overflows; a zero or non-finite largest modulus is the
    norm itself.
    """
    a = np.asarray(a, dtype=np.complex128)
    scale = max_abs(a)
    if scale == 0.0 or not np.isfinite(scale):
        return scale
    return scale * float(np.linalg.norm(a / scale))


def max_abs(a) -> float:
    """Largest entry modulus."""
    return float(np.max(np.abs(np.asarray(a, dtype=np.complex128))))


def direct_sum(blocks) -> np.ndarray:
    """Block-diagonal composition of square matrices.

    Off-block entries are exactly zero; the result dimension is the sum of
    the block dimensions.
    """
    mats = [as_cmatrix(b) for b in blocks]
    if not mats:
        raise ValueError("direct_sum of an empty block list")
    for b in mats:
        if b.shape[0] != b.shape[1]:
            raise ValueError(f"direct_sum blocks must be square, got {b.shape}")
    n = sum(b.shape[0] for b in mats)
    out = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for b in mats:
        w = b.shape[0]
        out[at : at + w, at : at + w] = b
        at += w
    return out
