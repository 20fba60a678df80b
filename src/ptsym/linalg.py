"""Dense complex linear algebra.

Everything in this package runs on plain ``numpy`` arrays of dtype
``complex128``.  Inversion is explicit partial-pivot Gauss-Jordan
elimination for its hard pivot threshold: unlike a library inverse, it
raises :class:`SingularMatrixError` at a pivot below that threshold
instead of silently returning a garbage inverse near a pole.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "SingularMatrixError",
    "as_cmatrix",
    "as_cvector",
    "mat_inverse",
    "frob_norm",
    "max_abs",
    "pow2_above",
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
    norm itself.  A subnormal largest modulus is raised to the smallest
    normal float: numpy divides a complex array by multiplying it with the
    divisor's reciprocal, which must be a float too.
    """
    a = np.asarray(a, dtype=np.complex128)
    peak = max_abs(a)
    if peak == 0.0 or not np.isfinite(peak):
        return peak
    scale = max(peak, sys.float_info.min)
    return scale * float(np.linalg.norm(a / scale))


def max_abs(a) -> float:
    """Largest entry modulus."""
    return float(np.max(np.abs(np.asarray(a, dtype=np.complex128))))


def pow2_above(x: float) -> float:
    """The least power of two 2**k above ``x >= 0``, with k held in [-1022, 1023].

    The bounds keep 2**k a normal float and 1 / 2**k a float: numpy divides a
    complex array by multiplying it with the divisor's reciprocal.  Dividing
    by 2**k and multiplying back changes no digit of a value that stays a
    normal float in between.
    """
    return math.ldexp(1.0, min(max(math.frexp(x)[1], -1022), 1023))


def direct_sum(blocks) -> np.ndarray:
    """Block-diagonal composition of square matrices, in list order.

    Off-block entries are exactly zero; the result dimension is the sum of
    the block dimensions.  Entries are placed as given, so a non-finite
    entry (an overflowed spectral sum) reaches the caller's residual.
    """
    mats = [np.asarray(b, dtype=np.complex128) for b in blocks]
    if not mats:
        raise ValueError("direct_sum of an empty block list")
    for b in mats:
        if b.ndim != 2 or b.shape[0] != b.shape[1] or b.size == 0:
            raise ValueError(f"direct_sum blocks must be square, got {b.shape}")
    n = sum(b.shape[0] for b in mats)
    out = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for b in mats:
        w = b.shape[0]
        out[at : at + w, at : at + w] = b
        at += w
    return out
