"""Block-matrix PT-symmetric Hamiltonians with explicit C/P/T operators.

Systems are ordered direct sums of 2x2 gain-loss blocks and 1x1 real
levels.  The package computes their closed-form spectra, the bilinear
(complex-conjugate-space) eigenvector algebra, and the C, P and T
operators, and verifies every symmetry identity numerically.

The exports resolve lazily: each name's module is imported on first
access, so ``import ptsym`` alone loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# Every export and the module that defines it.
_EXPORTS = {
    "BlockSpectrum": "spectra",
    "EigenPair": "spectra",
    "HamiltonianSpec": "model",
    "NotUnbrokenError": "model",
    "Phase": "model",
    "PTBlock": "model",
    "RealLevel": "model",
    "SingularMatrixError": "linalg",
    "antilinear_commutator_norm": "symmetry",
    "assemble": "model",
    "bilinear_gram": "ccs",
    "block_offsets": "model",
    "build_C": "symmetry",
    "build_P": "symmetry",
    "c_expectations": "symmetry",
    "ccs_inner": "ccs",
    "cfrac_F": "symmetry",
    "cfrac_scalar": "symmetry",
    "classify": "model",
    "commutator_norm": "symmetry",
    "completeness": "ccs",
    "dimension": "model",
    "direct_sum": "linalg",
    "frob_norm": "linalg",
    "full_spectrum": "spectra",
    "mat_inverse": "linalg",
    "max_abs": "linalg",
    "parity_matrix": "symmetry",
    "reconstruct": "ccs",
    "verify_cpt": "symmetry",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
