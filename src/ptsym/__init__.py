"""Block-matrix PT-symmetric Hamiltonians with explicit C/P/T operators.

Systems are ordered direct sums of 2x2 gain-loss blocks and 1x1 real
levels.  The package computes their closed-form spectra, the bilinear
(complex-conjugate-space) eigenvector algebra, and the C, P and T
operators, and verifies every symmetry identity numerically.
"""

from .ccs import bilinear_gram, ccs_inner, completeness, reconstruct
from .linalg import (
    SingularMatrixError,
    direct_sum,
    frob_norm,
    mat_inverse,
    max_abs,
)
from .model import (
    HamiltonianSpec,
    PTBlock,
    RealLevel,
    assemble,
    block_offsets,
    dimension,
)
from .spectra import (
    BlockSpectrum,
    EigenPair,
    NotUnbrokenError,
    Phase,
    classify,
    full_spectrum,
)
from .symmetry import (
    antilinear_commutator_norm,
    build_C,
    build_P,
    c_expectations,
    cfrac_F,
    cfrac_scalar,
    commutator_norm,
    parity_matrix,
    verify_cpt,
)

__version__ = "0.1.0"

__all__ = [
    "BlockSpectrum",
    "EigenPair",
    "HamiltonianSpec",
    "NotUnbrokenError",
    "Phase",
    "PTBlock",
    "RealLevel",
    "SingularMatrixError",
    "antilinear_commutator_norm",
    "assemble",
    "bilinear_gram",
    "block_offsets",
    "build_C",
    "build_P",
    "c_expectations",
    "ccs_inner",
    "cfrac_F",
    "cfrac_scalar",
    "classify",
    "commutator_norm",
    "completeness",
    "dimension",
    "direct_sum",
    "frob_norm",
    "full_spectrum",
    "mat_inverse",
    "max_abs",
    "parity_matrix",
    "reconstruct",
    "verify_cpt",
]
