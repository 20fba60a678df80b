"""Block-matrix PT-symmetric Hamiltonians with explicit C/P/T operators.

Systems are ordered direct sums of 2x2 gain-loss blocks and 1x1 real
levels.  The package computes their closed-form spectra, the bilinear
(complex-conjugate-space) eigenvector algebra, and the C, P and T
operators, and verifies every symmetry identity numerically.
"""

from .ccs import (
    bilinear_gram,
    ccs_expectation,
    ccs_inner,
    completeness,
    outer,
    reconstruct,
)
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
    NotBrokenError,
    NotUnbrokenError,
    Phase,
    classify,
    eigen_block,
    eigen_broken,
    full_spectrum,
    phase_angle,
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
    "NotBrokenError",
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
    "ccs_expectation",
    "ccs_inner",
    "cfrac_F",
    "cfrac_scalar",
    "classify",
    "commutator_norm",
    "completeness",
    "dimension",
    "direct_sum",
    "eigen_block",
    "eigen_broken",
    "frob_norm",
    "full_spectrum",
    "mat_inverse",
    "max_abs",
    "outer",
    "parity_matrix",
    "phase_angle",
    "reconstruct",
    "verify_cpt",
]
