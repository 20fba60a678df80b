"""A family of extra symmetries generated from C by a matrix continued fraction.

Any rational function of C commutes with everything C commutes with.  The
nested fraction

    F = C / (beta + C / (beta + ... / (beta + C)))

is evaluated by the matrix recursion F_0 = C, F_{k+1} = C (beta I + F_k)^{-1}.
Since C is an involution, F acts on the two C-eigenspaces as the plain
scalar continued fraction evaluated at +1 and -1, which also locates the
poles in beta exactly.
"""

import numpy as np

from ptsym import (
    HamiltonianSpec,
    PTBlock,
    RealLevel,
    SingularMatrixError,
    assemble,
    build_C,
    cfrac_F,
    cfrac_scalar,
    commutator_norm,
    direct_sum,
    full_spectrum,
)

spec = HamiltonianSpec(
    [PTBlock(r=1.0, theta=0.5, s=1.2), PTBlock(r=2.0, theta=-0.3, s=2.5), RealLevel(a=0.4)]
)
h = assemble(spec)
spectra = full_spectrum(spec)
c = build_C(spectra)
pairs = [p for bs in spectra for p in bs.pairs]
# full eigenvectors: the columns of the direct sum of each block's local ones
vecs = direct_sum([np.column_stack([p.vector for p in bs.pairs]) for bs in spectra]).T
beta = 2.0

print(f"beta = {beta}: scalar fraction at the two C eigenvalues per depth\n")
print(f"{'depth':>5s} {'f(+1)':>12s} {'f(-1)':>12s} {'||[H,F]||':>12s} {'||[C,F]||':>12s}   eigen-action residual")
for depth in range(1, 12):
    f_matrix = cfrac_F(c, beta, depth)
    worst = 0.0
    for pair, vec in zip(pairs, vecs):
        predicted = cfrac_scalar(float(pair.sign_index), beta, depth)
        worst = max(worst, float(np.max(np.abs(f_matrix @ vec - predicted * vec))))
    print(
        f"{depth:5d} {cfrac_scalar(1.0, beta, depth):12.8f} {cfrac_scalar(-1.0, beta, depth):12.8f} "
        f"{commutator_norm(h, f_matrix):12.2e} {commutator_norm(c, f_matrix):12.2e}   {worst:.2e}"
    )

print("\nthe deep-nesting limits are the fixed points of f = lam / (beta + f):")
print("  at +1: -1 + sqrt(2) =", -1 + np.sqrt(2.0))
print("  at -1:           -1 = -1.0")

print("\nbeta = 1 puts the depth-1 denominator at 1 + (-1) = 0:")
try:
    cfrac_F(c, 1.0, 1)
except SingularMatrixError as exc:
    print("  SingularMatrixError:", exc)
