"""Sweep a block through its exceptional point.

Fixing r and theta and shrinking the coupling s drives |r sin(theta)| / s
from below one to above one.  The two real eigenvalues approach each other,
collide at the exceptional point, and split into a complex-conjugate pair:
a square-root branch in the parameter.  The antilinear parity-conjugation
symmetry of the matrix itself survives on both sides; only spectral
reality is lost.
"""

import numpy as np

from ptsym import (
    HamiltonianSpec,
    Phase,
    PTBlock,
    antilinear_commutator_norm,
    assemble,
    classify,
    full_spectrum,
    parity_matrix,
)

R, THETA = 1.5, 0.8
x = R * np.sin(THETA)

print(f"block (r={R}, theta={THETA}): coupling threshold |r sin(theta)| = {x:.6f}\n")
print(f"{'s':>10s} {'ratio':>8s} {'phase':>12s} {'Re E+':>10s} {'Re E-':>10s} {'Im E+':>10s}   PT residual")

for s in np.linspace(1.6 * x, 0.6 * x, 11):
    block = PTBlock(r=R, theta=THETA, s=float(s))
    spec = HamiltonianSpec([block])
    phase = classify(block)
    bs = full_spectrum(spec)[0]
    e_hi, e_lo = bs.values[0], bs.values[-1]
    residual = antilinear_commutator_norm(assemble(spec), parity_matrix(spec))
    print(
        f"{s:10.6f} {x / s:8.4f} {phase.value:>12s} "
        f"{e_hi.real:10.6f} {e_lo.real:10.6f} {e_hi.imag:10.6f}   {residual:.1e}"
    )

print(
    "\nnear the exceptional point the splitting scales like a square root:"
)
for eps in (1e-2, 1e-4, 1e-6, 1e-8):
    block = PTBlock(r=R, theta=THETA, s=float(x * (1.0 + eps)))
    if classify(block) is not Phase.UNBROKEN:
        continue
    bs = full_spectrum(HamiltonianSpec([block]))[0]
    gap = bs.values[0].real - bs.values[1].real
    print(f"  s = x(1 + {eps:g}):  gap = {gap:.6e}  gap/sqrt(eps) = {gap / np.sqrt(eps):.4f}")
