"""Constructing C, P and T explicitly and checking every identity.

C is the signed spectral sum over bilinear outer products; per 2x2 block it
is [[i tan(phi), sec(phi)], [sec(phi), -i tan(phi)]] and +1 on every level.
P follows from C through the inverse of the Hermitian Gram matrix and
collapses to the block-exchange matrix.  T is plain conjugation.  All
commutation identities then hold to machine precision.
"""

import numpy as np

from ptsym import (
    AntilinearOperator,
    HamiltonianSpec,
    PTBlock,
    RealLevel,
    antilinear_commutator_norm,
    assemble,
    build_operators,
    c_expectations,
    commutator_norm,
    full_spectrum,
    max_abs,
    verify_cpt,
)

np.set_printoptions(precision=6, suppress=True)

spec = HamiltonianSpec(
    [
        PTBlock(r=1.0, theta=0.4, s=1.2),
        PTBlock(r=2.0, theta=-0.6, s=2.4),
        RealLevel(a=-1.25),
    ]
)
h = assemble(spec)
spectra = full_spectrum(spec)
ops = build_operators(spec, spectra)

print("C =")
print(ops.C.round(10))
print("\nP =  (real block-exchange matrix)")
print(ops.P.real.round(10))
print("\nT = A K with A = identity; applying it twice returns the input:")
v = np.array([1.0 + 2.0j, 0.5, -1j, 2.0, 0.25j])
print("  T(T(v)) == v:", np.array_equal(ops.T.apply(ops.T.apply(v)), v))

n = spec.dimension
print("\ninvolutions and realness:")
print("  ||C^2 - I||_max =", max_abs(ops.C @ ops.C - np.eye(n)))
print("  ||P^2 - I||_max =", max_abs(ops.P @ ops.P - np.eye(n)))
print("  max |Im P|      =", float(np.max(np.abs(ops.P.imag))))
print("  trace C =", np.trace(ops.C).real.round(12), " trace P =", np.trace(ops.P).real.round(12), " (= number of levels)")

print("\ncommutation residuals:")
print("  ||[H, C]||_F          =", commutator_norm(h, ops.C))
pt = AntilinearOperator(ops.P)
print("  ||H P - P conj(H)||_F =", antilinear_commutator_norm(h, pt))
print("  CPT conjugation       =", verify_cpt(h, ops))

print("\nC expectations (the +-1 grading of the eigenbasis):")
for label, value in c_expectations(spectra, ops.C):
    print(f"  {label}: {value.real:+.12f}{value.imag:+.1e}j")
