"""The bilinear pairing and why it makes non-Hermitian spectra look Hermitian.

Pairing a ket with its plain transpose (no conjugation),

    <u*||v> = sum_i u_i v_i,

turns the closed-form eigenvectors of an unbroken block into an orthonormal
family.  Every textbook identity then holds with the Hamiltonian still
non-Hermitian: orthonormality, energy expectations, spectral reconstruction
and completeness.  The conjugating (Hilbert-space) inner product does none
of this.
"""

import numpy as np

from ptsym import (
    HamiltonianSpec,
    PTBlock,
    RealLevel,
    assemble,
    ccs_expectation,
    ccs_inner,
    completeness,
    full_spectrum,
    max_abs,
    reconstruct,
)

np.set_printoptions(precision=6, suppress=True)

spec = HamiltonianSpec(
    [PTBlock(r=1.0, theta=np.pi / 6, s=1.0), RealLevel(a=0.75)]
)
h = assemble(spec)
spectra = full_spectrum(spec)
pairs = [p for bs in spectra for p in bs.pairs]
vecs = [p.embedded(spec.dimension) for p in pairs]

print("H =")
print(h)
print("non-Hermitian:", max_abs(h - h.conj().T) > 1e-12)

print("\nbilinear Gram matrix (should be the identity):")
gram = np.array([[ccs_inner(u, v) for v in vecs] for u in vecs])
print(gram.round(12))

print("\nconjugating Gram matrix of the same vectors (NOT the identity):")
herm = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
print(herm.round(6))

print("\nenergy expectations <psi*|H|psi> vs eigenvalues:")
for pair, vec in zip(pairs, vecs):
    e = ccs_expectation(vec, h, vec)
    print(f"  pairing {e.real:+.8f}{e.imag:+.1e}j   eigenvalue {pair.value.real:+.8f}")

print("\nspectral reconstruction sum_n E_n |psi_n><psi_n*|:")
print("  max deviation from H:", max_abs(reconstruct(spectra) - h))

print("\ncompleteness sum_n |psi_n><psi_n*|:")
print("  max deviation from I:", max_abs(completeness(spectra) - np.eye(3)))

print("\nself-orthogonal vectors exist in this geometry:")
print("  <(1,i)*||(1,i)> =", ccs_inner([1.0, 1j], [1.0, 1j]))
print("  (exactly the degeneration that makes broken-phase pairing undefined)")
