"""Tour of the basic 2x2 gain-loss block.

The block [[r e^{i theta}, s], [s, r e^{-i theta}]] is not Hermitian, yet
for |r sin(theta)| < s its spectrum is entirely real:

    E_pm = r cos(theta) +- s cos(phi),   sin(phi) = r sin(theta) / s.

Past that coupling threshold the eigenvalues collide and move off the real
axis as a conjugate pair.  This script walks one block through all three
regimes, reading each regime's closed form from ``full_spectrum``.
"""

import numpy as np

from ptsym import HamiltonianSpec, Phase, PTBlock, assemble, full_spectrum

np.set_printoptions(precision=6, suppress=True)


def show(title, block):
    spec = HamiltonianSpec([block])
    h = assemble(spec)
    bs = full_spectrum(spec)[0]
    print(f"\n--- {title} ---")
    print(f"parameters: r={block.r}, theta={block.theta:.4f}, s={block.s}")
    print("H =")
    print(h)
    print("phase:", bs.phase.value)
    if bs.phase is Phase.UNBROKEN:
        print(f"phi = {bs.phi:.6f}")
        for pair in bs.pairs:
            residual = np.max(np.abs(h @ pair.vector - pair.value * pair.vector))
            print(
                f"  E{'+' if pair.sign_index > 0 else '-'} = {pair.value.real:+.6f}"
                f"   eigenvector residual {residual:.2e}"
            )
    elif bs.phase is Phase.BROKEN:
        upper, lower = bs.values
        print(f"  conjugate pair: {upper:.6f} and {lower:.6f}")
    else:
        print("  defective matrix: eigenvectors coalesce, refusing to diagonalise")


# Well inside the real-spectrum regime: |r sin(theta)| / s = 0.5
show("unbroken", PTBlock(r=1.0, theta=np.pi / 6, s=1.0))

# Hermitian limit: theta = 0 reduces to an ordinary symmetric matrix
show("Hermitian limit", PTBlock(r=1.0, theta=0.0, s=1.0))

# Exactly at the coalescence point: |r sin(theta)| = s
show("exceptional point", PTBlock(r=1.0, theta=np.pi / 2, s=1.0))

# Past the threshold the spectrum is a conjugate pair
show("broken", PTBlock(r=2.0, theta=np.pi / 2, s=1.0))

# Direct sums just stack blocks; a full system classifies per block
print("\n--- mixed five-dimensional system ---")
spec = HamiltonianSpec(
    [PTBlock(r=1.0, theta=0.4, s=1.2), PTBlock(r=2.0, theta=1.5, s=1.1)]
)
for i, bs in enumerate(full_spectrum(spec)):
    values = ", ".join(f"{v:.4f}" for v in bs.values)
    print(f"block {i}: {bs.phase.value:12s} eigenvalues {values}")
