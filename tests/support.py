"""Shared random-system builders and independent oracles for the tests.

The pattern builders and the 2x2 eigen oracle below are deliberately
written from scratch (plain ``math``/``cmath`` formulas) so they stay
independent of the library code paths they are used to check.
"""

import cmath
import math

import numpy as np

from ptsym import HamiltonianSpec, Phase, PTBlock, RealLevel, direct_sum, full_spectrum


def random_unbroken_block(rng, r_max=3.0, ratio_max=0.95):
    """A block with |r sin(theta)| / s <= ratio_max and s of order one."""
    r = float(rng.uniform(0.0, r_max))
    theta = float(rng.uniform(-math.pi, math.pi))
    x = abs(r * math.sin(theta))
    s = x / ratio_max + float(rng.uniform(0.05, 3.0))
    return PTBlock(r=r, theta=theta, s=s)


def random_broken_block(rng, ratio_min=1.05):
    """A block safely past the exceptional point: |r sin(theta)| / s >= ratio_min."""
    while True:
        r = float(rng.uniform(0.5, 3.0))
        theta = float(rng.uniform(-math.pi, math.pi))
        x = abs(r * math.sin(theta))
        if x > 0.3:
            break
    s = x / (ratio_min + float(rng.uniform(0.0, 2.0)))
    return PTBlock(r=r, theta=theta, s=s)


def single_block_spectrum(block, phase=Phase.UNBROKEN):
    """The spectrum of ``block`` as the whole system.

    A list of such spectra is the direct sum of their blocks in list order.
    Fails unless the block is in ``phase``, so a misclassified block cannot
    pass a test through an empty ``pairs``.
    """
    bs = full_spectrum(HamiltonianSpec([block]))[0]
    assert bs.phase is phase, f"expected {phase.value}, got {bs.phase.value}"
    return bs


def full_vectors(spectra):
    """Every eigenpair's full length-N eigenvector, in spectrum order: the
    columns of the direct sum of each block's local eigenvectors."""
    return list(direct_sum([np.column_stack([p.vector for p in bs.pairs]) for bs in spectra]).T)


def random_level(rng):
    return RealLevel(a=float(rng.uniform(-3.0, 3.0)))


def random_unbroken_spec(rng, max_pt=10, max_levels=5, min_pt=1):
    """Random interleaving of unbroken blocks and levels (N <= 2*max_pt + max_levels)."""
    n_pt = int(rng.integers(min_pt, max_pt + 1))
    n_lev = int(rng.integers(0, max_levels + 1))
    blocks = [random_unbroken_block(rng) for _ in range(n_pt)]
    blocks += [random_level(rng) for _ in range(n_lev)]
    rng.shuffle(blocks)
    return HamiltonianSpec(blocks)


def eig2_oracle(mat):
    """Quadratic-formula roots of the characteristic polynomial of a 2x2 matrix."""
    tr = complex(mat[0, 0] + mat[1, 1])
    det = complex(mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0])
    disc = cmath.sqrt(tr * tr - 4.0 * det)
    return sort_eigs([(tr + disc) / 2.0, (tr - disc) / 2.0])


def sort_eigs(values):
    return sorted(values, key=lambda z: (z.real, z.imag))


def unbroken_angle(block):
    """The angle phi with sin(phi) = r sin(theta) / s (test-side recompute)."""
    return math.asin(block.r * math.sin(block.theta) / block.s)


def pattern_C(spec):
    """Expected C built directly from the block pattern."""
    widths = [2 if isinstance(b, PTBlock) else 1 for b in spec.blocks]
    n = sum(widths)
    out = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for block, w in zip(spec.blocks, widths):
        if w == 1:
            out[at, at] = 1.0
        else:
            phi = unbroken_angle(block)
            out[at, at] = 1j * math.tan(phi)
            out[at, at + 1] = 1.0 / math.cos(phi)
            out[at + 1, at] = 1.0 / math.cos(phi)
            out[at + 1, at + 1] = -1j * math.tan(phi)
        at += w
    return out


def pattern_P(spec):
    """Expected parity: anti-diagonal exchange per block, +1 per level."""
    widths = [2 if isinstance(b, PTBlock) else 1 for b in spec.blocks]
    n = sum(widths)
    out = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for w in widths:
        if w == 1:
            out[at, at] = 1.0
        else:
            out[at, at + 1] = 1.0
            out[at + 1, at] = 1.0
        at += w
    return out


def scalar_cfrac_oracle(lam, beta, depth):
    """Plain-float continued fraction; independent of the library helper."""
    f = lam
    for _ in range(depth):
        f = lam / (beta + f)
    return f
