"""Block-local eigenpairs against the zero-padded dense sums they replace.

Every per-block result is compared with the N x N sum of rank-1 outer
products of full length-N eigenvectors, the columns of the direct sum of
each block's local eigenvectors (``support.full_vectors``).  Where the per-entry arithmetic is the same
(the same products added in the same order, only exact zeros skipped) the
results must be bitwise equal; where a length-N dot product became a
length-w one, they may differ in the last bit.
"""

import numpy as np
import pytest

from ptsym import (
    HamiltonianSpec,
    PTBlock,
    RealLevel,
    bilinear_gram,
    build_C,
    build_P,
    c_expectations,
    ccs_inner,
    completeness,
    direct_sum,
    full_spectrum,
    mat_inverse,
    max_abs,
    reconstruct,
)
from support import (
    full_vectors,
    random_level,
    random_unbroken_block,
    random_unbroken_spec,
    single_block_spectrum,
)


def dense_sum(spectra, n, term):
    out = np.zeros((n, n), dtype=np.complex128)
    pairs = [pair for bs in spectra for pair in bs.pairs]
    for pair, vec in zip(pairs, full_vectors(spectra), strict=True):
        out += term(pair, vec)
    return out


def random_systems(seed, count=40):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        spec = random_unbroken_spec(rng, max_pt=20, max_levels=24)
        assert spec.dimension <= 64
        yield spec, full_spectrum(spec)


def test_outer_product_sums_bitwise_equal_to_padded_sums():
    for spec, spectra in random_systems(301):
        n = spec.dimension
        c = dense_sum(spectra, n, lambda p, v: p.sign_index * np.outer(v, v))
        gram = dense_sum(spectra, n, lambda p, v: np.outer(v, np.conj(v)))
        identity = dense_sum(spectra, n, lambda p, v: np.outer(v, v))
        h = dense_sum(spectra, n, lambda p, v: p.value * np.outer(v, v))
        assert np.array_equal(build_C(spectra), c)
        assert np.array_equal(build_P(spectra, build_C(spectra)), mat_inverse(gram) @ c)
        assert np.array_equal(completeness(spectra), identity)
        assert np.array_equal(reconstruct(spectra), h)


def test_pairings_match_padded_pairings():
    for spec, spectra in random_systems(302):
        n = spec.dimension
        vecs = full_vectors(spectra)
        gram = np.array([[ccs_inner(u, v) for v in vecs] for u in vecs])
        assert max_abs(bilinear_gram(spectra) - gram) <= 1e-15

        c = build_C(spectra)
        got = [value for _, value in c_expectations(spectra, c)]
        expected = [ccs_inner(v, c @ v) for v in vecs]
        assert max(abs(a - b) for a, b in zip(got, expected)) <= 1e-15


def test_eigenvector_storage_is_linear_in_N():
    rng = np.random.default_rng(304)
    blocks = [
        random_level(rng) if k % 3 == 0 else random_unbroken_block(rng) for k in range(10_000)
    ]
    spec = HamiltonianSpec(blocks)
    stored = sum(p.vector.nbytes for bs in full_spectrum(spec) for p in bs.pairs)
    assert stored <= 32 * spec.dimension


def test_spectrum_list_is_a_direct_sum_in_list_order():
    blocks = [PTBlock(r=1.0, theta=0.4, s=1.2), PTBlock(r=2.0, theta=-0.3, s=2.5), RealLevel(a=0.5)]
    spectra = full_spectrum(HamiltonianSpec(blocks))

    def parity(spectra):
        return build_P(spectra, build_C(spectra))

    sums = [completeness, reconstruct, build_C, bilinear_gram, parity]
    # one-block spectra computed separately, and a whole system's spectra
    # out of order: each block's place is its place in the list
    concatenated = [single_block_spectrum(b) for b in blocks]
    permuted = [spectra[1], spectra[0], spectra[2]]
    orders = [blocks, [blocks[1], blocks[0], blocks[2]]]
    for listed, order in zip((concatenated, permuted), orders):
        for total in sums:
            blockwise = direct_sum([total([bs]) for bs in listed])
            if total is parity:
                # P = G^-1 C is one N x N matmul, whose last bits need not
                # match those of the w x w ones
                assert max_abs(total(listed) - blockwise) <= 1e-15
            else:
                assert np.array_equal(total(listed), blockwise)
        got = c_expectations(listed, build_C(listed))
        expected = [
            (f"block{i}{label[-1]}", value)
            for i, bs in enumerate(listed)
            for label, value in c_expectations([bs], build_C([bs]))
        ]
        assert got == expected
        # and every result is the one of the system spelled in list order
        same = full_spectrum(HamiltonianSpec(order))
        for total in sums:
            assert np.array_equal(total(listed), total(same))
    # an empty list places nothing: no N x N sum is defined
    for total in sums:
        with pytest.raises(ValueError, match="empty block list"):
            total([])
