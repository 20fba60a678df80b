"""Block-local eigenpairs against the zero-padded dense sums they replace.

Every per-block result is compared with the N x N sum of rank-1 outer
products of full length-N eigenvectors, built here from
``EigenPair.embedded``.  Where the per-entry arithmetic is the same
(the same products added in the same order, only exact zeros skipped) the
results must be bitwise equal; where a length-N dot product became a
length-w one, they may differ in the last bit.
"""

import numpy as np
import pytest

from ptsym import (
    HamiltonianSpec,
    PTBlock,
    bilinear_gram,
    build_C,
    build_P,
    c_expectations,
    ccs_expectation,
    ccs_inner,
    completeness,
    eigen_block,
    full_spectrum,
    mat_inverse,
    max_abs,
    reconstruct,
)
from support import random_level, random_unbroken_block, random_unbroken_spec


def dense_sum(spectra, n, term):
    out = np.zeros((n, n), dtype=np.complex128)
    for bs in spectra:
        for pair in bs.pairs:
            out += term(pair, pair.embedded(n))
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
        vecs = [p.embedded(n) for bs in spectra for p in bs.pairs]
        gram = np.array([[ccs_inner(u, v) for v in vecs] for u in vecs])
        assert max_abs(bilinear_gram(spectra) - gram) <= 1e-15

        c = build_C(spectra)
        got = [value for _, value in c_expectations(spectra, c)]
        expected = [ccs_expectation(v, c, v) for v in vecs]
        assert max(abs(a - b) for a, b in zip(got, expected)) <= 1e-15


def test_embedded_places_local_entries_at_offset():
    rng = np.random.default_rng(303)
    spec = HamiltonianSpec([random_level(rng), random_unbroken_block(rng), random_level(rng)])
    spectra = full_spectrum(spec)
    assert [p.offset for bs in spectra for p in bs.pairs] == [0, 1, 1, 3]
    plus = spectra[1].pairs[0]
    full = plus.embedded(4)
    assert np.array_equal(full[1:3], plus.vector)
    assert full[0] == 0 and full[3] == 0


def test_eigenvector_storage_is_linear_in_N():
    rng = np.random.default_rng(304)
    blocks = [
        random_level(rng) if k % 3 == 0 else random_unbroken_block(rng) for k in range(10_000)
    ]
    spec = HamiltonianSpec(blocks)
    stored = sum(p.vector.nbytes for bs in full_spectrum(spec) for p in bs.pairs)
    assert stored <= 32 * spec.dimension


def test_offsets_must_tile():
    # two single-block spectra both start at 0, so their blocks overlap
    a = eigen_block(PTBlock(r=1.0, theta=0.4, s=1.2), block_id=0)
    b = eigen_block(PTBlock(r=2.0, theta=-0.3, s=2.5), block_id=1)
    with pytest.raises(ValueError, match="tile"):
        completeness([a, b])
