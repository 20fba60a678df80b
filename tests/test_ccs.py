import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import full_vectors, random_unbroken_spec, single_block_spectrum

from ptsym import (
    HamiltonianSpec,
    NotUnbrokenError,
    PTBlock,
    RealLevel,
    assemble,
    ccs_inner,
    completeness,
    full_spectrum,
    max_abs,
    reconstruct,
)

GENERIC_BLOCK = PTBlock(r=1.0, theta=math.pi / 6, s=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# -------------------------------------------------------------- ccs_inner


def test_eigenvectors_are_bilinear_normalised():
    for pair in single_block_spectrum(GENERIC_BLOCK).pairs:
        assert abs(ccs_inner(pair.vector, pair.vector) - 1.0) < 1e-12


def test_eigenvectors_are_bilinear_orthogonal():
    plus, minus = single_block_spectrum(GENERIC_BLOCK).pairs
    assert abs(ccs_inner(plus.vector, minus.vector)) < 1e-12
    assert abs(ccs_inner(minus.vector, plus.vector)) < 1e-12


def test_self_orthogonal_vector_exists():
    # (1, i) pairs to zero with itself: the bilinear form is not a norm
    assert ccs_inner([1.0, 1j], [1.0, 1j]) == 0.0


def test_inner_is_symmetric(rng):
    u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert ccs_inner(u, v) == ccs_inner(v, u)


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        ccs_inner([1.0, 2.0], [1.0, 2.0, 3.0])


finite_entry = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    re_u=st.lists(finite_entry, min_size=4, max_size=4),
    im_u=st.lists(finite_entry, min_size=4, max_size=4),
    re_w=st.lists(finite_entry, min_size=4, max_size=4),
    re_v=st.lists(finite_entry, min_size=4, max_size=4),
    alpha=finite_entry,
)
def test_inner_is_bilinear(re_u, im_u, re_w, re_v, alpha):
    u = np.array(re_u) + 1j * np.array(im_u)
    w = np.array(re_w, dtype=complex)
    v = np.array(re_v, dtype=complex)
    lhs = ccs_inner(alpha * u + w, v)
    rhs = alpha * ccs_inner(u, v) + ccs_inner(w, v)
    assert abs(lhs - rhs) < 1e-13


# ------------------------------------------------------- energy pairings


def test_energy_expectations():
    block = GENERIC_BLOCK
    h = assemble(HamiltonianSpec([block]))
    plus, minus = single_block_spectrum(block).pairs
    phi = math.asin(block.r * math.sin(block.theta) / block.s)
    base, split = block.r * math.cos(block.theta), block.s * math.cos(phi)
    assert abs(ccs_inner(plus.vector, h @ plus.vector) - (base + split)) < 1e-12
    assert abs(ccs_inner(minus.vector, h @ minus.vector) - (base - split)) < 1e-12


def test_level_expectation():
    spec = HamiltonianSpec([GENERIC_BLOCK, RealLevel(a=0.35)])
    h = assemble(spec)
    level_vec = full_vectors(full_spectrum(spec))[2]
    assert abs(ccs_inner(level_vec, h @ level_vec) - 0.35) < 1e-15


# ------------------------------------------- reconstruct and completeness


def test_reconstruct_single_block():
    spec = HamiltonianSpec([GENERIC_BLOCK])
    assert max_abs(reconstruct(full_spectrum(spec)) - assemble(spec)) < 1e-12


def test_reconstruct_hermitian_limit():
    spec = HamiltonianSpec([PTBlock(r=1.4, theta=0.0, s=0.6)])
    rebuilt = reconstruct(full_spectrum(spec))
    assert max_abs(rebuilt - np.array([[1.4, 0.6], [0.6, 1.4]])) < 1e-12


def test_reconstruct_two_block_system():
    spec = HamiltonianSpec(
        [PTBlock(r=1.0, theta=0.5, s=1.2), PTBlock(r=2.0, theta=-0.3, s=2.5)]
    )
    assert max_abs(reconstruct(full_spectrum(spec)) - assemble(spec)) < 1e-12


def test_reconstruct_roundtrip_random(rng):
    for _ in range(50):
        spec = random_unbroken_spec(rng, max_pt=4, max_levels=3)
        assert max_abs(reconstruct(full_spectrum(spec)) - assemble(spec)) < 1e-12


def test_completeness_block_plus_level():
    spec = HamiltonianSpec([GENERIC_BLOCK, RealLevel(a=-1.0)])
    assert max_abs(completeness(full_spectrum(spec)) - np.eye(3)) < 1e-12


def test_completeness_random(rng):
    worst = 0.0
    for _ in range(1000):
        spec = random_unbroken_spec(rng, max_pt=5, max_levels=3)
        n = spec.dimension
        worst = max(worst, max_abs(completeness(full_spectrum(spec)) - np.eye(n)))
    assert worst < 1e-12


def test_bilinear_gram_is_identity_but_hermitian_gram_is_not(rng):
    # the bilinear pairing sees the eigenvectors as orthonormal; the usual
    # conjugating inner product does not (except in the Hermitian limit)
    pairs = full_spectrum(HamiltonianSpec([GENERIC_BLOCK]))[0].pairs
    vecs = [p.vector for p in pairs]
    bilinear = np.array([[ccs_inner(u, v) for v in vecs] for u in vecs])
    hermitian = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
    assert max_abs(bilinear - np.eye(2)) < 1e-12
    assert max_abs(hermitian - np.eye(2)) > 0.1

    hermitian_limit = full_spectrum(HamiltonianSpec([PTBlock(r=1.0, theta=0.0, s=1.0)]))
    vecs = [p.vector for p in hermitian_limit[0].pairs]
    hermitian = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
    assert max_abs(hermitian - np.eye(2)) < 1e-12


def test_spectral_ops_refuse_broken_blocks():
    spec = HamiltonianSpec([PTBlock(r=2.0, theta=math.pi / 2, s=1.0)])
    spectra = full_spectrum(spec)
    with pytest.raises(NotUnbrokenError):
        reconstruct(spectra)
    with pytest.raises(NotUnbrokenError):
        completeness(spectra)
