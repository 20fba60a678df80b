import math

import numpy as np
import pytest

from support import (
    full_vectors,
    pattern_C,
    pattern_P,
    random_broken_block,
    random_unbroken_block,
    random_unbroken_spec,
    scalar_cfrac_oracle,
)

from ptsym import (
    HamiltonianSpec,
    NotUnbrokenError,
    PTBlock,
    RealLevel,
    SingularMatrixError,
    antilinear_commutator_norm,
    assemble,
    build_C,
    build_P,
    c_expectations,
    cfrac_F,
    cfrac_scalar,
    commutator_norm,
    dimension,
    frob_norm,
    full_spectrum,
    mat_inverse,
    max_abs,
    parity_matrix,
    verify_cpt,
)

GENERIC_SPEC = HamiltonianSpec(
    [PTBlock(r=1.0, theta=0.5, s=1.2), PTBlock(r=2.0, theta=-0.3, s=2.5)]
)

FIVE_BLOCKS = HamiltonianSpec(
    [
        PTBlock(r=1.0, theta=0.2, s=1.0),
        PTBlock(r=0.5, theta=-0.7, s=1.5),
        PTBlock(r=2.0, theta=0.4, s=2.2),
        PTBlock(r=1.2, theta=1.0, s=1.8),
        PTBlock(r=0.8, theta=-1.2, s=2.0),
    ]
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def operators_for(spec):
    spectra = full_spectrum(spec)
    c = build_C(spectra)
    return assemble(spec), spectra, c, build_P(spectra, c)


def parity_for(spec):
    return operators_for(spec)[3]


# ----------------------------------------------------------------- build_C


def test_build_C_hermitian_limit_is_exchange():
    spec = HamiltonianSpec([PTBlock(r=1.0, theta=0.0, s=1.0)])
    c = build_C(full_spectrum(spec))
    assert max_abs(c - np.array([[0.0, 1.0], [1.0, 0.0]])) < 1e-12


def test_build_C_pi_sixth_closed_form():
    spec = HamiltonianSpec([PTBlock(r=1.0, theta=math.pi / 6, s=1.0)])
    c = build_C(full_spectrum(spec))
    expected = np.array(
        [[1j / math.sqrt(3.0), 2.0 / math.sqrt(3.0)], [2.0 / math.sqrt(3.0), -1j / math.sqrt(3.0)]]
    )
    assert max_abs(c - expected) < 1e-12
    assert max_abs(c @ c - np.eye(2)) < 1e-12
    assert commutator_norm(assemble(spec), c) < 1e-12


def test_build_C_ten_dimensional_pattern():
    c = build_C(full_spectrum(FIVE_BLOCKS))
    assert max_abs(c - pattern_C(FIVE_BLOCKS)) < 1e-12


def test_build_C_level_contributes_plus_one():
    spec = HamiltonianSpec([PTBlock(r=1.0, theta=0.4, s=1.1), RealLevel(a=2.0)])
    c = build_C(full_spectrum(spec))
    assert abs(c[2, 2] - 1.0) < 1e-15
    assert max_abs(c - pattern_C(spec)) < 1e-12


def test_build_C_requires_unbroken():
    spec = HamiltonianSpec([PTBlock(r=2.0, theta=math.pi / 2, s=1.0)])
    with pytest.raises(NotUnbrokenError):
        build_C(full_spectrum(spec))


def test_build_C_real_only_in_hermitian_limit():
    generic = build_C(full_spectrum(HamiltonianSpec([PTBlock(r=1.0, theta=0.5, s=1.2)])))
    assert float(np.max(np.abs(generic.imag))) > 0.1
    hermitian = build_C(full_spectrum(HamiltonianSpec([PTBlock(r=1.0, theta=0.0, s=1.2)])))
    assert float(np.max(np.abs(hermitian.imag))) < 1e-13


# ----------------------------------------------------------------- build_P


def test_build_P_single_block_is_exchange():
    spec = HamiltonianSpec([PTBlock(r=1.3, theta=0.9, s=1.5)])
    p = parity_for(spec)
    assert max_abs(p - np.array([[0.0, 1.0], [1.0, 0.0]])) < 1e-12


def test_build_P_block_plus_level():
    spec = HamiltonianSpec([PTBlock(r=1.0, theta=0.4, s=1.1), RealLevel(a=2.0)])
    p = parity_for(spec)
    assert max_abs(p - pattern_P(spec)) < 1e-12


def test_build_P_ten_dimensional_pattern():
    p = parity_for(FIVE_BLOCKS)
    assert max_abs(p - pattern_P(FIVE_BLOCKS)) < 1e-12


def test_build_P_is_real_symmetric_involution(rng):
    for _ in range(25):
        spec = random_unbroken_spec(rng, max_pt=4, max_levels=3)
        p = parity_for(spec)
        assert float(np.max(np.abs(p.imag))) < 1e-13
        assert max_abs(p - p.T) < 1e-13
        assert max_abs(p @ p - np.eye(spec.dimension)) < 1e-12


def test_build_P_matches_structural_parity(rng):
    for _ in range(25):
        spec = random_unbroken_spec(rng, max_pt=4, max_levels=3)
        assert max_abs(parity_for(spec) - parity_matrix(spec)) < 1e-12


# ---------------------------------------------------------------------- T


@pytest.mark.parametrize(
    "spec,n",
    [
        (HamiltonianSpec([PTBlock(r=1.0, theta=0.3, s=1.0)]), 2),
        (GENERIC_SPEC, 4),
        (HamiltonianSpec(list(GENERIC_SPEC.blocks) + [RealLevel(a=1.0)]), 5),
    ],
)
def test_build_T_is_identity_conjugation(spec, n):
    # T = I K: its linear part is the n x n identity, so T H T^-1 = conj(H)
    # and PT is the antilinear map with linear part P
    h = assemble(spec)
    t = np.eye(dimension(spec))
    assert t.shape == (n, n)
    assert antilinear_commutator_norm(h, t) == frob_norm(h - np.conj(h))
    assert antilinear_commutator_norm(h, parity_matrix(spec) @ t) < 1e-12


# ------------------------------------------------------------- commutators


def test_commutator_H_C_vanishes(rng):
    for _ in range(25):
        spec = random_unbroken_spec(rng, max_pt=5, max_levels=3)
        h, _, c, _ = operators_for(spec)
        assert commutator_norm(h, c) < 1e-12


def test_commutator_with_identity_is_zero():
    h = assemble(GENERIC_SPEC)
    assert commutator_norm(h, np.eye(4)) == 0.0


def test_commutator_H_C_inverse(rng):
    spec = random_unbroken_spec(rng, max_pt=4, max_levels=2)
    h, _, c, _ = operators_for(spec)
    assert commutator_norm(h, mat_inverse(c)) < 1e-12


def test_commutator_shape_mismatch():
    with pytest.raises(ValueError):
        commutator_norm(np.eye(2), np.eye(3))


def test_pt_commutes_in_unbroken_phase(rng):
    for _ in range(10):
        spec = random_unbroken_spec(rng, max_pt=4, max_levels=2)
        h, _, _, p = operators_for(spec)
        assert antilinear_commutator_norm(h, p) < 1e-12


def test_pt_commutes_in_broken_phase(rng):
    # PT symmetry is a property of the matrix itself and survives the
    # transition; only spectral reality is lost
    for _ in range(10):
        blocks = [random_broken_block(rng), random_unbroken_block(rng), RealLevel(a=1.0)]
        rng.shuffle(blocks)
        spec = HamiltonianSpec(blocks)
        h = assemble(spec)
        assert antilinear_commutator_norm(h, parity_matrix(spec)) < 1e-12


def test_plain_conjugation_commutes_with_real_symmetric():
    h = assemble(HamiltonianSpec([PTBlock(r=1.0, theta=0.0, s=0.5)]))
    assert antilinear_commutator_norm(h, np.eye(2)) == 0.0


# -------------------------------------------------------------------- CPT


def test_cpt_identity_generic_block():
    h, _, c, p = operators_for(HamiltonianSpec([PTBlock(r=1.0, theta=0.5, s=1.2)]))
    assert verify_cpt(h, c, p) < 1e-12


def test_cpt_identity_hermitian_limit():
    h, _, c, p = operators_for(HamiltonianSpec([PTBlock(r=1.0, theta=0.0, s=1.2)]))
    assert verify_cpt(h, c, p) < 1e-14


def test_cpt_identity_ten_dimensional():
    h, _, c, p = operators_for(FIVE_BLOCKS)
    assert verify_cpt(h, c, p) < 1e-12


@pytest.mark.parametrize(
    "wrong",
    [
        lambda c, p: (np.conj(c), p),
        lambda c, p: (c, np.eye(p.shape[0], dtype=complex)),
    ],
    ids=["conj-C", "identity-P"],
)
def test_cpt_identity_flags_wrong_operators(wrong):
    # sin(theta) != 0, so C is not real and P is not the identity
    h, _, c, p = operators_for(GENERIC_SPEC)
    assert verify_cpt(h, c, p) < 1e-12
    assert verify_cpt(h, *wrong(c, p)) > 0.1


def test_symmetry_residuals_at_dimension_64(rng):
    blocks = [random_unbroken_block(rng) for _ in range(32)]
    spec = HamiltonianSpec(blocks)
    h, _, c, p = operators_for(spec)
    assert spec.dimension == 64
    assert commutator_norm(h, c) < 1e-12
    assert antilinear_commutator_norm(h, p) < 1e-12
    assert verify_cpt(h, c, p) < 1e-12


# ----------------------------------------------------------- expectations


def test_c_expectations_are_sign_indices(rng):
    spec = HamiltonianSpec(
        [PTBlock(r=1.0, theta=0.7, s=1.5), RealLevel(a=0.3), PTBlock(r=0.5, theta=-0.2, s=1.0)]
    )
    _, spectra, c, _ = operators_for(spec)
    results = c_expectations(spectra, c)
    pairs = [(i, p) for i, bs in enumerate(spectra) for p in bs.pairs]
    assert len(results) == len(pairs)
    for (label, value), (i, pair) in zip(results, pairs):
        assert abs(value - pair.sign_index) < 1e-12
        assert label == f"block{i}{'+' if pair.sign_index > 0 else '-'}"


def test_c_expectations_refuse_broken_blocks():
    spec = HamiltonianSpec(
        [PTBlock(r=1.0, theta=0.1, s=4.0), PTBlock(r=2.0, theta=math.pi / 2, s=1.0)]
    )
    with pytest.raises(NotUnbrokenError, match="block 1 is broken"):
        c_expectations(full_spectrum(spec), np.eye(4))


def test_c_expectations_need_one_row_of_C_per_eigenpair():
    spectra = full_spectrum(HamiltonianSpec([PTBlock(r=1.0, theta=0.4, s=1.2), RealLevel(a=0.5)]))
    assert len(c_expectations(spectra, build_C(spectra))) == 3
    for wrong in (np.eye(4), np.eye(2)):
        with pytest.raises(ValueError, match=r"C is (\d)x\1, expected 3x3 for 3 eigenpairs"):
            c_expectations(spectra, wrong)


def test_trace_counts_levels(rng):
    for _ in range(25):
        spec = random_unbroken_spec(rng, max_pt=4, max_levels=5)
        _, _, c, p = operators_for(spec)
        n_levels = sum(isinstance(b, RealLevel) for b in spec.blocks)
        assert abs(np.trace(c) - n_levels) < 1e-12
        assert abs(np.trace(p) - n_levels) < 1e-12


# ------------------------------------------------------ continued fraction


def test_cfrac_scalar_examples():
    assert cfrac_scalar(1.0, 2.0, 1) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert cfrac_scalar(-1.0, 2.0, 1) == pytest.approx(-1.0, abs=1e-15)


def test_cfrac_depth_one_eigen_action():
    _, spectra, c, _ = operators_for(GENERIC_SPEC)
    f = cfrac_F(c, 2.0, 1)
    pairs = [p for bs in spectra for p in bs.pairs]
    for pair, vec in zip(pairs, full_vectors(spectra), strict=True):
        expected = (1.0 / 3.0) if pair.sign_index > 0 else -1.0
        residual = f @ vec - expected * vec
        assert np.max(np.abs(residual)) < 1e-12


def test_cfrac_deep_nesting_commutes():
    h, _, c, _ = operators_for(GENERIC_SPEC)
    f = cfrac_F(c, 2.0, 11)
    assert commutator_norm(h, f) < 1e-10
    assert commutator_norm(c, f) < 1e-10


def test_cfrac_matches_scalar_oracle_across_depths():
    _, spectra, c, _ = operators_for(GENERIC_SPEC)
    pairs = [p for bs in spectra for p in bs.pairs]
    for depth in range(1, 12):
        f = cfrac_F(c, 2.0, depth)
        for pair, vec in zip(pairs, full_vectors(spectra), strict=True):
            expected = scalar_cfrac_oracle(float(pair.sign_index), 2.0, depth)
            residual = f @ vec - expected * vec
            assert np.max(np.abs(residual)) < 1e-10


def test_cfrac_pole_detected():
    _, _, c, _ = operators_for(GENERIC_SPEC)
    with pytest.raises(SingularMatrixError, match="pole"):
        cfrac_F(c, 1.0, 1)
    with pytest.raises(SingularMatrixError):
        cfrac_scalar(-1.0, 1.0, 1)


def test_cfrac_config_validation():
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="depth"):
        cfrac_F(c, 2.0, 0)
    with pytest.raises(ValueError, match="finite"):
        cfrac_F(c, float("inf"), 3)
