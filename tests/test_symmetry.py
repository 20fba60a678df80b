import math

import numpy as np
import pytest

from support import (
    pattern_C,
    pattern_P,
    random_broken_block,
    random_unbroken_block,
    random_unbroken_spec,
    scalar_cfrac_oracle,
)

from ptsym import (
    AntilinearOperator,
    CFracConfig,
    HamiltonianSpec,
    NotUnbrokenError,
    PTBlock,
    RealLevel,
    SingularMatrixError,
    antilinear_commutator_norm,
    assemble,
    build_C,
    build_operators,
    build_P,
    build_T,
    c_expectations,
    cfrac_F,
    cfrac_scalar,
    commutator_norm,
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
    return assemble(spec), spectra, build_operators(spec, spectra)


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
        build_C(full_spectrum(spec, allow_broken=True))


def test_build_C_real_only_in_hermitian_limit():
    generic = build_C(full_spectrum(HamiltonianSpec([PTBlock(r=1.0, theta=0.5, s=1.2)])))
    assert float(np.max(np.abs(generic.imag))) > 0.1
    hermitian = build_C(full_spectrum(HamiltonianSpec([PTBlock(r=1.0, theta=0.0, s=1.2)])))
    assert float(np.max(np.abs(hermitian.imag))) < 1e-13


# ----------------------------------------------------------------- build_P


def test_build_P_single_block_is_exchange():
    spec = HamiltonianSpec([PTBlock(r=1.3, theta=0.9, s=1.5)])
    p = build_P(full_spectrum(spec))
    assert max_abs(p - np.array([[0.0, 1.0], [1.0, 0.0]])) < 1e-12


def test_build_P_block_plus_level():
    spec = HamiltonianSpec([PTBlock(r=1.0, theta=0.4, s=1.1), RealLevel(a=2.0)])
    p = build_P(full_spectrum(spec))
    assert max_abs(p - pattern_P(spec)) < 1e-12


def test_build_P_ten_dimensional_pattern():
    p = build_P(full_spectrum(FIVE_BLOCKS))
    assert max_abs(p - pattern_P(FIVE_BLOCKS)) < 1e-12


def test_build_P_is_real_symmetric_involution(rng):
    for _ in range(25):
        spec = random_unbroken_spec(rng, max_pt=4, max_levels=3)
        p = build_P(full_spectrum(spec))
        assert float(np.max(np.abs(p.imag))) < 1e-13
        assert max_abs(p - p.T) < 1e-13
        assert max_abs(p @ p - np.eye(spec.dimension)) < 1e-12


def test_build_P_matches_structural_parity(rng):
    for _ in range(25):
        spec = random_unbroken_spec(rng, max_pt=4, max_levels=3)
        assert max_abs(build_P(full_spectrum(spec)) - parity_matrix(spec)) < 1e-12


# ----------------------------------------------------------------- build_T


@pytest.mark.parametrize(
    "spec,n",
    [
        (HamiltonianSpec([PTBlock(r=1.0, theta=0.3, s=1.0)]), 2),
        (GENERIC_SPEC, 4),
        (HamiltonianSpec(list(GENERIC_SPEC.blocks) + [RealLevel(a=1.0)]), 5),
    ],
)
def test_build_T_is_identity_conjugation(spec, n):
    t = build_T(spec)
    assert t.conjugates
    assert np.array_equal(t.matrix, np.eye(n))


def test_applying_T_twice_is_identity(rng):
    t = build_T(GENERIC_SPEC)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert np.array_equal(t.apply(t.apply(v)), v)


def test_composing_T_with_itself_is_linear_identity():
    t = build_T(GENERIC_SPEC)
    tt = t.compose(t)
    assert not tt.conjugates
    assert np.array_equal(tt.matrix, np.eye(4))


def test_antilinear_apply_semantics():
    op = AntilinearOperator(np.array([[0.0, 1.0], [1.0, 0.0]]), conjugates=True)
    out = op.apply([1j, 2.0])
    assert np.array_equal(out, np.array([2.0 + 0j, -1j]))


# ------------------------------------------------------------- commutators


def test_commutator_H_C_vanishes(rng):
    for _ in range(25):
        spec = random_unbroken_spec(rng, max_pt=5, max_levels=3)
        h, _, ops = operators_for(spec)
        assert commutator_norm(h, ops.C) < 1e-12


def test_commutator_with_identity_is_zero():
    h = assemble(GENERIC_SPEC)
    assert commutator_norm(h, np.eye(4)) == 0.0


def test_commutator_H_C_inverse(rng):
    spec = random_unbroken_spec(rng, max_pt=4, max_levels=2)
    h, _, ops = operators_for(spec)
    assert commutator_norm(h, mat_inverse(ops.C)) < 1e-12


def test_commutator_shape_mismatch():
    with pytest.raises(ValueError):
        commutator_norm(np.eye(2), np.eye(3))


def test_pt_commutes_in_unbroken_phase(rng):
    for _ in range(10):
        spec = random_unbroken_spec(rng, max_pt=4, max_levels=2)
        h, _, ops = operators_for(spec)
        assert antilinear_commutator_norm(h, AntilinearOperator(ops.P, True)) < 1e-12


def test_pt_commutes_in_broken_phase(rng):
    # PT symmetry is a property of the matrix itself and survives the
    # transition; only spectral reality is lost
    for _ in range(10):
        blocks = [random_broken_block(rng), random_unbroken_block(rng), RealLevel(a=1.0)]
        rng.shuffle(blocks)
        spec = HamiltonianSpec(blocks)
        h = assemble(spec)
        pt = AntilinearOperator(parity_matrix(spec), True)
        assert antilinear_commutator_norm(h, pt) < 1e-12


def test_plain_conjugation_commutes_with_real_symmetric():
    h = assemble(HamiltonianSpec([PTBlock(r=1.0, theta=0.0, s=0.5)]))
    k = AntilinearOperator(np.eye(2), True)
    assert antilinear_commutator_norm(h, k) == 0.0


def test_non_conjugating_operator_reduces_to_commutator():
    h = assemble(GENERIC_SPEC)
    m = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    linear = AntilinearOperator(m, conjugates=False)
    assert antilinear_commutator_norm(h, linear) == commutator_norm(h, m)


# -------------------------------------------------------------------- CPT


def test_cpt_identity_generic_block():
    h, _, ops = operators_for(HamiltonianSpec([PTBlock(r=1.0, theta=0.5, s=1.2)]))
    assert verify_cpt(h, ops) < 1e-12


def test_cpt_identity_hermitian_limit():
    h, _, ops = operators_for(HamiltonianSpec([PTBlock(r=1.0, theta=0.0, s=1.2)]))
    assert verify_cpt(h, ops) < 1e-14


def test_cpt_identity_ten_dimensional():
    h, _, ops = operators_for(FIVE_BLOCKS)
    assert verify_cpt(h, ops) < 1e-12


def test_symmetry_residuals_at_dimension_64(rng):
    blocks = [random_unbroken_block(rng) for _ in range(32)]
    spec = HamiltonianSpec(blocks)
    h, _, ops = operators_for(spec)
    assert spec.dimension == 64
    assert commutator_norm(h, ops.C) < 1e-12
    assert antilinear_commutator_norm(h, AntilinearOperator(ops.P, True)) < 1e-12
    assert verify_cpt(h, ops) < 1e-12


# ----------------------------------------------------------- expectations


def test_c_expectations_are_sign_indices(rng):
    spec = HamiltonianSpec(
        [PTBlock(r=1.0, theta=0.7, s=1.5), RealLevel(a=0.3), PTBlock(r=0.5, theta=-0.2, s=1.0)]
    )
    _, spectra, ops = operators_for(spec)
    results = c_expectations(spectra, ops.C)
    pairs = [p for bs in spectra for p in bs.pairs]
    assert len(results) == len(pairs)
    for (label, value), pair in zip(results, pairs):
        assert abs(value - pair.sign_index) < 1e-12
        assert label == f"block{pair.block_id}{'+' if pair.sign_index > 0 else '-'}"


def test_trace_counts_levels(rng):
    for _ in range(25):
        spec = random_unbroken_spec(rng, max_pt=4, max_levels=5)
        _, _, ops = operators_for(spec)
        n_levels = sum(isinstance(b, RealLevel) for b in spec.blocks)
        assert abs(np.trace(ops.C) - n_levels) < 1e-12
        assert abs(np.trace(ops.P) - n_levels) < 1e-12


# ------------------------------------------------------ continued fraction


def test_cfrac_scalar_examples():
    assert cfrac_scalar(1.0, 2.0, 1) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert cfrac_scalar(-1.0, 2.0, 1) == pytest.approx(-1.0, abs=1e-15)


def test_cfrac_depth_one_eigen_action():
    _, spectra, ops = operators_for(GENERIC_SPEC)
    f = cfrac_F(ops.C, CFracConfig(beta=2.0, depth=1))
    pairs = [p for bs in spectra for p in bs.pairs]
    for pair in pairs:
        expected = (1.0 / 3.0) if pair.sign_index > 0 else -1.0
        vec = pair.embedded(GENERIC_SPEC.dimension)
        residual = f @ vec - expected * vec
        assert np.max(np.abs(residual)) < 1e-12


def test_cfrac_deep_nesting_commutes():
    h, _, ops = operators_for(GENERIC_SPEC)
    f = cfrac_F(ops.C, CFracConfig(beta=2.0, depth=11))
    assert commutator_norm(h, f) < 1e-10
    assert commutator_norm(ops.C, f) < 1e-10


def test_cfrac_matches_scalar_oracle_across_depths():
    _, spectra, ops = operators_for(GENERIC_SPEC)
    pairs = [p for bs in spectra for p in bs.pairs]
    for depth in range(1, 12):
        f = cfrac_F(ops.C, CFracConfig(beta=2.0, depth=depth))
        for pair in pairs:
            expected = scalar_cfrac_oracle(float(pair.sign_index), 2.0, depth)
            vec = pair.embedded(GENERIC_SPEC.dimension)
            residual = f @ vec - expected * vec
            assert np.max(np.abs(residual)) < 1e-10


def test_cfrac_pole_detected():
    _, _, ops = operators_for(GENERIC_SPEC)
    with pytest.raises(SingularMatrixError, match="pole"):
        cfrac_F(ops.C, CFracConfig(beta=1.0, depth=1))
    with pytest.raises(SingularMatrixError):
        cfrac_scalar(-1.0, 1.0, 1)


def test_cfrac_config_validation():
    with pytest.raises(ValueError, match="depth"):
        CFracConfig(beta=2.0, depth=0)
    with pytest.raises(ValueError, match="finite"):
        CFracConfig(beta=float("inf"), depth=3)
