import math

import numpy as np
import pytest

from support import eig2_oracle, random_broken_block, random_unbroken_block, sort_eigs

from ptsym import (
    HamiltonianSpec,
    NotBrokenError,
    NotUnbrokenError,
    Phase,
    PTBlock,
    RealLevel,
    assemble,
    classify,
    eigen_block,
    eigen_broken,
    full_spectrum,
    max_abs,
    phase_angle,
)


@pytest.fixture
def rng():
    return np.random.default_rng(41)


# ---------------------------------------------------------------- classify


def test_classify_examples():
    assert classify(PTBlock(r=1.0, theta=math.pi / 6, s=1.0)) is Phase.UNBROKEN
    assert classify(PTBlock(r=2.0, theta=math.pi / 2, s=1.0)) is Phase.BROKEN
    assert classify(PTBlock(r=1.0, theta=math.pi / 2, s=1.0)) is Phase.EXCEPTIONAL


def test_classify_matches_discriminant_sign(rng):
    # oracle: sign of s^2 - r^2 sin^2(theta) decides real vs conjugate pair
    for _ in range(500):
        r = float(rng.uniform(0.0, 3.0))
        theta = float(rng.uniform(-math.pi, math.pi))
        s = float(rng.uniform(0.05, 3.0))
        disc = s * s - (r * math.sin(theta)) ** 2
        if abs(disc) < 1e-6:
            continue  # too close to the boundary for the sign oracle
        expected = Phase.UNBROKEN if disc > 0 else Phase.BROKEN
        assert classify(PTBlock(r=r, theta=theta, s=s)) is expected


def test_classification_sweep_is_monotonic():
    r, theta = 1.3, 0.9
    x = r * math.sin(theta)
    deltas = [1e-3, 1e-6, 5e-10, 0.0, -5e-10, -1e-6, -1e-3]
    phases = [classify(PTBlock(r=r, theta=theta, s=x * (1 + d))) for d in deltas]
    assert phases == [
        Phase.UNBROKEN,
        Phase.UNBROKEN,
        Phase.EXCEPTIONAL,
        Phase.EXCEPTIONAL,
        Phase.EXCEPTIONAL,
        Phase.BROKEN,
        Phase.BROKEN,
    ]


# ------------------------------------------------------------- eigen_block


def test_eigen_block_hermitian_limit():
    bs = eigen_block(PTBlock(r=0.0, theta=1.234, s=1.0))
    assert bs.phi == 0.0
    assert bs.values[0].real == pytest.approx(1.0, abs=1e-15)
    assert bs.values[1].real == pytest.approx(-1.0, abs=1e-15)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    assert np.allclose(bs.pairs[0].vector, [inv_sqrt2, inv_sqrt2], atol=1e-15)
    assert np.allclose(bs.pairs[1].vector, [inv_sqrt2, -inv_sqrt2], atol=1e-15)


def test_eigen_block_pi_sixth_example():
    block = PTBlock(r=1.0, theta=math.pi / 6, s=1.0)
    bs = eigen_block(block)
    assert bs.phi == pytest.approx(math.pi / 6, abs=1e-15)
    h = assemble(HamiltonianSpec([block]))
    expected = eig2_oracle(h)  # {0, sqrt(3)}
    got = sort_eigs(bs.values)
    for a, b in zip(got, expected):
        assert abs(a - b) < 1e-12
    assert bs.values[0].real == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert bs.values[1] == 0.0


def test_eigen_block_values_are_real():
    bs = eigen_block(PTBlock(r=2.5, theta=-0.8, s=3.0))
    for value in bs.values:
        assert value.imag == 0.0


def test_eigen_block_residuals_random(rng):
    for _ in range(1000):
        block = random_unbroken_block(rng)
        h = assemble(HamiltonianSpec([block]))
        for pair in eigen_block(block).pairs:
            residual = h @ pair.vector - pair.value * pair.vector
            assert max_abs(residual.reshape(1, -1)) < 1e-12


def test_eigen_block_matches_charpoly_oracle(rng):
    for _ in range(200):
        block = random_unbroken_block(rng)
        h = assemble(HamiltonianSpec([block]))
        expected = eig2_oracle(h)
        got = sort_eigs(eigen_block(block).values)
        for a, b in zip(got, expected):
            assert abs(a - b) < 1e-12


def test_eigen_block_sign_indices():
    bs = eigen_block(PTBlock(r=1.0, theta=0.5, s=2.0))
    assert [p.sign_index for p in bs.pairs] == [1, -1]
    assert bs.pairs[0].value.real > bs.pairs[1].value.real


def test_eigen_block_refuses_other_phases():
    with pytest.raises(NotUnbrokenError):
        eigen_block(PTBlock(r=2.0, theta=math.pi / 2, s=1.0))
    with pytest.raises(NotUnbrokenError):
        eigen_block(PTBlock(r=1.0, theta=math.pi / 2, s=1.0))


def test_phase_angle_principal_branch(rng):
    for _ in range(100):
        block = random_unbroken_block(rng)
        phi = phase_angle(block)
        assert -math.pi / 2 < phi < math.pi / 2
        assert block.r * math.sin(block.theta) == pytest.approx(
            block.s * math.sin(phi), abs=1e-12
        )


# ------------------------------------------------------------ eigen_broken


def test_eigen_broken_examples():
    upper, lower = eigen_broken(PTBlock(r=2.0, theta=math.pi / 2, s=1.0))
    assert abs(upper - 1j * math.sqrt(3.0)) < 1e-12
    assert abs(lower + 1j * math.sqrt(3.0)) < 1e-12

    upper, lower = eigen_broken(PTBlock(r=1.0, theta=math.pi / 2, s=0.5))
    assert abs(upper - 1j * math.sqrt(0.75)) < 1e-12
    assert abs(lower + 1j * math.sqrt(0.75)) < 1e-12


def test_eigen_broken_exact_conjugates(rng):
    for _ in range(100):
        block = random_broken_block(rng)
        upper, lower = eigen_broken(block)
        assert upper == lower.conjugate()
        assert upper.imag > 0


def test_eigen_broken_matches_charpoly_oracle(rng):
    for _ in range(200):
        block = random_broken_block(rng)
        h = assemble(HamiltonianSpec([block]))
        expected = eig2_oracle(h)
        got = sort_eigs(eigen_broken(block))
        for a, b in zip(got, expected):
            assert abs(a - b) < 1e-10


def test_eigen_broken_refuses_unbroken():
    with pytest.raises(NotBrokenError):
        eigen_broken(PTBlock(r=1.0, theta=math.pi / 6, s=1.0))


# ----------------------------------------------------------- full_spectrum


def test_full_spectrum_block_plus_level():
    block = PTBlock(r=1.1, theta=0.6, s=1.4)
    spec = HamiltonianSpec([block, RealLevel(a=0.25)])
    spectra = full_spectrum(spec)
    assert len(spectra) == 2

    phi = math.asin(block.r * math.sin(block.theta) / block.s)
    base, split = block.r * math.cos(block.theta), block.s * math.cos(phi)
    assert spectra[0].values[0].real == pytest.approx(base + split, abs=1e-12)
    assert spectra[0].values[1].real == pytest.approx(base - split, abs=1e-12)
    assert spectra[1].values == (0.25 + 0j,)
    assert spectra[1].phase is Phase.UNBROKEN
    assert spectra[1].phi == 0.0
    assert spectra[1].pairs[0].sign_index == 1
    assert np.array_equal(spectra[1].pairs[0].embedded(3), [0, 0, 1])


def test_full_spectrum_two_blocks():
    blocks = [PTBlock(r=1.0, theta=0.3, s=1.0), PTBlock(r=2.0, theta=-0.4, s=3.0)]
    spectra = full_spectrum(HamiltonianSpec(blocks))
    values = [v for bs in spectra for v in bs.values]
    assert len(values) == 4
    for block, bs in zip(blocks, spectra):
        phi = math.asin(block.r * math.sin(block.theta) / block.s)
        expected = sorted(
            [
                block.r * math.cos(block.theta) + block.s * math.cos(phi),
                block.r * math.cos(block.theta) - block.s * math.cos(phi),
            ]
        )
        got = sorted(v.real for v in bs.values)
        assert got == pytest.approx(expected, abs=1e-12)


def test_full_spectrum_levels_only():
    spec = HamiltonianSpec([RealLevel(a=1.0), RealLevel(a=-2.0), RealLevel(a=0.5)])
    spectra = full_spectrum(spec)
    assert [bs.values for bs in spectra] == [(1 + 0j,), (-2 + 0j,), (0.5 + 0j,)]


def test_full_spectrum_embedding_residuals(rng):
    spec = HamiltonianSpec(
        [
            random_unbroken_block(rng),
            RealLevel(a=0.9),
            random_unbroken_block(rng),
        ]
    )
    h = assemble(spec)
    for bs in full_spectrum(spec):
        for pair in bs.pairs:
            vec = pair.embedded(spec.dimension)
            residual = h @ vec - pair.value * vec
            assert np.max(np.abs(residual)) < 1e-12 * max(1.0, max_abs(h))


def test_full_spectrum_vectors_vanish_outside_block():
    spec = HamiltonianSpec([PTBlock(r=1.0, theta=0.4, s=1.2), RealLevel(a=2.0)])
    spectra = full_spectrum(spec)
    for pair in spectra[0].pairs:
        assert pair.embedded(3)[2] == 0
    assert np.array_equal(spectra[1].pairs[0].embedded(3), [0, 0, 1])


def test_full_spectrum_strict_raises_with_block_name():
    spec = HamiltonianSpec([PTBlock(r=1.0, theta=0.1, s=4.0), PTBlock(r=2.0, theta=math.pi / 2, s=1.0)])
    with pytest.raises(NotUnbrokenError, match="block 1"):
        full_spectrum(spec)


def test_full_spectrum_tolerant_mode_reports_broken_values():
    broken = PTBlock(r=2.0, theta=math.pi / 2, s=1.0)
    spec = HamiltonianSpec([PTBlock(r=1.0, theta=0.1, s=4.0), broken])
    spectra = full_spectrum(spec, allow_broken=True)
    assert spectra[1].phase is Phase.BROKEN
    assert spectra[1].pairs == ()
    assert spectra[1].values[0] == spectra[1].values[1].conjugate()


def test_full_spectrum_tolerant_mode_exceptional_degenerate():
    exceptional = PTBlock(r=1.0, theta=math.pi / 2, s=1.0)
    spectra = full_spectrum(HamiltonianSpec([exceptional]), allow_broken=True)
    assert spectra[0].phase is Phase.EXCEPTIONAL
    assert spectra[0].pairs == ()
    assert spectra[0].values[0] == spectra[0].values[1]


# ------------------------------------------------------ trace/det identities


def test_trace_and_determinant_identities(rng):
    for _ in range(200):
        block = random_unbroken_block(rng)
        values = eigen_block(block).values
        assert sum(values).real == pytest.approx(
            2.0 * block.r * math.cos(block.theta), abs=1e-12
        )
        assert (values[0] * values[1]).real == pytest.approx(
            block.r**2 - block.s**2, abs=1e-11
        )
    for _ in range(200):
        block = random_broken_block(rng)
        upper, lower = eigen_broken(block)
        assert (upper + lower).real == pytest.approx(
            2.0 * block.r * math.cos(block.theta), abs=1e-12
        )
        product = upper * lower
        assert product.imag == pytest.approx(0.0, abs=1e-12)
        assert product.real == pytest.approx(block.r**2 - block.s**2, rel=1e-10, abs=1e-11)


def test_eigenvalues_merge_at_the_boundary():
    # approach the exceptional point from both sides: the splitting of the
    # real pair and the width of the conjugate pair both collapse onto
    # r cos(theta)
    r, theta = 1.7, 0.8
    x = r * math.sin(theta)
    center = r * math.cos(theta)

    near_unbroken = PTBlock(r=r, theta=theta, s=x * (1 + 1e-6))
    for value in eigen_block(near_unbroken).values:
        assert abs(value - center) < 5e-3 * near_unbroken.s

    near_broken = PTBlock(r=r, theta=theta, s=x * (1 - 1e-6))
    for value in eigen_broken(near_broken):
        assert abs(value - center) < 5e-3 * near_broken.s
