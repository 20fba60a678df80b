import numpy as np
import pytest

from ptsym.linalg import (
    SingularMatrixError,
    as_cmatrix,
    as_cvector,
    direct_sum,
    frob_norm,
    mat_inverse,
    max_abs,
)


def rand_cmat(rng, n, m=None):
    m = m or n
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


@pytest.fixture
def rng():
    return np.random.default_rng(20250811)


# ------------------------------------------------------------ mat_inverse


def test_inverse_identity():
    assert max_abs(mat_inverse(np.eye(4)) - np.eye(4)) == 0.0


def test_inverse_permutation_self_inverse():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert max_abs(mat_inverse(swap) - swap) < 1e-15


def test_inverse_unit_determinant_closed_form():
    # [[sec, i tan], [-i tan, sec]] has determinant one; its inverse flips
    # the off-diagonal signs.
    phi = np.pi / 6
    sec, tan = 1 / np.cos(phi), np.tan(phi)
    a = np.array([[sec, 1j * tan], [-1j * tan, sec]])
    expected = np.array([[sec, -1j * tan], [1j * tan, sec]])
    inv = mat_inverse(a)
    assert max_abs(inv - expected) < 1e-14
    assert max_abs(a @ inv - np.eye(2)) < 1e-14


def test_inverse_roundtrip_random(rng):
    for _ in range(50):
        n = int(rng.integers(1, 9))
        a = rand_cmat(rng, n)
        inv = mat_inverse(a)
        assert max_abs(a @ inv - np.eye(n)) < 1e-10
        assert max_abs(inv @ a - np.eye(n)) < 1e-10


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrixError):
        mat_inverse(np.zeros((3, 3)))
    rank_one = np.outer([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
    with pytest.raises(SingularMatrixError):
        mat_inverse(rank_one)


def test_inverse_non_square_rejected():
    with pytest.raises(ValueError, match="non-square"):
        mat_inverse(np.ones((2, 3)))


# ------------------------------------------------------------------ norms


def test_norms_of_zero_matrix():
    z = np.zeros((3, 3))
    assert frob_norm(z) == 0.0
    assert max_abs(z) == 0.0


def test_frob_norm_identity():
    assert frob_norm(np.eye(4)) == pytest.approx(2.0, abs=1e-15)


def test_frob_norm_matches_sum_of_squares(rng):
    m = rand_cmat(rng, 6)
    total = 0.0
    for row in m:
        for z in row:
            total += abs(z) ** 2
    assert frob_norm(m) == pytest.approx(np.sqrt(total), rel=1e-13)
    assert frob_norm(m) > 0.0


def test_frob_norm_does_not_overflow():
    # each squared entry would be 1e600
    assert frob_norm([[1e300, 1e300]]) == pytest.approx(np.sqrt(2.0) * 1e300, rel=1e-15)
    assert frob_norm([[np.inf, 1.0]]) == np.inf
    # dividing a complex array by a subnormal scale multiplies by its reciprocal, inf
    assert frob_norm([[3e-320, 4e-320j]]) == pytest.approx(5e-320, rel=1e-3)
    assert frob_norm([[5e-324]]) == 5e-324


# ------------------------------------------------------------- direct_sum


def test_direct_sum_single_scalar_block():
    out = direct_sum([np.array([[2.5 + 1j]])])
    assert out.shape == (1, 1)
    assert out[0, 0] == 2.5 + 1j


def test_direct_sum_two_blocks_zero_corners(rng):
    a, b = rand_cmat(rng, 2), rand_cmat(rng, 2)
    out = direct_sum([a, b])
    assert out.shape == (4, 4)
    assert np.array_equal(out[:2, :2], a)
    assert np.array_equal(out[2:, 2:], b)
    assert np.all(out[:2, 2:] == 0)
    assert np.all(out[2:, :2] == 0)


def test_direct_sum_five_blocks_off_block_pattern(rng):
    blocks = [rand_cmat(rng, 2) for _ in range(5)]
    out = direct_sum(blocks)
    assert out.shape == (10, 10)
    mask = np.zeros((10, 10), dtype=bool)
    for k in range(5):
        mask[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = True
    assert np.all(out[~mask] == 0)


def test_direct_sum_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        direct_sum([])


def test_direct_sum_rectangular_block_rejected(rng):
    with pytest.raises(ValueError, match="square"):
        direct_sum([rand_cmat(rng, 2, 3)])


def test_direct_sum_places_nonfinite_entries():
    # an overflowed spectral sum must reach its residual, not raise here
    out = direct_sum([np.array([[np.inf]]), np.array([[np.nan]])])
    assert out[0, 0] == np.inf
    assert np.isnan(out[1, 1])
    assert out[0, 1] == 0 and out[1, 0] == 0


def test_direct_sum_spectrum_is_union_of_block_spectra(rng):
    # det(M - z I) must factor over the blocks; probe the characteristic
    # polynomial at random points with numpy's determinant as the oracle.
    blocks = [rand_cmat(rng, 2), rand_cmat(rng, 1), rand_cmat(rng, 3)]
    out = direct_sum(blocks)
    for _ in range(10):
        z = complex(rng.standard_normal(), rng.standard_normal())
        whole = np.linalg.det(out - z * np.eye(6))
        parts = np.prod(
            [np.linalg.det(b - z * np.eye(b.shape[0])) for b in blocks]
        )
        assert abs(whole - parts) < 1e-10 * max(1.0, abs(whole))


# ------------------------------------------------------------- validation


def test_non_finite_entries_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        as_cmatrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        as_cmatrix([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        as_cvector([1.0, complex(0.0, np.nan)])


def test_shape_validation():
    with pytest.raises(ValueError):
        as_cmatrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_cvector([[1.0]])
