import cmath
import dataclasses

import numpy as np
import pytest

from ptsym import (
    HamiltonianSpec,
    PTBlock,
    RealLevel,
    assemble,
    block_offsets,
    dimension,
    direct_sum,
)


def test_assemble_single_block_verbatim():
    r, theta, s = 1.3, 0.7, 2.1
    h = assemble(HamiltonianSpec([PTBlock(r=r, theta=theta, s=s)]))
    z = r * cmath.exp(1j * theta)
    assert h.shape == (2, 2)
    assert h[0, 0] == z
    assert h[1, 1] == z.conjugate()
    assert h[0, 1] == s
    assert h[1, 0] == s


def test_assemble_block_plus_level_layout():
    spec = HamiltonianSpec([PTBlock(r=1.0, theta=0.4, s=1.5), RealLevel(a=-0.7)])
    h = assemble(spec)
    assert h.shape == (3, 3)
    assert h[2, 2] == -0.7
    assert np.all(h[2, :2] == 0)
    assert np.all(h[:2, 2] == 0)


def test_assemble_hermitian_limit_is_real_symmetric():
    h = assemble(HamiltonianSpec([PTBlock(r=0.9, theta=0.0, s=0.4)]))
    assert np.all(h.imag == 0)
    assert np.allclose(h.real, [[0.9, 0.4], [0.4, 0.9]], atol=0)


def test_assemble_is_exactly_symmetric():
    spec = HamiltonianSpec(
        [
            PTBlock(r=2.2, theta=-1.1, s=0.9),
            RealLevel(a=3.0),
            PTBlock(r=0.1, theta=2.9, s=4.0),
        ]
    )
    h = assemble(spec)
    assert np.array_equal(h, h.T)


def test_assemble_respects_direct_sum():
    blocks = [PTBlock(r=1.0, theta=0.3, s=1.0), RealLevel(a=1.5), PTBlock(r=0.5, theta=-0.2, s=2.0)]
    whole = assemble(HamiltonianSpec(blocks))
    parts = direct_sum([assemble(HamiltonianSpec([b])) for b in blocks])
    assert np.array_equal(whole, parts)


def test_zero_modulus_block_allowed():
    h = assemble(HamiltonianSpec([PTBlock(r=0.0, theta=2.0, s=0.7)]))
    assert np.allclose(h, [[0.0, 0.7], [0.7, 0.0]], atol=0)


@pytest.mark.parametrize(
    "blocks,expected",
    [
        ([PTBlock(r=1, theta=0.1, s=1)], [(0, 2)]),
        (
            [PTBlock(r=1, theta=0.1, s=1), PTBlock(r=2, theta=0.2, s=3), RealLevel(a=1.0)],
            [(0, 2), (2, 2), (4, 1)],
        ),
        (
            [PTBlock(r=1, theta=0.1, s=1)] * 5,
            [(0, 2), (2, 2), (4, 2), (6, 2), (8, 2)],
        ),
        (
            [RealLevel(a=0.5), PTBlock(r=1, theta=0.1, s=1)],
            [(0, 1), (1, 2)],
        ),
    ],
)
def test_block_offsets(blocks, expected):
    spec = HamiltonianSpec(blocks)
    assert block_offsets(spec) == expected
    assert dimension(spec) == sum(w for _, w in expected)
    assert spec.dimension == dimension(spec)


def test_offsets_partition_full_range():
    spec = HamiltonianSpec(
        [RealLevel(a=1.0), PTBlock(r=1, theta=0.5, s=2), RealLevel(a=-1.0), PTBlock(r=2, theta=1.0, s=3)]
    )
    covered = []
    for start, width in block_offsets(spec):
        covered.extend(range(start, start + width))
    assert covered == list(range(dimension(spec)))


def test_interleaved_order_is_preserved_in_matrix():
    spec = HamiltonianSpec([RealLevel(a=2.0), PTBlock(r=1.0, theta=0.2, s=1.0)])
    h = assemble(spec)
    assert h[0, 0] == 2.0
    assert h[1, 2] == 1.0


def test_block_validation():
    with pytest.raises(ValueError, match="s must be > 0"):
        PTBlock(r=1.0, theta=0.0, s=0.0)
    with pytest.raises(ValueError, match="s must be > 0"):
        PTBlock(r=1.0, theta=0.0, s=-1.0)
    with pytest.raises(ValueError, match="r must be >= 0"):
        PTBlock(r=-0.1, theta=0.0, s=1.0)
    with pytest.raises(ValueError, match="finite"):
        PTBlock(r=np.nan, theta=0.0, s=1.0)
    # every eigenvalue modulus is at most r + s
    with pytest.raises(ValueError, match=r"r \+ s must be finite"):
        PTBlock(r=1e308, theta=0.0, s=1e308)
    with pytest.raises(ValueError, match="finite"):
        RealLevel(a=np.inf)


def test_spec_validation():
    with pytest.raises(ValueError, match="at least one"):
        HamiltonianSpec([])
    with pytest.raises(TypeError):
        HamiltonianSpec([PTBlock(r=1, theta=0, s=1), "not a block"])


def test_blocks_are_frozen():
    block = PTBlock(r=1.0, theta=0.0, s=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        block.r = 2.0
