"""The 2D in-place Haar transform: sub-band placement, edge response,
round trips and input rejection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.transform.haar2d import forward_inplace, inverse_inplace
from repro.core.transform.hwmodel import Haar2DBlock
from repro.errors import ConfigError

images = hnp.arrays(
    dtype=np.int32,
    shape=st.tuples(
        st.integers(1, 8).map(lambda n: 2 * n), st.integers(1, 8).map(lambda n: 2 * n)
    ),
    elements=st.integers(0, 255),
)


def subbands(plane):
    """The LL, LH, HL and HH positions of a level-1 plane."""
    return (
        plane[..., 0::2, 0::2],
        plane[..., 1::2, 0::2],
        plane[..., 0::2, 1::2],
        plane[..., 1::2, 1::2],
    )


class TestForward2D:
    def test_constant_image(self):
        ll, lh, hl, hh = subbands(forward_inplace(np.full((8, 8), 100)))
        assert np.all(ll == 100)
        assert np.all(lh == 0)
        assert np.all(hl == 0)
        assert np.all(hh == 0)

    def test_subband_shapes(self):
        plane = forward_inplace(np.zeros((6, 10), dtype=int))
        assert plane.shape == (6, 10)
        assert {band.shape for band in subbands(plane)} == {(3, 5)}

    def test_vertical_edge_excites_hl(self):
        img = np.zeros((8, 8), dtype=int)
        img[:, 4:] = 200  # vertical edge between columns 3 and 4
        _, lh, hl, hh = subbands(forward_inplace(img))
        assert np.all(hh == 0)
        assert np.all(lh == 0)
        # The edge falls between 2x2 blocks here, so HL stays 0 too...
        img2 = np.zeros((8, 8), dtype=int)
        img2[:, 3:] = 200  # edge inside a block
        _, _, hl2, _ = subbands(forward_inplace(img2))
        assert np.any(hl2 != 0)

    def test_horizontal_edge_excites_lh(self):
        img = np.zeros((8, 8), dtype=int)
        img[3:, :] = 200
        _, lh, hl, _ = subbands(forward_inplace(img))
        assert np.any(lh != 0)
        assert np.all(hl == 0)

    def test_odd_shape_rejected(self):
        with pytest.raises(ConfigError):
            forward_inplace(np.zeros((7, 8), dtype=int))

    def test_1d_input_rejected(self):
        with pytest.raises(ConfigError):
            forward_inplace(np.zeros(8, dtype=int))


class TestSubbands:
    """Sub-band positions of the interleaved plane."""

    def test_interleave_roundtrip(self):
        """Any interleaved coefficient plane survives inverse-then-forward."""
        rng = np.random.default_rng(3)
        plane = rng.integers(-300, 300, size=(8, 12))
        assert np.array_equal(forward_inplace(inverse_inplace(plane)), plane)

    def test_interleaved_layout_parities(self):
        rng = np.random.default_rng(4)
        img = rng.integers(0, 256, size=(4, 4))
        plane = forward_inplace(img)
        ll, lh, hl, hh = Haar2DBlock().forward(
            int(img[0, 0]), int(img[0, 1]), int(img[1, 0]), int(img[1, 1])
        )
        assert plane[0, 0] == ll
        assert plane[0, 1] == hl
        assert plane[1, 0] == lh
        assert plane[1, 1] == hh

    def test_from_interleaved_rejects_odd(self):
        with pytest.raises(ConfigError):
            inverse_inplace(np.zeros((3, 4), dtype=int))


class TestRoundTrip:
    @given(images)
    @settings(max_examples=100, deadline=None)
    def test_perfect_reconstruction(self, img):
        assert np.array_equal(inverse_inplace(forward_inplace(img)), img)

    @given(images)
    @settings(max_examples=50, deadline=None)
    def test_wrapped_roundtrip(self, img):
        plane = forward_inplace(img, wrap_bits=8)
        out = inverse_inplace(plane, wrap_bits=8)
        assert np.array_equal(out & 0xFF, img & 0xFF)


class TestColumnPair:
    """The ``(N, 2)`` column pair the register-level engine transforms."""

    def test_matches_whole_image_transform(self):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, size=(16, 8))
        full = forward_inplace(img)
        for j in range(0, 8, 2):
            pair = forward_inplace(img[:, j : j + 2])
            assert np.array_equal(pair, full[:, j : j + 2])

    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        cols = rng.integers(0, 256, size=(8, 2))
        assert np.array_equal(inverse_inplace(forward_inplace(cols)), cols)

    def test_wrong_width_rejected(self):
        with pytest.raises(ConfigError):
            forward_inplace(np.zeros((8, 3), dtype=int))

    def test_odd_height_rejected(self):
        with pytest.raises(ConfigError):
            forward_inplace(np.zeros((7, 2), dtype=int))


class TestMultilevel:
    def test_level_shapes_halve(self):
        """Level ``l`` rewrites only the ``2**(l-1)``-strided grid."""
        img = np.random.default_rng(7).integers(0, 256, size=(16, 16))
        prev = forward_inplace(img, 1)
        for levels, side in ((2, 8), (3, 4)):
            plane = forward_inplace(img, levels)
            grid = np.zeros((16, 16), dtype=bool)
            stride = 1 << (levels - 1)
            grid[::stride, ::stride] = True
            assert np.array_equal(plane[~grid], prev[~grid])
            assert plane[grid].size == side * side
            prev = plane

    @given(
        hnp.arrays(dtype=np.int32, shape=(2, 16, 16), elements=st.integers(0, 255)),
        st.integers(1, 4),
    )
    @settings(max_examples=50, deadline=None)
    def test_multilevel_roundtrip(self, img, levels):
        plane = forward_inplace(img, levels)
        assert np.array_equal(inverse_inplace(plane, levels), img)

    def test_too_many_levels_rejected(self):
        with pytest.raises(ConfigError):
            forward_inplace(np.zeros((4, 4), dtype=int), 3)

    def test_zero_levels_rejected(self):
        with pytest.raises(ConfigError):
            inverse_inplace(np.zeros((4, 4), dtype=int), 0)
