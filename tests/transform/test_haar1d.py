"""The Haar S-transform butterfly (Fig 5's 1D block) seen through
``forward_inplace``: a signal repeated on two rows transforms into its
``(L, H)`` pairs at the LL and HL positions, with LH = HH = 0."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.transform.haar2d import forward_inplace, inverse_inplace
from repro.errors import ConfigError


def s_transform(signal, *, wrap_bits=None):
    """``(L, H)`` of each adjacent pair of a 1D signal (or batch of them)."""
    signal = np.asarray(signal)
    plane = forward_inplace(np.stack([signal, signal], axis=-2), wrap_bits=wrap_bits)
    assert not plane[..., 1, :].any()
    return plane[..., 0, 0::2], plane[..., 0, 1::2]


def inverse_s_transform(low, high, *, wrap_bits=None):
    """Exact inverse of :func:`s_transform`."""
    low, high = np.asarray(low), np.asarray(high)
    row = np.empty(low.shape[:-1] + (2 * low.shape[-1],), dtype=np.int64)
    row[..., 0::2], row[..., 1::2] = low, high
    plane = np.stack([row, np.zeros_like(row)], axis=-2)
    out = inverse_inplace(plane, wrap_bits=wrap_bits)
    assert np.array_equal(out[..., 0, :], out[..., 1, :])
    return out[..., 0, :]


class TestForward:
    def test_constant_signal_has_zero_details(self):
        low, high = s_transform(np.full(16, 77))
        assert np.all(high == 0)
        assert np.all(low == 77)

    def test_known_pair(self):
        # H = x0 - x1 = 10 - 4 = 6; L = x1 + H//2 = 4 + 3 = 7
        low, high = s_transform([10, 4])
        assert high[0] == 6
        assert low[0] == 7

    def test_negative_difference_uses_floor_division(self):
        # H = 4 - 10 = -6; L = 10 + (-6 >> 1) = 10 - 3 = 7
        low, high = s_transform([4, 10])
        assert high[0] == -6
        assert low[0] == 7

    def test_odd_difference_floor(self):
        # H = 0 - 5 = -5; floor(-5/2) = -3; L = 5 - 3 = 2
        low, high = s_transform([0, 5])
        assert high[0] == -5
        assert low[0] == 2

    def test_axis_selection(self):
        """Horizontal pairs land in (LL, HL), vertical pairs in (LL, LH)."""
        signal = np.random.default_rng(2).integers(0, 256, size=12)
        low, high = s_transform(signal)
        column = forward_inplace(np.stack([signal, signal], axis=1))
        assert np.array_equal(column[0::2, 0], low)
        assert np.array_equal(column[1::2, 0], high)
        assert not column[:, 1].any()

    def test_low_is_truncated_mean(self):
        rng = np.random.default_rng(1)
        data = rng.integers(0, 256, size=100)
        low, high = s_transform(data)
        pairs = data.reshape(-1, 2)
        # L differs from the true mean by at most one (floor effects).
        assert np.all(np.abs(low - pairs.mean(axis=1)) <= 1)

    def test_odd_length_rejected(self):
        with pytest.raises(ConfigError):
            forward_inplace(np.zeros((2, 7), dtype=int))

    def test_float_input_rejected(self):
        with pytest.raises(ConfigError, match="integer input"):
            forward_inplace(np.linspace(0, 1, 8).reshape(2, 4))
        with pytest.raises(ConfigError, match="integer input"):
            inverse_inplace(np.full((2, 4), 2.9))


class TestInverse:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            inverse_inplace(np.zeros(4, dtype=int))

    def test_interleave_order(self):
        # x0 returns to the even position, x1 to the odd one.
        assert inverse_s_transform([7], [6]).tolist() == [10, 4]


class TestRoundTrip:
    @given(
        hnp.arrays(
            dtype=np.int32,
            shape=st.integers(1, 64).map(lambda n: 2 * n),
            elements=st.integers(-(2**20), 2**20),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_perfect_reconstruction(self, data):
        assert np.array_equal(inverse_s_transform(*s_transform(data)), data)

    @given(
        hnp.arrays(
            dtype=np.int32,
            shape=st.tuples(st.integers(1, 8), st.integers(1, 16).map(lambda n: 2 * n)),
            elements=st.integers(0, 255),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_perfect_reconstruction_2d_batch(self, data):
        assert np.array_equal(inverse_s_transform(*s_transform(data)), data)

    @given(
        hnp.arrays(
            dtype=np.int32,
            shape=st.integers(1, 32).map(lambda n: 2 * n),
            elements=st.integers(0, 255),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_wrapped_roundtrip_exact_for_8bit_inputs(self, data):
        """Mod-256 datapaths still reconstruct 8-bit pixels exactly."""
        low, high = s_transform(data, wrap_bits=8)
        assert np.all(low >= -128) and np.all(low <= 127)
        assert np.all(high >= -128) and np.all(high <= 127)
        out = inverse_s_transform(low, high, wrap_bits=8)
        assert np.array_equal(out & 0xFF, data & 0xFF)


class TestDetailBounds:
    @given(
        hnp.arrays(
            dtype=np.int32,
            shape=st.tuples(
                st.integers(1, 8).map(lambda n: 2 * n),
                st.integers(1, 8).map(lambda n: 2 * n),
            ),
            elements=st.integers(0, 255),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_coefficient_ranges_for_8bit_pixels(self, img):
        """8-bit pixels give LL in [0, 255], HL/LH in [-255, 255] and HH in
        [-510, 510] — the ``pixel_bits + 2`` default coefficient width."""
        plane = forward_inplace(img)
        ll, hl = plane[0::2, 0::2], plane[0::2, 1::2]
        lh, hh = plane[1::2, 0::2], plane[1::2, 1::2]
        assert np.all((ll >= 0) & (ll <= 255))
        assert np.all((np.abs(hl) <= 255) & (np.abs(lh) <= 255))
        assert np.all(np.abs(hh) <= 510)
