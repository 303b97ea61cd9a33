"""Tests for convolution-family kernels."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.window.golden import golden_apply
from repro.errors import ConfigError
from repro.kernels import BoxFilterKernel, ConvolutionKernel

from helpers import random_image


class TestConvolutionKernel:
    def test_weighted_sum(self):
        taps = np.array([[1, 0], [0, 1]])
        k = ConvolutionKernel(taps)
        window = np.array([[3, 5], [7, 9]])
        assert k.apply(window) == 12

    def test_batch_dims_preserved(self, rng):
        k = ConvolutionKernel(np.ones((3, 3)))
        windows = rng.integers(0, 10, size=(4, 5, 3, 3))
        out = k.apply(windows)
        assert out.shape == (4, 5)
        assert out[2, 3] == windows[2, 3].sum()

    def test_non_square_rejected(self):
        with pytest.raises(ConfigError):
            ConvolutionKernel(np.ones((2, 3)))

    def test_window_size_attribute(self):
        assert ConvolutionKernel(np.ones((5, 5))).window_size == 5

    def test_wrong_window_size_rejected(self):
        k = ConvolutionKernel(np.ones((3, 3)))
        with pytest.raises(ConfigError):
            k.apply(np.zeros((4, 4)))


class TestBoxFilter:
    def test_is_mean(self, rng):
        img = random_image(rng, 6, 6)
        k = BoxFilterKernel(6)
        assert np.isclose(k.apply(img), img.mean())

    def test_invalid_size(self):
        with pytest.raises(ConfigError):
            BoxFilterKernel(0)

    def test_name(self):
        assert BoxFilterKernel(8).name == "box8"


class TestApplyImage:
    """The dense whole-image route used by golden_apply's fast path."""

    def test_matches_windowed_apply(self, rng):
        k = BoxFilterKernel(4)
        image = random_image(rng, 20, 24)
        dense = k.apply_image(image)
        windowed = k.apply(sliding_window_view(image, (4, 4)))
        assert dense.shape == windowed.shape
        assert np.array_equal(dense, windowed)

    def test_integer_taps_stay_exact(self, rng):
        k = ConvolutionKernel(np.arange(16).reshape(4, 4))
        image = random_image(rng, 12, 16)
        dense = k.apply_image(image)
        assert np.issubdtype(dense.dtype, np.integer)
        windowed = k.apply(sliding_window_view(image, (4, 4)))
        assert np.array_equal(dense, windowed)

    def test_band_call_bit_identical_to_frame_call(self, rng):
        """An N-row band call must reproduce the matching frame rows
        bitwise — the engines' fast/sequential equivalence rests on it."""
        k = BoxFilterKernel(4)
        image = random_image(rng, 20, 24)
        frame = k.apply_image(image)
        for t in range(frame.shape[0]):
            assert np.array_equal(k.apply_image(image[t : t + 4])[0], frame[t])

    @pytest.mark.parametrize(
        "kernel",
        [BoxFilterKernel(4), ConvolutionKernel(np.linspace(-1, 1, 16).reshape(4, 4))],
        ids=["box", "float-taps"],
    )
    def test_leading_axes_are_batch_axes(self, rng, kernel):
        """A ``(T, H, W)`` stack gives ``(T, H-N+1, W-N+1)``: each image's
        own call, bit for bit (N-row bands and taller images alike)."""
        for rows in (4, 7):
            stack = np.stack([random_image(rng, rows, 16) for _ in range(5)])
            got = kernel.apply_image(stack)
            assert got.shape == (5, rows - 3, 13)
            for image, out in zip(stack, got):
                assert np.array_equal(kernel.apply_image(image), out)

    def test_rejects_bad_inputs(self):
        k = BoxFilterKernel(4)
        with pytest.raises(ConfigError):
            k.apply_image(np.zeros(8))
        with pytest.raises(ConfigError):
            k.apply_image(np.zeros((3, 8)))


#: ``(dtype, low, high)`` pixel ranges: 8-bit, signed 16-bit residues and
#: 16-bit magnitudes of either sign (lossy reconstructions go negative).
PIXEL_RANGES = [
    (np.uint8, 0, 255),
    (np.int16, -(2**15), 2**15 - 1),
    (np.int64, -65535, 65535),
]


@st.composite
def box_cases(draw):
    """Random (window, image) pairs, including the edge contents."""
    n = draw(st.integers(1, 32))
    height = draw(st.integers(n, n + 8))
    width = draw(st.integers(n, n + 8))
    dtype, low, high = draw(st.sampled_from(PIXEL_RANGES))
    style = draw(st.sampled_from(["noise", "zero", "max8", "max16"]))
    if style == "max16":
        dtype = np.int64  # 65535 fits no narrower type of the set
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if style == "noise":
        image = rng.integers(low, high, size=(height, width), endpoint=True)
    else:
        value = {"zero": 0, "max8": 255, "max16": 65535}[style]
        image = np.full((height, width), value)
    return n, image.astype(dtype)


class TestBoxFilterRoutes:
    """Every integer box-filter route returns the same correctly rounded
    mean, bit for bit, at every N (not only where ``1/N^2`` is dyadic)."""

    @given(box_cases())
    @settings(max_examples=100, deadline=None)
    def test_all_routes_bit_identical(self, case):
        n, image = case
        k = BoxFilterKernel(n)
        frame = k.apply_image(image)
        exact = np.array(
            [
                [
                    float(Fraction(sum(window.ravel().tolist()), n * n))
                    for window in row
                ]
                for row in sliding_window_view(image, (n, n))
            ]
        )
        assert frame.dtype == np.float64
        assert np.array_equal(frame, exact)
        assert np.array_equal(k.apply(sliding_window_view(image, (n, n))), exact)
        for t in range(frame.shape[0]):
            assert np.array_equal(k.apply_image(image[t : t + n])[0], exact[t])
        bands = sliding_window_view(image, n, axis=0).transpose(0, 2, 1)
        assert np.array_equal(k.apply_image(bands)[:, 0], exact)
        assert np.array_equal(golden_apply(bands, n, k), exact)
        assert np.array_equal(golden_apply(image, n, k), exact)
        assert np.array_equal(
            golden_apply(image, n, k, row_stride=3), golden_apply(image, n, k)[::3]
        )

    def test_row_stride_exact_at_window_six(self, rng):
        """The strided (windowed) route matched the dense one only to
        rounding while both divided by a non-dyadic ``N^2``."""
        image = random_image(rng, 64, 64)
        k = BoxFilterKernel(6)
        assert np.array_equal(
            golden_apply(image, 6, k, row_stride=3), golden_apply(image, 6, k)[::3]
        )

    def test_float_input_takes_tap_route(self, rng):
        """Float pixels keep the inherited ``ConvolutionKernel`` routes."""
        image = rng.random((20, 24)) * 255.0
        k = BoxFilterKernel(6)
        taps = ConvolutionKernel(np.full((6, 6), 1.0 / 36))
        windows = sliding_window_view(image, (6, 6))
        assert np.array_equal(k.apply_image(image), taps.apply_image(image))
        assert np.array_equal(k.apply(windows), taps.apply(windows))
