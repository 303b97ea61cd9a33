"""Tests for convolution-family kernels."""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.window.golden import golden_apply, sliding_windows
from repro.errors import ConfigError
from repro.kernels import BoxFilterKernel, ConvolutionKernel, convolution

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


@st.composite
def chunked_box_cases(draw):
    """``(window, input rows per chunk, image)`` with the frame (or a
    batched stack of frames) spanning two to five chunks plus a
    remainder, odd remainders included, and pixels wide enough for
    either accumulator width."""
    n = draw(st.integers(1, 12))
    chunk_rows = draw(st.integers(n, n + 6))
    height = draw(st.integers(2, 5)) * chunk_rows + draw(
        st.integers(0, chunk_rows - 1)
    )
    width = draw(st.integers(n, n + 8))
    lead = draw(st.sampled_from([(), (3,), (2, 2)]))
    # Pixels of 2**25 .. 2**26 push window sums past int32 from n = 7 on
    # (one sign: int32 sums that wrap and come back would still be exact).
    dtype, low, high = draw(
        st.sampled_from([*PIXEL_RANGES, (np.int64, 2**25, 2**26)])
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    image = rng.integers(low, high, size=(*lead, height, width), endpoint=True)
    return n, chunk_rows, image.astype(dtype)


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
            k.apply(sliding_windows(image, n)[::3]), golden_apply(image, n, k)[::3]
        )

    @given(chunked_box_cases())
    @settings(max_examples=60, deadline=None)
    def test_chunk_boundaries_bit_identical(self, case):
        """The ``h > n`` route over several row chunks, the last one
        short, of a frame or a batched stack: every window sum is exact
        whichever chunk its rows fall in and whichever accumulator width
        its pixels take."""
        n, chunk_rows, image = case
        k = BoxFilterKernel(n)
        batch = int(np.prod(image.shape[:-2]))
        values = chunk_rows * batch * image.shape[-1]
        with mock.patch.object(convolution, "BOX_CHUNK_VALUES", values):
            chunked = k.apply_image(image)
        sums = sliding_window_view(image, (n, n), axis=(-2, -1)).sum(
            axis=(-2, -1), dtype=np.int64
        )
        assert chunked.dtype == np.float64
        assert np.array_equal(chunked, sums / n**2)
        assert np.array_equal(chunked, k.apply_image(image))

    def test_row_stride_exact_at_window_six(self, rng):
        """Every third row of windows, taken on the windowed route,
        equals the dense route's rows: the two matched only to rounding
        while both divided by a non-dyadic ``N^2``."""
        image = random_image(rng, 64, 64)
        k = BoxFilterKernel(6)
        assert np.array_equal(
            k.apply(sliding_windows(image, 6)[::3]), golden_apply(image, 6, k)[::3]
        )

    def test_float_input_takes_tap_route(self, rng):
        """Float pixels keep the inherited ``ConvolutionKernel`` routes."""
        image = rng.random((20, 24)) * 255.0
        k = BoxFilterKernel(6)
        taps = ConvolutionKernel(np.full((6, 6), 1.0 / 36))
        windows = sliding_window_view(image, (6, 6))
        assert np.array_equal(k.apply_image(image), taps.apply_image(image))
        assert np.array_equal(k.apply(windows), taps.apply(windows))


class TestAccumulatorWidth:
    """Integer box sums accumulate in int32 exactly when ``N^2 * peak``
    stays below 2^31, ``peak`` the pixel dtype's largest magnitude: pinned
    at all-``pixel_max`` frames at the largest N the rule admits (the
    band route's running sums wrap there, and every window sum is still
    exact) and one above it (int64)."""

    @pytest.mark.parametrize(
        "dtype,largest", [(np.uint8, 2901), (np.uint16, 181)], ids=["8bit", "16bit"]
    )
    def test_all_max_frames_at_the_int32_limit(self, dtype, largest):
        pixel_max = np.iinfo(dtype).max
        assert largest**2 * pixel_max < 2**31 <= (largest + 1) ** 2 * pixel_max
        for n, acc in ((largest, np.int32), (largest + 1, np.int64)):
            # A band three windows wider than tall: the running sums along
            # it pass 2^31 before the last window.
            band = np.full((n, n + 3), pixel_max, dtype=dtype)
            assert convolution._accumulator(band, n) is acc
            assert int(band[0].sum(dtype=np.int64)) * n >= 2**31
            k = BoxFilterKernel(n)
            assert np.array_equal(k.apply_image(band), np.full((1, 4), pixel_max))
            if dtype == np.uint16:  # the ``h > n`` route too (small at 16 bit)
                frame = np.full((n + 2, n + 3), pixel_max, dtype=dtype)
                assert np.array_equal(k.apply_image(frame), np.full((3, 4), pixel_max))

    def test_narrow_pixels_take_int32_band_sums(self, rng):
        """A uint8 band stack gives what its int64 copy gives."""
        bands = rng.integers(0, 256, size=(6, 16, 64)).astype(np.uint8)
        k = BoxFilterKernel(16)
        assert convolution._accumulator(bands, 16) is np.int32
        got = k.apply_image(bands)
        assert np.array_equal(got, k.apply_image(bands.astype(np.int64)))
        assert got.dtype == np.float64
