"""Tests for the golden sliding-window oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ArchitectureConfig
from repro.core.window.base import pad_to_same
from repro.core.window.golden import GoldenEngine, golden_apply, sliding_windows
from repro.errors import ConfigError
from repro.kernels import BoxFilterKernel, MedianKernel
from repro.kernels.base import as_kernel

from helpers import random_image


class TestSlidingWindows:
    def test_shape(self):
        views = sliding_windows(np.zeros((10, 12)), 4)
        assert views.shape == (7, 9, 4, 4)

    def test_is_view_not_copy(self):
        img = np.zeros((8, 8))
        views = sliding_windows(img, 3)
        img[0, 0] = 42
        assert views[0, 0, 0, 0] == 42

    def test_window_contents(self):
        img = np.arange(16).reshape(4, 4)
        views = sliding_windows(img, 2)
        assert np.array_equal(views[1, 2], img[1:3, 2:4])

    def test_oversized_window_rejected(self):
        with pytest.raises(ConfigError):
            sliding_windows(np.zeros((4, 4)), 5)

    def test_non_2d_rejected(self):
        with pytest.raises(ConfigError):
            sliding_windows(np.zeros(16), 4)


class TestGoldenApply:
    def test_box_filter_equals_mean(self, rng):
        img = random_image(rng, 16, 16)
        out = golden_apply(img, 4, BoxFilterKernel(4))
        expected = sliding_windows(img, 4).mean(axis=(2, 3))
        assert np.allclose(out, expected)

    def test_chunking_matches_unchunked(self, rng):
        """Tiny chunk budget still produces identical output."""
        img = random_image(rng, 24, 24)
        kern = MedianKernel(6)
        small = golden_apply(img, 6, kern, chunk_budget_bytes=4096)
        big = golden_apply(img, 6, kern)
        assert np.array_equal(small, big)

    def test_bare_function_kernel(self, rng):
        img = random_image(rng, 12, 12)
        out = golden_apply(img, 4, as_kernel(lambda w: w.max(axis=(-2, -1))))
        expected = sliding_windows(img, 4).max(axis=(2, 3))
        assert np.array_equal(out, expected)


class TestGoldenEngine:
    def test_run_shapes_and_stats(self, rng):
        config = ArchitectureConfig(image_width=16, image_height=16, window_size=4)
        img = random_image(rng, 16, 16)
        run = GoldenEngine(config, BoxFilterKernel(4)).run(img)
        assert run.outputs.shape == (13, 13)
        assert run.stats.pixels_in == 256
        assert run.stats.outputs == 13 * 13

    def test_kernel_size_mismatch_rejected(self):
        config = ArchitectureConfig(image_width=16, image_height=16, window_size=4)
        with pytest.raises(ConfigError):
            GoldenEngine(config, BoxFilterKernel(8))

    def test_wrong_image_shape_rejected(self, rng):
        config = ArchitectureConfig(image_width=16, image_height=16, window_size=4)
        engine = GoldenEngine(config, BoxFilterKernel(4))
        with pytest.raises(ConfigError):
            engine.run(random_image(rng, 16, 18))

    def test_out_of_range_pixels_rejected(self):
        config = ArchitectureConfig(image_width=16, image_height=16, window_size=4)
        engine = GoldenEngine(config, BoxFilterKernel(4))
        with pytest.raises(ConfigError):
            engine.run(np.full((16, 16), 999))


class TestPadToSame:
    def test_restores_input_size(self):
        out = pad_to_same(np.ones((13, 13)), 4)
        assert out.shape == (16, 16)

    def test_odd_window(self):
        out = pad_to_same(np.ones((14, 14)), 3)
        assert out.shape == (16, 16)
