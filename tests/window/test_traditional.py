"""Tests for the traditional line-buffering architecture engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ArchitectureConfig
from repro.core.window.golden import golden_apply
from repro.core.window.traditional import (
    TraditionalCycleEngine,
    TraditionalEngine,
    traditional_fill_cycles,
)
from repro.kernels import BoxFilterKernel, SobelMagnitudeKernel
from repro.kernels.base import as_kernel

from helpers import random_image


class TestFillCycles:
    def test_formula(self):
        assert traditional_fill_cycles(3, 512) == 2 * 512 + 2

    def test_matches_first_output_position(self):
        """The first output appears once N-1 rows plus N-1 pixels arrived."""
        n, w = 4, 16
        fill = traditional_fill_cycles(n, w)
        # raster index of pixel (n-1, n-1):
        assert fill == (n - 1) * w + (n - 1)


class TestTraditionalEngine:
    def test_outputs_match_golden(self, rng):
        config = ArchitectureConfig(image_width=24, image_height=20, window_size=4)
        img = random_image(rng, 20, 24)
        run = TraditionalEngine(config, BoxFilterKernel(4)).run(img)
        assert np.allclose(run.outputs, golden_apply(img, 4, BoxFilterKernel(4)))

    def test_stats(self, rng):
        config = ArchitectureConfig(image_width=24, image_height=20, window_size=4)
        img = random_image(rng, 20, 24)
        stats = TraditionalEngine(config, BoxFilterKernel(4)).run(img).stats
        assert stats.fill_cycles == traditional_fill_cycles(4, 24)
        assert stats.total_cycles == img.size
        assert stats.buffer_bits_peak == config.traditional_buffer_bits
        assert stats.memory_saving_percent == 0.0
        assert stats.outputs == 17 * 21

    def test_cycles_per_output_near_one(self, rng):
        """Fully pipelined: amortised one output per processing cycle."""
        config = ArchitectureConfig(image_width=64, image_height=64, window_size=8)
        img = random_image(rng, 64, 64)
        stats = TraditionalEngine(config, BoxFilterKernel(8)).run(img).stats
        assert stats.cycles_per_output < 1.4


@pytest.mark.slow
class TestTraditionalCycleEngine:
    @pytest.mark.parametrize("n,h,w", [(2, 8, 10), (4, 12, 16), (6, 14, 12)])
    def test_cycle_simulation_matches_golden(self, rng, n, h, w):
        config = ArchitectureConfig(image_width=w, image_height=h, window_size=n)
        img = random_image(rng, h, w)
        kernel = as_kernel(
            lambda win: win.sum(axis=(-2, -1)), name="sum", window_size=n
        )
        run = TraditionalCycleEngine(config, kernel).run(img)
        assert np.array_equal(run.outputs, golden_apply(img, n, kernel))

    def test_sobel_through_cycle_engine(self, rng):
        config = ArchitectureConfig(image_width=12, image_height=12, window_size=4)
        img = random_image(rng, 12, 12)
        kernel = SobelMagnitudeKernel(4)
        run = TraditionalCycleEngine(config, kernel).run(img)
        assert np.array_equal(run.outputs, golden_apply(img, 4, kernel))

    def test_box_filter_window_six_exact(self, rng):
        """Per-band golden_apply keeps N=6 box-filter means bit-identical."""
        config = ArchitectureConfig(image_width=24, image_height=24, window_size=6)
        img = random_image(rng, 24, 24)
        kernel = BoxFilterKernel(6)
        run = TraditionalCycleEngine(config, kernel).run(img)
        assert np.array_equal(run.outputs, golden_apply(img, 6, kernel))

    def test_output_count_matches_analytic_engine(self, rng):
        config = ArchitectureConfig(image_width=10, image_height=10, window_size=4)
        img = random_image(rng, 10, 10)
        kernel = BoxFilterKernel(4)
        cyc = TraditionalCycleEngine(config, kernel).run(img)
        ana = TraditionalEngine(config, kernel).run(img)
        assert cyc.stats.outputs == ana.stats.outputs
        assert cyc.stats.fill_cycles == ana.stats.fill_cycles
