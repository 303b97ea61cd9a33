"""Tests for threshold policies and the adaptive controller (future work)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AdaptiveThresholdController,
    ArchitectureConfig,
    CompressedEngine,
    analyze_image,
)
from repro.core.threshold import THRESHOLD_LADDER
from repro.errors import CapacityError, ConfigError
from repro.imaging import generate_scene
from repro.kernels import BoxFilterKernel

from helpers import enforced_peak, exact_capacity_plan, random_image


class TestAdaptiveController:
    def test_starts_at_lowest_level(self):
        ctrl = AdaptiveThresholdController(budget_bits=1000)
        assert ctrl.threshold == 0
        assert ctrl.levels == THRESHOLD_LADDER

    def test_tightens_when_over_budget(self):
        ctrl = AdaptiveThresholdController(budget_bits=1000)
        assert ctrl.observe(1500) == 2
        assert ctrl.observe(1200) == 4

    def test_relaxes_with_hysteresis(self):
        ctrl = AdaptiveThresholdController(budget_bits=1000, downshift_margin=0.5)
        ctrl.observe(2000)  # -> T=2
        assert ctrl.threshold == 2
        assert ctrl.observe(900) == 2  # within hysteresis band: hold
        assert ctrl.observe(400) == 0  # well under: relax

    def test_saturates_at_top_level(self):
        ctrl = AdaptiveThresholdController(budget_bits=10, levels=(0, 2))
        ctrl.observe(100)
        ctrl.observe(100)
        ctrl.observe(100)
        assert ctrl.threshold == 2
        assert ctrl.saturated

    def test_history_recorded(self):
        ctrl = AdaptiveThresholdController(budget_bits=1000)
        ctrl.observe(1500)
        ctrl.observe(100)
        assert ctrl.history == [(0, 1500), (2, 100)]

    def test_invalid_construction(self):
        with pytest.raises(ConfigError):
            AdaptiveThresholdController(budget_bits=0)
        with pytest.raises(ConfigError):
            AdaptiveThresholdController(budget_bits=10, levels=(4, 2))
        with pytest.raises(ConfigError):
            AdaptiveThresholdController(budget_bits=10, downshift_margin=1.5)

    def test_converges_on_synthetic_frame_sequence(self):
        """Frames alternating in complexity settle without oscillating wildly."""
        config = ArchitectureConfig(
            image_width=128, image_height=128, window_size=16
        )
        img = generate_scene(seed=3, resolution=128).astype(np.int64)
        base = analyze_image(config, img).peak_buffer_bits
        ctrl = AdaptiveThresholdController(budget_bits=int(base * 0.8))
        for _ in range(6):
            report = analyze_image(config.with_threshold(ctrl.threshold), img)
            ctrl.observe(report.peak_buffer_bits)
        final = analyze_image(config.with_threshold(ctrl.threshold), img)
        assert final.peak_buffer_bits <= int(base * 0.8) or ctrl.saturated


class TestChooseThresholdForBudget:
    """The threshold for a memory budget is chosen by the engine's
    ``overflow="tighten"``: the lowest ladder level whose run fits the
    plan, or the last level's :class:`CapacityError` when none does."""

    @staticmethod
    def tightened(config, image, group_bits):
        plan = exact_capacity_plan(config, [group_bits])
        engine = CompressedEngine(
            config,
            BoxFilterKernel(config.window_size),
            memory_plan=plan,
            overflow="tighten",
        )
        return engine.run(image).stats.threshold

    def test_generous_budget_selects_lossless(self):
        config = ArchitectureConfig(image_width=64, image_height=64, window_size=8)
        img = generate_scene(seed=1, resolution=64).astype(np.int64)
        assert self.tightened(config, img, 10**9) == 0

    def test_tight_budget_selects_lossy(self):
        config = ArchitectureConfig(image_width=128, image_height=128, window_size=16)
        img = generate_scene(seed=2, resolution=128).astype(np.int64)
        lossless_bits = enforced_peak(config, img, groups=1)
        t = self.tightened(config, img, int(lossless_bits * 0.8))
        assert t in THRESHOLD_LADDER and t > 0

    def test_impossible_budget_returns_none(self, rng):
        """No level fits: the frame raises instead of returning a level."""
        config = ArchitectureConfig(image_width=64, image_height=64, window_size=8)
        img = random_image(rng, 64, 64)
        with pytest.raises(CapacityError, match="exceeds the design-time plan"):
            self.tightened(config, img, 10)

    def test_invalid_budget_rejected(self, rng):
        config = ArchitectureConfig(image_width=64, image_height=64, window_size=8)
        with pytest.raises(ConfigError, match="overflow must be one of"):
            CompressedEngine(config, BoxFilterKernel(8), overflow="budget")
