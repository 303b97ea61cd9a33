"""Tests for the compressed sliding-window engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ArchitectureConfig, CompressedEngine, TraditionalEngine
from repro.core.window.compressed import CompressedCycleEngine
from repro.errors import CapacityError
from repro.imaging import generate_scene
from repro.kernels import BoxFilterKernel, MedianKernel

from helpers import random_image


def cfg(**kw):
    defaults = dict(image_width=32, image_height=32, window_size=8)
    defaults.update(kw)
    return ArchitectureConfig(**defaults)


class TestLosslessEquivalence:
    """The paper's headline functional claim: lossless == traditional."""

    @pytest.mark.parametrize("recirculate", [True, False])
    @pytest.mark.parametrize("fast_path", [True, False])
    def test_outputs_identical(self, rng, recirculate, fast_path):
        config = cfg()
        img = random_image(rng, 32, 32)
        kernel = BoxFilterKernel(8)
        comp = CompressedEngine(
            config, kernel, recirculate=recirculate, fast_path=fast_path
        ).run(img)
        trad = TraditionalEngine(config, kernel).run(img)
        assert np.allclose(comp.outputs, trad.outputs)
        assert np.array_equal(comp.reconstruction, img)

    def test_nonlinear_kernel(self, rng):
        config = cfg()
        img = random_image(rng, 32, 32)
        kernel = MedianKernel(8)
        comp = CompressedEngine(config, kernel).run(img)
        trad = TraditionalEngine(config, kernel).run(img)
        assert np.allclose(comp.outputs, trad.outputs)

    def test_wrapped_datapath_lossless(self, rng):
        config = cfg(coefficient_bits=8, wrap_coefficients=True)
        img = random_image(rng, 32, 32)
        kernel = BoxFilterKernel(8)
        comp = CompressedEngine(config, kernel).run(img)
        trad = TraditionalEngine(config, kernel).run(img)
        assert np.allclose(comp.outputs, trad.outputs)


class TestLossyBehaviour:
    def test_bounded_error_on_smooth_image(self):
        config = cfg(image_width=64, image_height=64, window_size=8, threshold=4)
        img = generate_scene(seed=5, resolution=64).astype(np.int64)
        run = CompressedEngine(config, BoxFilterKernel(8)).run(img)
        err = np.abs(run.reconstruction.astype(float) - img)
        assert err.max() <= 20  # loose sanity bound
        assert err.mean() < 3

    @pytest.mark.slow
    def test_fast_and_bit_exact_paths_agree(self, rng):
        """The vectorised engine and the register-level engine, which
        streams real packed words, agree on a lossy recirculating run."""
        config = cfg(threshold=4)
        img = random_image(rng, 32, 32, smooth=True)
        kernel = BoxFilterKernel(8)
        fast = CompressedEngine(config, kernel).run(img)
        exact = CompressedCycleEngine(config, kernel).run(img)
        assert np.array_equal(fast.outputs, exact.outputs)
        assert np.array_equal(fast.reconstruction, exact.reconstruction)

    def test_single_pass_differs_from_recirculated_only_moderately(self):
        config = cfg(image_width=64, image_height=64, window_size=8, threshold=6)
        img = generate_scene(seed=6, resolution=64).astype(np.int64)
        kernel = BoxFilterKernel(8)
        recirc = CompressedEngine(config, kernel, recirculate=True).run(img)
        single = CompressedEngine(config, kernel, recirculate=False).run(img)
        # Recirculation feeds errors back; it can only degrade quality.
        err_r = np.square(recirc.reconstruction.astype(float) - img).mean()
        err_s = np.square(single.reconstruction.astype(float) - img).mean()
        assert err_r >= err_s * 0.99  # allow numerical ties


class TestStatsAndCapacity:
    def test_band_trace_recorded(self, rng):
        config = cfg()
        img = random_image(rng, 32, 32, smooth=True)
        run = CompressedEngine(config, BoxFilterKernel(8)).run(img)
        assert len(run.stats.band_total_bits) == 32 - 8 + 1
        assert run.stats.buffer_bits_peak > 0
        assert run.stats.traditional_buffer_bits == config.traditional_buffer_bits

    def test_memory_plan_enforced_per_group(self, rng):
        """A plan provisioned for smooth frames rejects a noise frame,
        naming the overflowing BRAM group."""
        from repro.core.stats import analyze_image
        from repro.hardware.planner import plan_placement

        config = cfg(image_width=512, image_height=64, window_size=16)
        full = generate_scene(seed=11, resolution=512).astype(np.int64)
        smooth = full[:64]
        noise = random_image(rng, 64, 512)
        plan = plan_placement(
            config, analyze_image(config, smooth).row_bits_worst
        )
        kernel = BoxFilterKernel(16)
        # The smooth frame it was provisioned for passes...
        CompressedEngine(config, kernel, memory_plan=plan).run(smooth)
        # ...the noise frame overflows a group (unless the plan already
        # fell back to cascaded single rows with generous slack).
        if plan.rows_per_bram > 1:
            with pytest.raises(CapacityError, match="BRAM group"):
                CompressedEngine(config, kernel, memory_plan=plan).run(noise)

    def test_memory_plan_from_own_frame_always_fits(self, rng):
        from repro.core.stats import analyze_image
        from repro.hardware.planner import plan_placement

        config = cfg(image_width=64, image_height=64, window_size=8)
        img = random_image(rng, 64, 64, smooth=True)
        plan = plan_placement(config, analyze_image(config, img).row_bits_worst)
        CompressedEngine(config, BoxFilterKernel(8), memory_plan=plan).run(img)

    def test_smooth_image_saves_memory_vs_noise(self, rng):
        config = cfg(image_width=128, image_height=128, window_size=16, threshold=6)
        kernel = BoxFilterKernel(16)
        smooth = generate_scene(seed=9, resolution=128).astype(np.int64)
        noise = random_image(rng, 128, 128)
        peak_smooth = CompressedEngine(config, kernel).run(smooth).stats.buffer_bits_peak
        peak_noise = CompressedEngine(config, kernel).run(noise).stats.buffer_bits_peak
        assert peak_smooth < peak_noise


@pytest.mark.slow
class TestCycleEngine:
    def test_matches_fast_engine_lossless(self, rng):
        config = cfg(image_width=16, image_height=16, window_size=4)
        img = random_image(rng, 16, 16)
        kernel = BoxFilterKernel(4)
        fast = CompressedEngine(config, kernel).run(img)
        cyc = CompressedCycleEngine(config, kernel).run(img)
        assert np.allclose(cyc.outputs, fast.outputs)
        assert np.array_equal(cyc.reconstruction, fast.reconstruction)

    def test_matches_fast_engine_lossy(self, rng):
        config = cfg(image_width=16, image_height=16, window_size=4, threshold=4)
        img = random_image(rng, 16, 16, smooth=True)
        kernel = BoxFilterKernel(4)
        fast = CompressedEngine(config, kernel).run(img)
        cyc = CompressedCycleEngine(config, kernel).run(img)
        assert np.allclose(cyc.outputs, fast.outputs)
        assert np.array_equal(cyc.reconstruction, fast.reconstruction)
