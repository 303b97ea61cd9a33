"""Tests for the in-place (Mallat layout) multi-level transform."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.transform.haar2d import (
    forward_inplace,
    inverse_inplace,
    ll_mask_inplace,
)
from repro.errors import ConfigError

from helpers import scalar_forward_inplace

images16 = hnp.arrays(dtype=np.int32, shape=(16, 16), elements=st.integers(0, 255))


class TestForwardInplace:
    def test_level1_equals_interleaved(self, rng):
        img = rng.integers(0, 256, size=(8, 12))
        assert np.array_equal(forward_inplace(img, 1), scalar_forward_inplace(img))

    def test_level2_residual_positions(self, rng):
        img = rng.integers(0, 256, size=(16, 16))
        plane = forward_inplace(img, 2)
        # The stride-2 positions hold the level-1 decomposition of LL.
        level1 = forward_inplace(img, 1)
        assert np.array_equal(plane[::2, ::2], forward_inplace(level1[::2, ::2], 1))
        assert np.array_equal(plane[1::2], level1[1::2])
        assert np.array_equal(plane[:, 1::2], level1[:, 1::2])

    def test_constant_image_concentrates_in_ll(self):
        plane = forward_inplace(np.full((16, 16), 50), 2)
        mask = ll_mask_inplace((16, 16), 2)
        assert np.all(plane[~mask] == 0)
        assert np.all(plane[mask] == 50)

    def test_indivisible_sides_rejected(self):
        with pytest.raises(ConfigError):
            forward_inplace(np.zeros((10, 16), dtype=int), 2)

    def test_zero_levels_rejected(self):
        with pytest.raises(ConfigError):
            forward_inplace(np.zeros((16, 16), dtype=int), 0)

    def test_input_not_mutated(self, rng):
        img = rng.integers(0, 256, size=(8, 8)).astype(np.int32)
        copy = img.copy()
        forward_inplace(img, 1)
        assert np.array_equal(img, copy)


class TestRoundTrip:
    @given(images16, st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_perfect_reconstruction(self, img, levels):
        plane = forward_inplace(img, levels)
        assert np.array_equal(inverse_inplace(plane, levels), img)

    @given(images16, st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_wrapped_roundtrip(self, img, levels):
        plane = forward_inplace(img, levels, wrap_bits=8)
        out = inverse_inplace(plane, levels, wrap_bits=8)
        assert np.array_equal(out & 0xFF, img & 0xFF)


class TestLLMask:
    def test_density_quarters_per_level(self):
        assert ll_mask_inplace((16, 16), 1).sum() == 64
        assert ll_mask_inplace((16, 16), 2).sum() == 16
        assert ll_mask_inplace((16, 16), 3).sum() == 4

    def test_invalid_levels(self):
        with pytest.raises(ConfigError):
            ll_mask_inplace((8, 8), 0)


class TestMultilevelConfig:
    def test_engine_lossless_with_two_levels(self, rng):
        from repro import ArchitectureConfig, CompressedEngine, TraditionalEngine
        from repro.kernels import BoxFilterKernel

        config = ArchitectureConfig(
            image_width=32, image_height=32, window_size=8, decomposition_levels=2
        )
        img = rng.integers(0, 256, size=(32, 32))
        kernel = BoxFilterKernel(8)
        comp = CompressedEngine(config, kernel).run(img)
        trad = TraditionalEngine(config, kernel).run(img)
        assert np.allclose(comp.outputs, trad.outputs)

    def test_two_levels_shrink_ll_cost_on_smooth_scene(self):
        from repro import ArchitectureConfig, analyze_image
        from repro.imaging import generate_scene

        img = generate_scene(seed=13, resolution=256).astype(np.int64)
        base = dict(image_width=256, image_height=256, window_size=16)
        one = analyze_image(ArchitectureConfig(**base), img)
        two = analyze_image(
            ArchitectureConfig(**base, decomposition_levels=2), img
        )
        assert two.peak_buffer_bits < one.peak_buffer_bits

    def test_indivisible_window_rejected(self):
        from repro import ArchitectureConfig

        with pytest.raises(ConfigError):
            ArchitectureConfig(
                image_width=64, image_height=64, window_size=10,
                decomposition_levels=2,
            )

    def test_register_engines_reject_multilevel(self, rng):
        from repro import ArchitectureConfig, CompressedCycleEngine
        from repro.kernels import BoxFilterKernel

        config = ArchitectureConfig(
            image_width=32, image_height=32, window_size=8, decomposition_levels=2
        )
        with pytest.raises(ConfigError):
            CompressedCycleEngine(config, BoxFilterKernel(8))

    def test_bit_exact_roundtrip_two_levels(self, rng):
        from repro import ArchitectureConfig, BandCodec

        config = ArchitectureConfig(
            image_width=32, image_height=32, window_size=8, decomposition_levels=2
        )
        band = rng.integers(0, 256, size=(8, 32))
        codec = BandCodec(config)
        assert np.array_equal(codec.decode_band(codec.encode_band(band)), band)


class TestBatchAxes:
    """Leading batch axes transform each plane independently (the form
    the engine's frame-at-once fast path feeds)."""

    @pytest.mark.parametrize("levels", [1, 2])
    @pytest.mark.parametrize("wrap_bits", [None, 10])
    def test_forward_stack_matches_per_band(self, rng, levels, wrap_bits):
        stack = rng.integers(0, 256, size=(5, 8, 16))
        batched = forward_inplace(stack, levels, wrap_bits=wrap_bits)
        for t in range(5):
            assert np.array_equal(
                batched[t], forward_inplace(stack[t], levels, wrap_bits=wrap_bits)
            )

    @pytest.mark.parametrize("levels", [1, 2])
    def test_inverse_stack_roundtrip(self, rng, levels):
        stack = rng.integers(0, 256, size=(4, 8, 16))
        plane = forward_inplace(stack, levels)
        back = inverse_inplace(plane, levels)
        assert np.array_equal(back, stack)
        for t in range(4):
            assert np.array_equal(
                inverse_inplace(plane[t], levels), stack[t]
            )

    def test_dpcm_stack_matches_per_band(self, rng):
        from repro.core.transform.haar2d import ll_dpcm_forward, ll_dpcm_inverse

        stack = rng.integers(-100, 100, size=(3, 8, 16))
        fwd = ll_dpcm_forward(stack, 1)
        for t in range(3):
            assert np.array_equal(fwd[t], ll_dpcm_forward(stack[t], 1))
        assert np.array_equal(ll_dpcm_inverse(fwd, 1), stack)

    def test_1d_input_still_rejected(self):
        with pytest.raises(ConfigError):
            forward_inplace(np.zeros(16, dtype=int), 1)
