"""Tests for the LOCO-lite (simplified JPEG-LS) baseline codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines.jpegls import LocoLiteCodec, _fold, _unfold
from repro.errors import ConfigError

small_images = hnp.arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.integers(0, 255),
)


class TestFolding:
    @given(st.integers(-1000, 1000))
    @settings(max_examples=200, deadline=None)
    def test_fold_roundtrip(self, r):
        assert _unfold(_fold(r)) == r

    def test_fold_is_bijective_prefix(self):
        assert [_fold(r) for r in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]


class TestRoundTrip:
    @given(small_images)
    @settings(max_examples=60, deadline=None)
    def test_lossless(self, img):
        codec = LocoLiteCodec()
        bits = codec.encode(img)
        assert np.array_equal(codec.decode(bits, img.shape), img)

    def test_encode_bits_matches_encode_length(self, rng):
        codec = LocoLiteCodec()
        img = rng.integers(0, 256, size=(16, 16))
        assert codec.encode_bits(img) == codec.encode(img).size

    def test_16bit_pixels(self, rng):
        codec = LocoLiteCodec(pixel_bits=12)
        img = rng.integers(0, 4096, size=(8, 8))
        bits = codec.encode(img)
        assert np.array_equal(codec.decode(bits, img.shape), img)


class TestCompression:
    def test_constant_image_compresses_hard(self):
        codec = LocoLiteCodec()
        img = np.full((32, 32), 128, dtype=np.int64)
        assert codec.compression_ratio(img) > 4.0

    def test_smooth_beats_noise(self, rng):
        from repro.imaging import generate_scene

        codec = LocoLiteCodec()
        smooth = generate_scene(seed=3, resolution=64).astype(np.int64)
        noise = rng.integers(0, 256, size=(64, 64))
        assert codec.encode_bits(smooth) < codec.encode_bits(noise)

    def test_noise_expansion_bounded(self, rng):
        """Worst-case expansion stays modest thanks to the escape code."""
        codec = LocoLiteCodec()
        noise = rng.integers(0, 256, size=(32, 32))
        assert codec.encode_bits(noise) < 1.6 * noise.size * 8

    def test_beats_nbits_packing_on_scenes(self):
        """JPEG-LS-style coding compresses harder than NBits packing —
        the trade-off the paper accepts for hardware simplicity."""
        from repro import ArchitectureConfig
        from repro.analysis.coding import coding_efficiency
        from repro.imaging import generate_scene

        img = generate_scene(seed=5, resolution=128).astype(np.int64)
        cfg = ArchitectureConfig(image_width=128, image_height=128, window_size=16)
        report = coding_efficiency(cfg, img)
        assert report.loco_bpp < report.nbits_total_bpp


class TestValidation:
    def test_bad_pixel_bits(self):
        with pytest.raises(ConfigError):
            LocoLiteCodec(pixel_bits=0)

    def test_out_of_range_pixels(self):
        with pytest.raises(ConfigError):
            LocoLiteCodec().encode_bits(np.full((4, 4), 256))

    def test_non_2d(self):
        with pytest.raises(ConfigError):
            LocoLiteCodec().encode_bits(np.zeros(4, dtype=int))

    def test_float_rejected(self):
        with pytest.raises(ConfigError):
            LocoLiteCodec().encode_bits(np.zeros((4, 4)))
