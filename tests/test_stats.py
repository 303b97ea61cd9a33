"""Tests for the compression accounting module."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import ArchitectureConfig
from repro.core.packing.packer import BandCodec
from repro.core.stats import (
    analyze_band,
    analyze_image,
    iter_bands,
    sliding_occupancy,
)
from repro.errors import ConfigError


def cfg(**kw):
    defaults = dict(image_width=64, image_height=64, window_size=8)
    defaults.update(kw)
    return ArchitectureConfig(**defaults)


class TestAnalyzeBand:
    def test_matches_bit_exact_codec(self, rng):
        """The packed bit streams decode to the analysed plane and its
        reconstruction."""
        band = rng.integers(0, 256, size=(8, 64))
        for extra in (
            dict(threshold=4),
            dict(threshold=4, threshold_bands="details"),
            dict(threshold=3, ll_dpcm=True),
        ):
            config = cfg(**extra)
            analysis = analyze_band(config, band)
            codec = BandCodec(config)
            encoded = codec.encode_band(band)
            assert np.array_equal(codec.decode_plane(encoded), analysis.plane)
            assert np.array_equal(
                codec.decode_band(encoded), analysis.reconstruct()
            )

    def test_band_and_one_band_stack_agree(self, rng):
        """An ``(N, W)`` band and the ``(1, N, W)`` stack holding it give
        the same analysis, with one more leading axis."""
        band = rng.integers(0, 256, size=(8, 64))
        config = cfg(threshold=4, threshold_bands="details")
        one = analyze_band(config, band)
        stack = analyze_band(config, band[None])
        for name in ("plane", "nbits", "bitmap", "widths"):
            assert np.array_equal(getattr(stack, name), getattr(one, name)[None])
        assert stack.payload_bits.tolist() == [one.payload_bits]
        assert stack.significant_counts.tolist() == [one.significant_counts]
        assert np.array_equal(
            stack.payload_bits_per_row[0], one.payload_bits_per_row
        )
        assert {k: v.tolist() for k, v in stack.subband_payload_bits().items()} == {
            k: [v] for k, v in one.subband_payload_bits().items()
        }
        assert stack.management_bits == one.management_bits
        assert np.array_equal(stack.reconstruct()[0], one.reconstruct())

    def test_constant_band_payload_is_ll_only(self):
        band = np.full((8, 64), 100, dtype=int)
        analysis = analyze_band(cfg(), band)
        per_band = analysis.subband_payload_bits()
        assert per_band["LH"] == 0
        assert per_band["HL"] == 0
        assert per_band["HH"] == 0
        assert per_band["LL"] > 0

    def test_subband_split_sums_to_total(self, rng):
        band = rng.integers(0, 256, size=(8, 64))
        analysis = analyze_band(cfg(), band)
        assert sum(analysis.subband_payload_bits().values()) == analysis.payload_bits
        per_col = analysis.subband_payload_bits_per_column()
        assert sum(int(v.sum()) for v in per_col.values()) == analysis.payload_bits

    def test_reconstruct_lossless(self, rng):
        band = rng.integers(0, 256, size=(8, 64))
        assert np.array_equal(analyze_band(cfg(), band).reconstruct(), band)

    @given(
        hnp.arrays(dtype=np.int32, shape=(8, 16), elements=st.integers(0, 255)),
        st.sampled_from([(0, 2), (2, 4), (4, 6), (0, 6)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_payload_monotone_in_threshold(self, band, pair):
        """Raising T never increases the packed payload size."""
        t_lo, t_hi = pair
        config = ArchitectureConfig(
            image_width=16, image_height=16, window_size=8
        )
        lo = analyze_band(config.with_threshold(t_lo), band).payload_bits
        hi = analyze_band(config.with_threshold(t_hi), band).payload_bits
        assert hi <= lo

    def test_odd_band_rejected(self):
        with pytest.raises(ConfigError):
            analyze_band(cfg(), np.zeros((7, 64), dtype=int))


class TestIterBands:
    def test_default_stride_is_window(self):
        config = cfg()
        image = np.zeros((64, 64), dtype=int)
        positions = [y for y, _ in iter_bands(config, image)]
        assert positions == [7, 15, 23, 31, 39, 47, 55, 63]

    def test_stride_one_covers_every_traversal(self):
        config = cfg()
        image = np.zeros((64, 64), dtype=int)
        assert len(list(iter_bands(config, image, row_stride=1))) == 64 - 8 + 1

    def test_band_shapes(self):
        config = cfg()
        image = np.arange(64 * 64).reshape(64, 64) % 256
        for y, band in iter_bands(config, image):
            assert band.shape == (8, 64)
            assert np.array_equal(band, image[y - 7 : y + 1])

    def test_bad_stride_rejected(self):
        with pytest.raises(ConfigError):
            list(iter_bands(cfg(), np.zeros((64, 64), dtype=int), row_stride=0))


class TestSlidingOccupancy:
    def test_uniform_sizes(self):
        """With equal column sizes, occupancy is constant at (W-N) slots."""
        sizes = np.full(32, 10)
        occ = sliding_occupancy(sizes, sizes, 8, 3)
        # (32 - 8) slots of 10 payload bits + 3 management bits each.
        expected = (32 - 8) * 10 + 3 * (32 - 8)
        assert np.all(occ == expected)

    def test_transition_between_bands(self):
        prev = np.full(16, 100)
        cur = np.full(16, 10)
        occ = sliding_occupancy(prev, cur, 4, 0)
        # Early positions hold mostly prev columns (expensive), late mostly cur.
        assert occ[3] > occ[15]

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ConfigError):
            sliding_occupancy(np.zeros(8), np.zeros(9), 4, 0)

    def test_exact_bookkeeping(self):
        rng = np.random.default_rng(5)
        prev = rng.integers(0, 50, size=12)
        cur = rng.integers(0, 50, size=12)
        occ = sliding_occupancy(prev, cur, 4, 2)
        w, n = 12, 4
        for x in range(w):
            limit = min(max(x - n + 1, 0), w - n)
            expected = prev[limit : w - n].sum() + cur[:limit].sum() + 2 * (w - n)
            assert occ[x] == expected

    def test_ring_never_exceeds_slot_count(self):
        """Resident slots are always exactly W - N (the ring property)."""
        rng = np.random.default_rng(6)
        prev = rng.integers(1, 2, size=20)  # one bit per column
        cur = rng.integers(1, 2, size=20)
        occ = sliding_occupancy(prev, cur, 6, 0)
        assert np.all(occ == 20 - 6)


class TestAnalyzeImage:
    def test_report_consistency(self, rng):
        config = cfg()
        image = rng.integers(0, 256, size=(64, 64))
        report = analyze_image(config, image)
        assert report.bands_sampled == 8
        assert report.max_band_payload_bits >= report.mean_band_payload_bits
        assert report.worst_row_bits == report.row_bits_worst.max()
        assert report.row_bits_worst.shape == (8,)
        assert report.traditional_bits == config.traditional_buffer_bits

    def test_saving_sign_for_random_noise(self, rng):
        """Random images do not compress (the paper's failure case)."""
        config = cfg(image_width=256, image_height=256, window_size=16)
        image = rng.integers(0, 256, size=(256, 256))
        report = analyze_image(config, image)
        assert report.memory_saving_percent < 5.0

    def test_saving_positive_for_smooth_image(self):
        from repro.imaging import generate_scene

        config = ArchitectureConfig(
            image_width=256, image_height=256, window_size=16
        )
        image = generate_scene(seed=1, resolution=256).astype(np.int64)
        report = analyze_image(config, image)
        assert report.memory_saving_percent > 0.0

    def test_too_short_image_rejected(self):
        config = cfg()
        with pytest.raises(ConfigError):
            analyze_image(config, np.zeros((4, 64), dtype=int))

    def test_threshold_improves_saving(self):
        from repro.imaging import generate_scene

        image = generate_scene(seed=2, resolution=128).astype(np.int64)
        base = ArchitectureConfig(image_width=128, image_height=128, window_size=16)
        s0 = analyze_image(base, image).memory_saving_percent
        s6 = analyze_image(base.with_threshold(6), image).memory_saving_percent
        assert s6 > s0


class TestSlidingBandStack:
    def test_view_matches_iter_bands(self):
        from repro.core.stats import sliding_band_stack

        image = np.arange(64 * 32).reshape(64, 32) % 256
        stack = sliding_band_stack(image, 8)
        assert stack.shape == (64 - 8 + 1, 8, 32)
        for t in range(stack.shape[0]):
            assert np.array_equal(stack[t], image[t : t + 8])

    def test_zero_copy(self):
        from repro.core.stats import sliding_band_stack

        image = np.zeros((16, 8), dtype=np.int64)
        stack = sliding_band_stack(image, 4)
        assert np.shares_memory(stack, image)

    def test_rejects_bad_inputs(self):
        from repro.core.stats import sliding_band_stack

        with pytest.raises(ConfigError):
            sliding_band_stack(np.zeros(8), 4)
        with pytest.raises(ConfigError):
            sliding_band_stack(np.zeros((4, 8)), 5)


class TestAnalyzeBandStack:
    @pytest.mark.parametrize(
        "extra",
        [
            {},
            dict(threshold=4),
            dict(threshold=4, threshold_bands="details"),
            dict(decomposition_levels=2),
            dict(decomposition_levels=2, ll_dpcm=True),
            dict(ll_dpcm=True),
            dict(coefficient_bits=8, wrap_coefficients=True),
        ],
        ids=[
            "lossless",
            "lossy",
            "details",
            "levels2",
            "levels2-dpcm",
            "dpcm",
            "wrapped",
        ],
    )
    def test_per_band_identical_to_scalar_analysis(self, rng, extra):
        from repro.core.stats import sliding_band_stack

        config = cfg(image_width=32, image_height=24, **extra)
        image = rng.integers(0, 256, size=(24, 32))
        stack = analyze_band(config, sliding_band_stack(image, 8))
        recon = stack.reconstruct()
        for t in range(24 - 8 + 1):
            band = analyze_band(config, image[t : t + 8])
            assert np.array_equal(stack.plane[t], band.plane)
            assert np.array_equal(stack.nbits[t], band.nbits)
            assert np.array_equal(stack.bitmap[t], band.bitmap)
            assert np.array_equal(stack.widths[t], band.widths)
            assert stack.payload_bits[t] == band.payload_bits
            assert np.array_equal(
                stack.payload_bits_per_column[t], band.payload_bits_per_column
            )
            assert np.array_equal(recon[t], band.reconstruct())
        assert stack.management_bits_per_column == band.management_bits_per_column

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigError):
            analyze_band(cfg(), np.zeros(16, dtype=int))
        with pytest.raises(ConfigError):
            analyze_band(cfg(), np.zeros((2, 3, 8, 16), dtype=int))
        with pytest.raises(ConfigError):
            analyze_band(cfg(), np.zeros((3, 7, 16), dtype=int))


class TestBandStackSizes:
    @pytest.mark.parametrize("threshold", [0, 4])
    def test_matches_full_stack_analysis(self, rng, threshold):
        from repro.core.stats import band_stack_sizes, sliding_band_stack

        config = cfg(image_width=32, image_height=25, threshold=threshold)
        image = rng.integers(0, 256, size=(25, 32))
        sizes = band_stack_sizes(config, image)
        full = analyze_band(config, sliding_band_stack(image, 8))
        assert np.array_equal(
            sizes.payload_bits_per_column, full.payload_bits_per_column
        )
        assert np.array_equal(sizes.nbits, full.nbits)
        assert np.array_equal(sizes.significant_counts, full.significant_counts)
        assert sizes.management_bits_per_column == full.management_bits_per_column

    @pytest.mark.parametrize("levels", [2, 3])
    @pytest.mark.parametrize(
        "extra",
        [{}, {"threshold": 4}, {"threshold": 4, "ll_dpcm": True}],
        ids=["lossless", "lossy", "dpcm"],
    )
    def test_deeper_pyramids_match_full_stack_analysis(self, rng, levels, extra):
        """2**L-row blocks: band t is blocks t, t+2**L, .., t+N-2**L."""
        from repro.core.stats import band_stack_sizes, sliding_band_stack

        config = cfg(
            image_width=32, image_height=29, decomposition_levels=levels, **extra
        )
        image = rng.integers(0, 256, size=(29, 32))
        sizes = band_stack_sizes(config, image)
        full = analyze_band(config, sliding_band_stack(image, 8))
        assert np.array_equal(
            sizes.payload_bits_per_column, full.payload_bits_per_column
        )
        assert np.array_equal(sizes.nbits, full.nbits)
        assert np.array_equal(sizes.significant_counts, full.significant_counts)

    @pytest.mark.parametrize("rows_per_group", [1, 2, 4, 8])
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_group_columns_fold_the_widths(
        self, rng, monkeypatch, levels, rows_per_group
    ):
        """Group columns equal the per-element widths summed per group,
        chunk after chunk in traversal order."""
        from repro.core import stats

        monkeypatch.setattr(stats, "GROUP_CHUNK_VALUES", 7 * 32)
        config = cfg(
            image_width=32,
            image_height=29,
            decomposition_levels=levels,
            threshold=3,
            threshold_bands="details",
        )
        image = rng.integers(0, 256, size=(29, 32))
        sizes = stats.band_stack_sizes(config, image)
        widths = analyze_band(config, stats.sliding_band_stack(image, 8)).widths
        expected = widths.reshape(22, 8 // rows_per_group, rows_per_group, 32)
        chunks = list(sizes.group_payload_columns(rows_per_group))
        starts = [t0 for t0, _ in chunks]
        got = np.concatenate([cols for _, cols in chunks])
        assert starts == sorted(starts) and starts[0] == 0
        assert np.array_equal(got, expected.sum(axis=2))

    def test_rejects_short_images(self):
        from repro.core.stats import band_stack_sizes

        with pytest.raises(ConfigError):
            band_stack_sizes(cfg(), np.zeros((4, 64), dtype=int))


class TestBatchedSlidingOccupancy:
    def test_stack_matches_per_row_calls(self, rng):
        """A (T, W) batched call is exactly T independent 1D calls."""
        prev = rng.integers(0, 50, size=(5, 16))
        cur = rng.integers(0, 50, size=(5, 16))
        batched = sliding_occupancy(prev, cur, 4, 3)
        assert batched.shape == (5, 16)
        for t in range(5):
            assert np.array_equal(
                batched[t], sliding_occupancy(prev[t], cur[t], 4, 3)
            )
