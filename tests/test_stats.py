"""Tests for the compression accounting module."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import ArchitectureConfig
from repro.core import stats
from repro.core.packing.packer import BandCodec
from repro.core.stats import (
    aligned_band_chunks,
    analyze_band,
    analyze_image,
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

    def test_float_band_rejected_like_the_codec(self):
        """Sizing refuses a non-integer band exactly as encoding does."""
        band = np.full((4, 8), 2.9)
        with pytest.raises(ConfigError):
            analyze_band(cfg(), band)
        with pytest.raises(ConfigError):
            BandCodec(cfg()).encode_band(band)


class TestAlignedBandChunks:
    def test_bands_are_aligned(self):
        """Band k is rows k*N .. k*N + N - 1, in order."""
        image = np.arange(64 * 64).reshape(64, 64) % 256
        bands = np.concatenate(list(aligned_band_chunks(cfg(), image)))
        assert np.array_equal(bands, image.reshape(8, 8, 64))

    def test_band_shapes(self, monkeypatch):
        """Chunks of at most ``BAND_CHUNK_VALUES`` values, views of the
        image, the last one short."""
        monkeypatch.setattr(stats, "BAND_CHUNK_VALUES", 3 * 8 * 64)
        image = np.zeros((64, 64), dtype=np.int64)
        chunks = list(aligned_band_chunks(cfg(), image))
        assert [c.shape for c in chunks] == [(3, 8, 64), (3, 8, 64), (2, 8, 64)]
        assert all(np.shares_memory(c, image) for c in chunks)

    def test_band_larger_than_a_chunk_is_one_chunk(self, monkeypatch):
        monkeypatch.setattr(stats, "BAND_CHUNK_VALUES", 8 * 64 - 1)
        image = np.zeros((64, 64), dtype=np.int64)
        chunks = list(aligned_band_chunks(cfg(), image))
        assert [c.shape for c in chunks] == [(1, 8, 64)] * 8

    def test_rows_below_the_last_band_uncovered(self):
        image = np.arange(70 * 64).reshape(70, 64)
        bands = np.concatenate(list(aligned_band_chunks(cfg(), image)))
        assert np.array_equal(bands.reshape(64, 64), image[:64])

    def test_too_short_image_rejected(self):
        with pytest.raises(ConfigError, match="shorter than one 8-band"):
            list(aligned_band_chunks(cfg(), np.zeros((7, 64), dtype=int)))


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


def reference_report(config, image):
    """Oracle for :func:`analyze_image`: one ``analyze_band`` per aligned
    band, each band's ``sliding_occupancy`` against the aligned band
    before it (the first against itself), per-row maxima."""
    n = config.window_size
    row_worst = np.zeros(n, dtype=np.int64)
    peak = 0
    prev = None
    for top in range(0, image.shape[0] - n + 1, n):
        band = analyze_band(config, image[top : top + n])
        cols = band.payload_bits_per_column
        row_worst = np.maximum(row_worst, band.payload_bits_per_row)
        reference = cols if prev is None else prev
        occ = sliding_occupancy(reference, cols, n, band.management_bits_per_column)
        peak = max(peak, int(occ.max()))
        prev = cols
    return peak, row_worst


class TestAnalyzeImage:
    @given(
        window=st.sampled_from([4, 8]),
        width=st.sampled_from([8, 12, 24, 40]),
        extra_rows=st.integers(0, 31),
        levels=st.sampled_from([1, 2]),
        ll_dpcm=st.booleans(),
        wrap=st.booleans(),
        threshold=st.sampled_from([0, 6]),
        pixel_max=st.sampled_from([7, 255]),
        chunk_bands=st.sampled_from([None, 0, 1, 2, 3]),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_band_reference(
        self,
        window,
        width,
        extra_rows,
        levels,
        ll_dpcm,
        wrap,
        threshold,
        pixel_max,
        chunk_bands,
        data,
    ):
        """Chunked sizing equals the per-band oracle at any height (not
        only multiples of N), with chunks smaller than one band
        (``chunk_bands=0``), chunk boundaries inside the frame, or the
        default chunk size (``None``)."""
        height = window + extra_rows
        config = ArchitectureConfig(
            image_width=width,
            image_height=height,
            window_size=window,
            threshold=threshold,
            decomposition_levels=levels,
            ll_dpcm=ll_dpcm,
            coefficient_bits=8 if wrap else -1,
            wrap_coefficients=wrap,
        )
        image = data.draw(
            hnp.arrays(
                np.int64, (height, width), elements=st.integers(0, pixel_max)
            )
        )
        chunk_values = stats.BAND_CHUNK_VALUES
        if chunk_bands is not None:  # 0: every chunk smaller than a band
            chunk_values = max(1, chunk_bands * window * width)
        with mock.patch.object(stats, "BAND_CHUNK_VALUES", chunk_values):
            report = analyze_image(config, image)
        peak, row_worst = reference_report(config, image)
        assert report.peak_buffer_bits == peak
        assert np.array_equal(report.row_bits_worst, row_worst)

    def test_report_consistency(self, rng):
        config = cfg()
        image = rng.integers(0, 256, size=(64, 64))
        report = analyze_image(config, image)
        peak, row_worst = reference_report(config, image)
        assert report.peak_buffer_bits == peak
        assert np.array_equal(report.row_bits_worst, row_worst)
        assert report.row_bits_worst.shape == (8,)
        assert report.traditional_bits == config.traditional_buffer_bits
        assert report.memory_saving_percent == pytest.approx(
            (1 - peak / config.traditional_buffer_bits) * 100
        )

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


def trace_peaks(cols, window_size, mgmt):
    """Oracle: each traversal's maximum of the full ``sliding_occupancy``
    trace over a ``(T, ..., W)`` column stack (the first traversal
    references itself)."""
    prev = np.concatenate([cols[:1], cols[:-1]])
    return sliding_occupancy(prev, cols, window_size, mgmt).max(axis=-1)


def assert_band_results(sizes, full):
    """Per-band results of ``band_stack_sizes`` against the full-stack
    analysis of the same bands."""
    n, w = sizes.config.window_size, sizes.config.image_width
    mgmt = full.management_bits_per_column
    cols = full.payload_bits_per_column
    assert sizes.management_bits_per_column == mgmt
    assert np.array_equal(sizes.nbits, full.nbits)
    assert np.array_equal(sizes.significant_counts, full.significant_counts)
    assert np.array_equal(sizes.band_totals, cols.sum(axis=-1) + mgmt * (w - n))
    assert np.array_equal(sizes.band_peaks, trace_peaks(cols, n, mgmt))


class TestBandStackSizes:
    @pytest.mark.parametrize("threshold", [0, 4])
    def test_matches_full_stack_analysis(self, rng, threshold):
        from repro.core.stats import band_stack_sizes, sliding_band_stack

        config = cfg(image_width=32, image_height=25, threshold=threshold)
        image = rng.integers(0, 256, size=(25, 32))
        sizes = band_stack_sizes(config, image)
        full = analyze_band(config, sliding_band_stack(image, 8))
        assert_band_results(sizes, full)
        assert sizes.group_peaks is None

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
        assert_band_results(sizes, full)

    @pytest.mark.parametrize("rows_per_group", [1, 2, 4, 8])
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_group_columns_fold_the_widths(
        self, rng, monkeypatch, levels, rows_per_group
    ):
        """Group peaks are the occupancy peaks of the per-element widths
        summed per group, with the carry crossing every group-column
        chunk (7 group columns a chunk: 22 traversals of 1, 2, 4 or 8
        groups make 22, 8, 4 or one chunk)."""
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
        sizes = stats.band_stack_sizes(config, image, rows_per_group=rows_per_group)
        full = analyze_band(config, stats.sliding_band_stack(image, 8))
        assert_band_results(sizes, full)
        widths = full.widths.reshape(22, 8 // rows_per_group, rows_per_group, 32)
        expected = trace_peaks(widths.sum(axis=2), 8, 0)
        assert sizes.group_peaks.shape == (22, 8 // rows_per_group)
        assert np.array_equal(sizes.group_peaks, expected)

    def test_rejects_bad_group_sizes(self):
        from repro.core.stats import band_stack_sizes

        image = np.zeros((12, 64), dtype=int)
        for rows_per_group in (0, 3, 16):
            with pytest.raises(ConfigError, match="rows_per_group"):
                band_stack_sizes(cfg(), image, rows_per_group=rows_per_group)

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
