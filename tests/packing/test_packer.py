"""Tests for the column packer and whole-band codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import ArchitectureConfig
from repro.core.packing.packer import (
    BandAccounting,
    BandCodec,
    pack_interleaved_column,
    subband_of,
)
from repro.core.packing.unpacker import unpack_interleaved_column
from repro.errors import BitstreamError, ConfigError

columns = hnp.arrays(
    dtype=np.int32,
    shape=st.integers(1, 32).map(lambda n: 2 * n),
    elements=st.integers(-511, 511),
)

bands = hnp.arrays(
    dtype=np.int32,
    shape=st.tuples(
        st.integers(2, 8).map(lambda n: 2 * n),
        st.integers(4, 16).map(lambda n: 2 * n),
    ),
    elements=st.integers(0, 255),
)


def make_config(band_shape, threshold=0, **kw):
    n, w = band_shape
    return ArchitectureConfig(
        image_width=max(w, n), image_height=max(w, n) , window_size=n, threshold=threshold, **kw
    )


class TestSubbandOf:
    @pytest.mark.parametrize(
        "row,col,name",
        [(0, 0, "LL"), (0, 1, "HL"), (1, 0, "LH"), (1, 1, "HH"), (2, 2, "LL")],
    )
    def test_parity_map(self, row, col, name):
        assert subband_of(row, col) == name


class TestPackColumn:
    def test_all_zero_column(self):
        packed = pack_interleaved_column(np.zeros(8, dtype=int))
        assert packed.payload_bits == 0
        assert not packed.bitmap.any()
        assert packed.nbits_even == 1
        assert packed.nbits_odd == 1

    def test_management_bits_formula(self):
        packed = pack_interleaved_column(np.zeros(8, dtype=int))
        assert packed.management_bits(4) == 2 * 4 + 8
        assert packed.total_bits(4) == packed.payload_bits + 16

    def test_payload_counts_only_nonzero(self):
        col = np.array([10, 0, 0, 0], dtype=int)  # even rows band: 10, 0
        packed = pack_interleaved_column(col)
        # NBits(10) = 5; one significant coefficient.
        assert packed.nbits_even == 5
        assert packed.payload_bits == 5

    def test_threshold_zeroes_small(self):
        col = np.array([1, -1, 8, 2], dtype=int)
        packed = pack_interleaved_column(col, threshold=3)
        assert packed.bitmap.tolist() == [False, False, True, False]

    def test_exempt_even_rows(self):
        col = np.array([1, 1, 1, 1], dtype=int)
        packed = pack_interleaved_column(col, threshold=5, exempt_even=True)
        assert packed.bitmap.tolist() == [True, False, True, False]

    def test_odd_length_rejected(self):
        with pytest.raises(ConfigError):
            pack_interleaved_column(np.zeros(7, dtype=int))

    @given(columns, st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, col, threshold):
        packed = pack_interleaved_column(col, threshold=threshold)
        out = unpack_interleaved_column(packed)
        expected = np.where(np.abs(col) < threshold, 0, col)
        assert np.array_equal(out, expected)

    @given(columns)
    @settings(max_examples=100, deadline=None)
    def test_lossless_roundtrip(self, col):
        assert np.array_equal(
            unpack_interleaved_column(pack_interleaved_column(col)), col
        )

    def test_corrupted_payload_detected(self):
        packed = pack_interleaved_column(np.array([10, 20, 30, 40], dtype=int))
        import dataclasses

        bad = dataclasses.replace(packed, payload=packed.payload[:-1])
        with pytest.raises(BitstreamError):
            unpack_interleaved_column(bad)


class TestBandCodec:
    @given(bands)
    @settings(max_examples=60, deadline=None)
    def test_lossless_roundtrip(self, band):
        config = make_config(band.shape)
        codec = BandCodec(config)
        assert np.array_equal(codec.decode_band(codec.encode_band(band)), band)

    @given(bands, st.sampled_from([2, 4, 6]))
    @settings(max_examples=40, deadline=None)
    def test_lossy_error_bound(self, band, threshold):
        """Zeroing |c| < T perturbs each pixel by O(T).

        The loose analytic bound from compounding the two inverse lifting
        stages is 3T + 2; empirically the worst case observed is T itself.
        """
        config = make_config(band.shape, threshold=threshold)
        codec = BandCodec(config)
        out = codec.decode_band(codec.encode_band(band), clip=False)
        assert np.max(np.abs(out - band)) <= 3 * threshold + 2

    @given(bands, st.sampled_from([2, 6]))
    @settings(max_examples=30, deadline=None)
    def test_reencode_is_idempotent(self, band, threshold):
        """Steady state: re-compressing a reconstruction changes nothing."""
        config = make_config(band.shape, threshold=threshold)
        codec = BandCodec(config)
        first = codec.decode_band(codec.encode_band(band), clip=False)
        clipped = np.clip(first, 0, config.pixel_max)
        if not np.array_equal(first, clipped):
            return  # clipping breaks strict idempotence; skip those draws
        second = codec.decode_band(codec.encode_band(first), clip=False)
        assert np.array_equal(first, second)

    def test_encoded_sizes_consistent(self):
        rng = np.random.default_rng(9)
        band = rng.integers(0, 256, size=(8, 32))
        config = make_config(band.shape)
        enc = BandCodec(config).encode_band(band)
        assert enc.payload_bits == int(enc.payload_bits_per_row.sum())
        assert enc.payload_bits == int(enc.payload_bits_per_column.sum())
        assert enc.payload_bits == sum(enc.subband_payload_bits().values())
        per_col = enc.subband_payload_bits_per_column()
        total = sum(v.sum() for v in per_col.values())
        assert total == enc.payload_bits
        assert enc.management_bits == enc.management_bits_per_column * 32
        assert enc.total_bits == enc.payload_bits + enc.management_bits

    @pytest.mark.parametrize("shape", [(8, 32), (5, 8, 32), (3, 1), (2, 64, 4)])
    def test_column_payload_is_the_width_sum(self, shape):
        """Per-parity counts times NBits equal the summed per-coefficient
        widths, for one band, a stack and an odd-length column."""
        rng = np.random.default_rng(11)
        *lead, n, w = shape
        sizes = BandAccounting(
            config=make_config((2, 2)),
            nbits=rng.integers(1, 33, size=(*lead, 2, w)),
            bitmap=rng.random(shape) < 0.4,
        )
        cols = sizes.payload_bits_per_column
        assert cols.dtype == np.int64
        assert np.array_equal(cols, sizes.widths.sum(axis=-2))

    def test_row_payload_lengths_match_widths(self):
        rng = np.random.default_rng(10)
        band = rng.integers(0, 256, size=(4, 8))
        config = make_config(band.shape)
        enc = BandCodec(config).encode_band(band)
        for i, payload in enumerate(enc.row_payloads):
            assert payload.size == int(enc.widths[i].sum())

    def test_details_exempt_policy(self):
        band = np.full((4, 8), 100, dtype=int)
        band[1, 3] = 103  # small detail -> below threshold
        cfg_all = make_config(band.shape, threshold=200, threshold_bands="all")
        cfg_det = make_config(band.shape, threshold=200, threshold_bands="details")
        enc_all = BandCodec(cfg_all).encode_band(band)
        enc_det = BandCodec(cfg_det).encode_band(band)
        # Exempting LL keeps the approximation intact.
        assert not enc_all.bitmap[0::2, 0::2].any()
        assert enc_det.bitmap[0::2, 0::2].all()

    def test_pixel_range_validated(self):
        config = make_config((4, 8))
        with pytest.raises(ConfigError):
            BandCodec(config).encode_band(np.full((4, 8), 300))

    def test_odd_band_rejected(self):
        config = make_config((4, 8))
        with pytest.raises(ConfigError):
            BandCodec(config).encode_band(np.zeros((3, 8), dtype=int))

    def test_float_band_rejected(self):
        config = make_config((4, 8))
        with pytest.raises(ConfigError):
            BandCodec(config).encode_band(np.zeros((4, 8)))

    def test_corrupt_row_payload_detected(self):
        import dataclasses

        rng = np.random.default_rng(11)
        band = rng.integers(0, 256, size=(4, 8))
        config = make_config(band.shape)
        codec = BandCodec(config)
        enc = codec.encode_band(band)
        rows = list(enc.row_payloads)
        rows[0] = rows[0][:-1]
        bad = dataclasses.replace(enc, row_payloads=tuple(rows))
        with pytest.raises(BitstreamError):
            codec.decode_band(bad)

    @given(bands)
    @settings(max_examples=30, deadline=None)
    def test_wrapped_mode_lossless(self, band):
        """8-bit wrap-around datapath still round-trips 8-bit pixels."""
        config = make_config(band.shape, coefficient_bits=8, wrap_coefficients=True)
        codec = BandCodec(config)
        assert np.array_equal(codec.decode_band(codec.encode_band(band)), band)
