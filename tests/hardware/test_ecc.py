"""Tests and fault injection for the SECDED BRAM ECC model.

:class:`SecdedProtection` is the one SECDED: its block codec
(``encode_words``/``decode_words``) is checked against the scalar
per-word ``encode``/``decode`` oracle at every BRAM word width.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BitstreamError, ConfigError
from repro.resilience.protection import SecdedProtection


class TestGeometry:
    def test_standard_64_72(self):
        """The Xilinx BRAM ECC geometry: 64 data bits -> 72 code bits."""
        codec = SecdedProtection(64)
        assert codec.hamming_parity_bits == 7
        assert codec.code_bits == 72
        assert codec.overhead_percent == pytest.approx(12.5)

    def test_small_words(self):
        codec = SecdedProtection(4)
        assert codec.code_bits == 4 + 3 + 1

    def test_invalid_width(self):
        with pytest.raises(ConfigError):
            SecdedProtection(2)


class TestRoundTrip:
    @given(st.lists(st.integers(0, 1), min_size=64, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_clean_roundtrip(self, bits):
        codec = SecdedProtection(64)
        data = np.array(bits, dtype=np.uint8)
        out, corrected = codec.decode(codec.encode(data))
        assert not corrected
        assert np.array_equal(out, data)

    @given(
        st.lists(st.integers(0, 1), min_size=16, max_size=16),
        st.integers(0, 20),  # any single position incl. parity + overall
    )
    @settings(max_examples=200, deadline=None)
    def test_single_flip_corrected(self, bits, pos):
        codec = SecdedProtection(16)
        data = np.array(bits, dtype=np.uint8)
        code = codec.encode(data)
        code[pos % codec.code_bits] ^= 1
        out, corrected = codec.decode(code)
        assert corrected
        assert np.array_equal(out, data)

    @given(
        st.lists(st.integers(0, 1), min_size=16, max_size=16),
        st.integers(0, 1000),
        st.integers(0, 1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_double_flip_detected(self, bits, p1, p2):
        codec = SecdedProtection(16)
        data = np.array(bits, dtype=np.uint8)
        code = codec.encode(data)
        a, b = p1 % codec.code_bits, p2 % codec.code_bits
        if a == b:
            return
        code[a] ^= 1
        code[b] ^= 1
        with pytest.raises(BitstreamError):
            codec.decode(code)


class TestEveryGeometry:
    """Property tests across the BRAM-relevant word widths."""

    WIDTHS = (8, 16, 32, 64)

    @pytest.mark.parametrize("data_bits", WIDTHS)
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, data_bits, data):
        codec = SecdedProtection(data_bits)
        bits = data.draw(
            st.lists(st.integers(0, 1), min_size=data_bits, max_size=data_bits)
        )
        word = np.array(bits, dtype=np.uint8)
        code = codec.encode(word)
        assert np.array_equal(codec.encode_words(word)[0], code)
        out, corrected = codec.decode(code)
        assert not corrected
        assert np.array_equal(out, word)
        data, fixed, bad = codec.decode_words(code)
        assert np.array_equal(data[0], word)
        assert not fixed[0] and not bad[0]

    @pytest.mark.parametrize("data_bits", WIDTHS)
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_single_flip_corrected(self, data_bits, data):
        codec = SecdedProtection(data_bits)
        bits = data.draw(
            st.lists(st.integers(0, 1), min_size=data_bits, max_size=data_bits)
        )
        pos = data.draw(st.integers(0, codec.code_bits - 1))
        word = np.array(bits, dtype=np.uint8)
        code = codec.encode(word)
        code[pos] ^= 1
        out, corrected = codec.decode(code)
        assert corrected
        assert np.array_equal(out, word)
        data, fixed, bad = codec.decode_words(code)
        assert np.array_equal(data[0], word)
        assert fixed[0] and not bad[0]

    @pytest.mark.parametrize("data_bits", WIDTHS)
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_double_flip_detected(self, data_bits, data):
        codec = SecdedProtection(data_bits)
        bits = data.draw(
            st.lists(st.integers(0, 1), min_size=data_bits, max_size=data_bits)
        )
        a = data.draw(st.integers(0, codec.code_bits - 1))
        b = data.draw(st.integers(0, codec.code_bits - 2))
        if b >= a:
            b += 1  # distinct positions
        word = np.array(bits, dtype=np.uint8)
        code = codec.encode(word)
        code[a] ^= 1
        code[b] ^= 1
        with pytest.raises(BitstreamError):
            codec.decode(code)
        _, fixed, bad = codec.decode_words(code)
        assert bad[0] and not fixed[0]


class TestBlockApi:
    """The vectorised block codec must agree with the scalar path."""

    @pytest.mark.parametrize("data_bits", (8, 16, 32, 64))
    def test_encode_block_matches_scalar(self, data_bits, rng):
        codec = SecdedProtection(data_bits)
        words = rng.integers(0, 2, size=(20, data_bits)).astype(np.uint8)
        block = codec.encode_words(words)
        for i in range(words.shape[0]):
            assert np.array_equal(block[i], codec.encode(words[i]))

    def test_decode_block_clean(self, rng):
        codec = SecdedProtection(32)
        words = rng.integers(0, 2, size=(16, 32)).astype(np.uint8)
        data, corrected, uncorrectable = codec.decode_words(codec.encode_words(words))
        assert np.array_equal(data, words)
        assert not corrected.any()
        assert not uncorrectable.any()

    def test_decode_block_single_flips(self, rng):
        codec = SecdedProtection(32)
        words = rng.integers(0, 2, size=(16, 32)).astype(np.uint8)
        code = codec.encode_words(words)
        positions = rng.integers(0, codec.code_bits, size=16)
        code[np.arange(16), positions] ^= 1
        data, corrected, uncorrectable = codec.decode_words(code)
        assert np.array_equal(data, words)
        assert corrected.all()
        assert not uncorrectable.any()

    def test_decode_block_double_flips_flagged_not_raised(self, rng):
        """Unlike the scalar decode, the block path reports per-word masks."""
        codec = SecdedProtection(32)
        words = rng.integers(0, 2, size=(8, 32)).astype(np.uint8)
        code = codec.encode_words(words)
        code[3, 1] ^= 1
        code[3, 20] ^= 1
        data, corrected, uncorrectable = codec.decode_words(code)
        assert uncorrectable[3]
        assert not uncorrectable[[0, 1, 2, 4, 5, 6, 7]].any()
        clean = np.delete(np.arange(8), 3)
        assert np.array_equal(data[clean], words[clean])

    def test_mixed_flip_block(self, rng):
        """Clean, corrected and uncorrectable words coexist in one block."""
        codec = SecdedProtection(16)
        words = rng.integers(0, 2, size=(3, 16)).astype(np.uint8)
        code = codec.encode_words(words)
        code[1, 5] ^= 1  # single: corrected
        code[2, 2] ^= 1  # double: detected
        code[2, 9] ^= 1
        data, corrected, uncorrectable = codec.decode_words(code)
        assert not corrected[0] and not uncorrectable[0]
        assert corrected[1] and not uncorrectable[1]
        assert uncorrectable[2]
        assert np.array_equal(data[0], words[0])
        assert np.array_equal(data[1], words[1])


class TestStream:
    def test_protect_recover_roundtrip(self, rng):
        codec = SecdedProtection(32)
        bits = rng.integers(0, 2, size=1000).astype(np.uint8)
        protected = codec.encode_stream(bits)
        assert protected.shape == (-(-1000 // 32), codec.code_bits)
        decoded = codec.decode_stream(protected, 1000)
        assert np.array_equal(decoded.bits, bits)
        assert decoded.corrected_words == decoded.uncorrectable_words == 0

    def test_protected_compressed_row_survives_single_upsets(self, rng):
        """End to end: a packed row stream with one upset per ECC word
        decodes to exactly the original pixels."""
        from repro import ArchitectureConfig, BandCodec

        config = ArchitectureConfig(image_width=32, image_height=32, window_size=8)
        band = rng.integers(0, 256, size=(8, 32))
        encoded = BandCodec(config).encode_band(band)
        codec = SecdedProtection(32)
        row = encoded.row_payloads[0]
        protected = codec.encode_stream(row)
        # Flip one bit inside every code word.
        flips = rng.integers(0, codec.code_bits, size=protected.shape[0])
        protected[np.arange(protected.shape[0]), flips] ^= 1
        recovered = codec.decode_stream(protected, row.size)
        assert np.array_equal(recovered.bits, row)
        assert recovered.corrected_words == protected.shape[0]

    def test_empty_stream(self):
        codec = SecdedProtection(16)
        assert codec.encode_stream(np.zeros(0, dtype=np.uint8)).size == 0

    def test_bad_stream_length(self):
        codec = SecdedProtection(16)
        with pytest.raises(ConfigError):
            codec.decode_stream(np.zeros(5, dtype=np.uint8), 4)

    def test_unprotected_corruption_breaks_decode_or_pixels(self, rng):
        """Without ECC, a single flipped payload bit corrupts the band —
        motivating the protection."""
        from repro import ArchitectureConfig, BandCodec
        import dataclasses

        config = ArchitectureConfig(image_width=32, image_height=32, window_size=8)
        band = rng.integers(0, 256, size=(8, 32))
        codec = BandCodec(config)
        encoded = codec.encode_band(band)
        rows = list(encoded.row_payloads)
        victim = rows[3].copy()
        victim[victim.size // 2] ^= 1
        rows[3] = victim
        bad = dataclasses.replace(encoded, row_payloads=tuple(rows))
        decoded = codec.decode_band(bad)
        assert not np.array_equal(decoded, band)
