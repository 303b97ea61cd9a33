"""Cross-cutting fuzz and stateful tests.

A Hypothesis rule-based machine drives the register-level units through
arbitrary legal operation sequences, checking the invariants that matter
architecturally: conservation of bits through the pack → unpack chain,
and codec round-trips across the whole configuration space (pixel
widths, wrap modes, decomposition levels).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro import ArchitectureConfig, BandCodec
from repro.core.packing.hw_pack import BitPackingUnit
from repro.core.packing.hw_unpack import BitUnpackingUnit


class PackUnpackMachine(RuleBasedStateMachine):
    """Drive a Bit Packing unit and mirror-check against a software model.

    Every coefficient fed to the packer is queued with its metadata; the
    unpacker is periodically drained and must reproduce the (thresholded)
    coefficients exactly, in order.
    """

    def __init__(self) -> None:
        super().__init__()
        self.threshold = 3
        self.packer = BitPackingUnit(threshold=self.threshold, max_nbits=12)
        self.words: list = []
        self.fed: list[tuple[int, int, int]] = []  # (bitmap, nbits, expected)

    @rule(value=st.integers(-1024, 1023))
    def feed_coefficient(self, value: int) -> None:
        nbits = max(2, int(abs(value)).bit_length() + 1)
        bitmap, emitted = self.packer.step(value, nbits)
        self.words.extend(emitted)
        expected = 0 if abs(value) < self.threshold else value
        assert bitmap == (expected != 0)
        self.fed.append((bitmap, nbits, expected))

    @precondition(lambda self: len(self.fed) > 0)
    @rule()
    def drain_and_verify(self) -> None:
        words = list(self.words) + self.packer.flush()
        unpacker = BitUnpackingUnit(words, max_nbits=12)
        for bitmap, nbits, expected in self.fed:
            assert unpacker.step(bitmap, nbits) == expected
        self.words.clear()
        self.fed.clear()

    @invariant()
    def pending_bits_in_range(self) -> None:
        assert 0 <= self.packer.pending_bits < self.packer.word_bits


TestPackUnpackMachine = PackUnpackMachine.TestCase


# ----------------------------------------------------------------------
# Whole-configuration-space codec fuzzing
# ----------------------------------------------------------------------


@st.composite
def codec_configs(draw):
    pixel_bits = draw(st.sampled_from([4, 8, 10, 12]))
    levels = draw(st.sampled_from([1, 1, 2]))
    wrap = draw(st.booleans())
    window = 8 if levels == 2 else draw(st.sampled_from([4, 8]))
    kwargs = dict(
        image_width=32,
        image_height=32,
        window_size=window,
        pixel_bits=pixel_bits,
        threshold=draw(st.sampled_from([0, 2, 5])),
        decomposition_levels=levels,
    )
    if wrap:
        kwargs["coefficient_bits"] = pixel_bits
        kwargs["wrap_coefficients"] = True
    return ArchitectureConfig(**kwargs)


@given(codec_configs(), st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_codec_roundtrip_across_config_space(config, seed):
    """Lossless configs round-trip exactly for every pixel width, wrap
    mode and decomposition depth; lossy configs stay within the linear
    error bound."""
    rng = np.random.default_rng(seed)
    band = rng.integers(0, config.pixel_max + 1, size=(config.window_size, 32))
    codec = BandCodec(config)
    decoded = codec.decode_band(codec.encode_band(band))
    if config.lossless:
        assert np.array_equal(decoded, band)
    elif not config.wrap_coefficients:
        bound = (3 * config.threshold + 2) * config.decomposition_levels
        assert np.max(np.abs(decoded - band)) <= bound


@given(codec_configs(), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_fast_accounting_matches_bit_exact_across_config_space(config, seed):
    """The analysed plane is what the packed bit streams decode to, and
    its reconstruction is the codec's, across the configuration space."""
    from repro.core.stats import analyze_band

    rng = np.random.default_rng(seed)
    band = rng.integers(0, config.pixel_max + 1, size=(config.window_size, 32))
    codec = BandCodec(config)
    encoded = codec.encode_band(band)
    analysis = analyze_band(config, band)
    assert np.array_equal(codec.decode_plane(encoded), analysis.plane)
    assert np.array_equal(codec.decode_band(encoded), analysis.reconstruct())
