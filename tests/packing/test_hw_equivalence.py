"""End-to-end equivalence: register-level chain vs vectorised band codec.

The strongest fidelity claim in the reproduction: streaming an image through
the register-level Fig 5 / Fig 7 / Fig 6 / Fig 8 / Fig 10 models produces
*exactly* the bits and the reconstruction of the vectorised
:class:`BandCodec`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import ArchitectureConfig
from repro.core.packing.hw_pack import BitPackingUnit
from repro.core.packing.nbits import NBitsGateModel, min_bits_signed
from repro.core.packing.packer import BandCodec
from repro.core.stats import analyze_band
from repro.core.window.compressed import CompressedCycleEngine, CompressedEngine
from repro.kernels import BoxFilterKernel

#: Bit-true register-level streaming is the slowest fidelity check.
pytestmark = pytest.mark.slow

bands = hnp.arrays(
    dtype=np.int32,
    shape=st.tuples(
        st.integers(2, 4).map(lambda n: 2 * n),
        st.integers(4, 10).map(lambda n: 2 * n),
    ),
    elements=st.integers(0, 255),
)


def config_for(band, threshold=0):
    n, w = band.shape
    side = max(n, w)
    return ArchitectureConfig(
        image_width=side, image_height=side, window_size=n, threshold=threshold
    )


@given(bands, st.integers(1, 3), st.sampled_from([0, 2, 6]), st.data())
@settings(max_examples=25, deadline=None)
def test_stream_band_equals_band_codec_reconstruction(band, extra, threshold, data):
    """A whole image of band width and ``N + extra`` rows, streamed through
    the register-level chain, reconstructs exactly what the recirculating
    :class:`CompressedEngine` reconstructs (the band codec's decoded
    planes, by the codec round-trip property)."""
    n, w = band.shape
    more = data.draw(
        hnp.arrays(np.int32, (extra, w), elements=st.integers(0, 255))
    )
    image = np.vstack([band, more])
    config = ArchitectureConfig(
        image_width=w, image_height=n + extra, window_size=n, threshold=threshold
    )
    kernel = BoxFilterKernel(n)
    streamed = CompressedCycleEngine(config, kernel).run(image)
    codec = CompressedEngine(config, kernel).run(image)
    assert np.array_equal(streamed.reconstruction, codec.reconstruction)
    assert np.array_equal(streamed.outputs, codec.outputs)


@given(bands)
@settings(max_examples=20, deadline=None)
def test_row_word_streams_match_encoded_payloads(band):
    """Each row's Fig 6 word stream equals the codec's row payload bits."""
    config = config_for(band)
    encoded = BandCodec(config).encode_band(band)
    plane = analyze_band(config, band).plane
    gate = NBitsGateModel(config.coefficient_bits)
    n, w = plane.shape
    for i in range(n):
        packer = BitPackingUnit(word_bits=8, max_nbits=config.coefficient_bits)
        bits: list[int] = []
        for j in range(w):
            col = plane[0::2, j] if i % 2 == 0 else plane[1::2, j]
            nb = gate.min_bits(col)
            _, words = packer.step(int(plane[i, j]), nb)
            for word in words:
                bits.extend((word.value >> k) & 1 for k in range(word.valid_bits))
        for word in packer.flush():
            bits.extend((word.value >> k) & 1 for k in range(word.valid_bits))
        assert np.array_equal(np.array(bits, dtype=np.uint8), encoded.row_payloads[i])


def test_gate_nbits_equals_codec_nbits_on_real_band():
    rng = np.random.default_rng(21)
    band = rng.integers(0, 256, size=(8, 16))
    config = config_for(band)
    plane = analyze_band(config, band).plane
    gate = NBitsGateModel(config.coefficient_bits)
    nbits_even = np.array([gate.min_bits(plane[0::2, j]) for j in range(16)])
    nbits_odd = np.array([gate.min_bits(plane[1::2, j]) for j in range(16)])
    assert np.array_equal(nbits_even, min_bits_signed(plane[0::2, :], axis=0))
    assert np.array_equal(nbits_odd, min_bits_signed(plane[1::2, :], axis=0))


def test_whole_band_bit_count_matches_analysis():
    """Total streamed payload bits equal the analytic width sums."""
    rng = np.random.default_rng(22)
    band = rng.integers(0, 256, size=(8, 24))
    config = config_for(band, threshold=4)
    codec = BandCodec(config)
    encoded = codec.encode_band(band)
    analysis = analyze_band(config, band)
    assert encoded.payload_bits == analysis.payload_bits
    assert np.array_equal(
        encoded.payload_bits_per_row, analysis.payload_bits_per_row
    )
    assert np.array_equal(
        encoded.payload_bits_per_column, analysis.payload_bits_per_column
    )
    assert encoded.management_bits_per_column == analysis.management_bits_per_column
