"""Tests for the register-level model of the compressed datapath.

:class:`CompressedCycleEngine` streams every pixel through the Fig 4
dataflow; these tests pin its equivalence to the band engine, its
batched pair transforms and its FIFO causality checks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ArchitectureConfig,
    CompressedCycleEngine,
    CompressedEngine,
    TraditionalEngine,
)
from repro.core.packing.hw_unpack import BitUnpackingUnit
from repro.core.transform.hwmodel import Haar2DBlock, InverseHaar2DBlock
from repro.errors import BitstreamError, StateError
from repro.kernels import BoxFilterKernel, MedianKernel

from helpers import random_image


def cfg(**kw):
    defaults = dict(image_width=16, image_height=14, window_size=4)
    defaults.update(kw)
    return ArchitectureConfig(**defaults)


class TestStreamEquivalence:
    @pytest.mark.parametrize("threshold", [0, 2, 6])
    def test_bit_identical_to_fast_engine(self, rng, threshold):
        """The pixel-level dataflow reproduces the band engine exactly —
        lossless and lossy."""
        config = cfg(threshold=threshold)
        img = random_image(rng, 14, 16)
        kernel = BoxFilterKernel(4)
        sim = CompressedCycleEngine(config, kernel).run(img)
        fast = CompressedEngine(config, kernel).run(img)
        assert np.allclose(sim.outputs, fast.outputs)
        assert np.array_equal(sim.reconstruction, fast.reconstruction)

    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("threshold", [0, 2, 6, 12])
    @pytest.mark.parametrize("bands", ["all", "details"])
    @pytest.mark.parametrize("wrapped", [False, True])
    def test_exact_against_recirculating_engine(
        self, rng, n, threshold, bands, wrapped
    ):
        """Reconstruction bit-identical and outputs exact (delta 0.0) on
        dark and bright input; dark input is where the ``details`` LL
        exemption changes the result."""
        config = cfg(
            image_width=16,
            image_height=12,
            window_size=n,
            threshold=threshold,
            threshold_bands=bands,
            coefficient_bits=8 if wrapped else 12,
            wrap_coefficients=wrapped,
        )
        kernel = BoxFilterKernel(n)
        for high in (40, 256):
            img = rng.integers(0, high, size=(12, 16))
            cyc = CompressedCycleEngine(config, kernel).run(img)
            ref = CompressedEngine(config, kernel, recirculate=True).run(img)
            assert np.array_equal(cyc.outputs, ref.outputs)
            assert np.array_equal(cyc.reconstruction, ref.reconstruction)

    def test_lossless_matches_traditional(self, rng):
        config = cfg()
        img = random_image(rng, 14, 16)
        kernel = MedianKernel(4)
        sim = CompressedCycleEngine(config, kernel).run(img)
        trad = TraditionalEngine(config, kernel).run(img)
        assert np.allclose(sim.outputs, trad.outputs)

    def test_wrapped_datapath(self, rng):
        config = cfg(coefficient_bits=8, wrap_coefficients=True)
        img = random_image(rng, 14, 16)
        kernel = BoxFilterKernel(4)
        sim = CompressedCycleEngine(config, kernel).run(img)
        trad = TraditionalEngine(config, kernel).run(img)
        assert np.allclose(sim.outputs, trad.outputs)


class TestVectorisedPairs:
    """The batched pair transforms are bit-exact vs the scalar Fig 5 / Fig 10
    block models they replaced."""

    def scalar_forward(self, even, odd, wrap_bits):
        block = Haar2DBlock(wrap_bits=wrap_bits)
        col_a = np.empty_like(even)
        col_b = np.empty_like(odd)
        for i in range(0, even.size, 2):
            ll, lh, hl, hh = block.forward(
                int(even[i]), int(odd[i]), int(even[i + 1]), int(odd[i + 1])
            )
            col_a[i], col_b[i] = ll, hl
            col_a[i + 1], col_b[i + 1] = lh, hh
        return col_a, col_b

    def scalar_inverse(self, col_a, col_b, wrap_bits):
        block = InverseHaar2DBlock(wrap_bits=wrap_bits)
        even = np.empty_like(col_a)
        odd = np.empty_like(col_b)
        for i in range(0, col_a.size, 2):
            x00, x01, x10, x11 = block.inverse(
                int(col_a[i]), int(col_a[i + 1]), int(col_b[i]), int(col_b[i + 1])
            )
            even[i], odd[i] = x00, x01
            even[i + 1], odd[i + 1] = x10, x11
        return even, odd

    @pytest.mark.parametrize("wrapped", [False, True])
    def test_forward_matches_scalar_blocks(self, rng, wrapped):
        config = cfg(
            window_size=8,
            image_width=16,
            image_height=16,
            coefficient_bits=8 if wrapped else 12,
            wrap_coefficients=wrapped,
        )
        sim = CompressedCycleEngine(config, BoxFilterKernel(8))
        for _ in range(20):
            even = rng.integers(0, 256, size=8).astype(np.int64)
            odd = rng.integers(0, 256, size=8).astype(np.int64)
            got = sim._transform_pair(even, odd)
            want = self.scalar_forward(even, odd, sim._wrap)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("wrapped", [False, True])
    def test_inverse_matches_scalar_blocks(self, rng, wrapped):
        config = cfg(
            window_size=8,
            image_width=16,
            image_height=16,
            coefficient_bits=8 if wrapped else 12,
            wrap_coefficients=wrapped,
        )
        sim = CompressedCycleEngine(config, BoxFilterKernel(8))
        for _ in range(20):
            col_a = rng.integers(-128, 128, size=8).astype(np.int64)
            col_b = rng.integers(-128, 128, size=8).astype(np.int64)
            got = sim._inverse_pair(col_a, col_b)
            want = self.scalar_inverse(col_a, col_b, sim._wrap)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_pair_roundtrip(self, rng):
        sim = CompressedCycleEngine(cfg(), BoxFilterKernel(4))
        even = rng.integers(0, 256, size=4).astype(np.int64)
        odd = rng.integers(0, 256, size=4).astype(np.int64)
        back = sim._inverse_pair(*sim._transform_pair(even, odd))
        assert np.array_equal(back[0], even)
        assert np.array_equal(back[1], odd)


class TestDataflowInvariants:
    def test_no_underflow_and_ordered_pops(self, rng):
        """Completing a run without StateError is the causality proof —
        the simulator checks order and availability at every pop."""
        config = cfg(image_width=20, image_height=18, window_size=6)
        img = random_image(rng, 18, 20)
        CompressedCycleEngine(config, BoxFilterKernel(6)).run(img)

    def test_fifo_peak_bounded_by_one_generation(self, rng):
        """At most one traversal's worth of records is ever resident."""
        config = cfg()
        img = random_image(rng, 14, 16)
        sim = CompressedCycleEngine(config, BoxFilterKernel(4))
        sim.run(img)
        assert sim.fifo_peak <= config.image_width

    def test_bits_peak_tracks_compression(self, rng):
        """Smooth input keeps fewer resident bits than noise."""
        config = cfg(image_width=32, image_height=16, window_size=4, threshold=6)
        noise = random_image(rng, 16, 32)
        smooth = random_image(rng, 16, 32, smooth=True)
        sim_n = CompressedCycleEngine(config, BoxFilterKernel(4))
        sim_n.run(noise)
        sim_s = CompressedCycleEngine(config, BoxFilterKernel(4))
        sim_s.run(smooth)
        assert sim_s.bits_peak < sim_n.bits_peak

    def test_record_fifo_underflow_raises(self, rng):
        class NoWrites(CompressedCycleEngine):
            def _write_pair(self, records, packers, unpackers, band, x):
                return 0

        with pytest.raises(StateError, match="underflow"):
            NoWrites(cfg(), BoxFilterKernel(4)).run(random_image(rng, 14, 16))

    def test_out_of_order_pop_raises(self, rng):
        class SwappedWrites(CompressedCycleEngine):
            def _write_pair(self, records, packers, unpackers, band, x):
                stored = super()._write_pair(records, packers, unpackers, band, x)
                odd, even = records.pop(), records.pop()
                records.extend((odd, even))
                return stored

        with pytest.raises(StateError, match="out-of-order"):
            SwappedWrites(cfg(), BoxFilterKernel(4)).run(
                random_image(rng, 14, 16)
            )

    def test_word_fifo_underflow_raises(self, rng, monkeypatch):
        """Words that never reach the unpackers' FIFOs starve them."""
        monkeypatch.setattr(BitUnpackingUnit, "feed", lambda self, words: None)
        with pytest.raises(BitstreamError, match="underflow"):
            CompressedCycleEngine(cfg(), BoxFilterKernel(4)).run(
                random_image(rng, 14, 16)
            )

    def test_gate_disagreement_raises(self, rng):
        engine = CompressedCycleEngine(cfg(), BoxFilterKernel(4))
        gate_min_bits = engine._gate.min_bits
        engine._gate.min_bits = lambda values: gate_min_bits(values) + 1
        with pytest.raises(StateError, match="gate-tree"):
            engine.run(random_image(rng, 14, 16))

    def test_stats_fields(self, rng):
        config = cfg()
        img = random_image(rng, 14, 16)
        run = CompressedCycleEngine(config, BoxFilterKernel(4)).run(img)
        assert run.stats.outputs == 11 * 13
        assert run.stats.pixels_in == 14 * 16
        assert run.stats.buffer_bits_peak > 0
