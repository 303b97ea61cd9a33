"""Protected band round-trip tests, including the acceptance criteria:

- SECDED + one injected single-bit upset per stored word -> bit-exact
  output at a modelled storage overhead of at most 12.5 %;
- protection off at the same upset intensity -> strictly positive
  corrupted-pixel count;
- uncorrectable double flips degrade gracefully (re-sync + counted, never
  an unhandled exception) under the degrade policy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ArchitectureConfig
from repro.core.window.compressed import CompressedEngine
from repro.errors import BitstreamError, ConfigError
from repro.hardware.planner import plan_placement
from repro.kernels import BoxFilterKernel
from repro.resilience import (
    EngineFaultSummary,
    FaultInjector,
    ResilientBandCodec,
)


@pytest.fixture
def band(rng, small_config):
    return rng.integers(0, 256, size=(8, 32))


class TestCleanRoundTrip:
    @pytest.mark.parametrize("protection", [None, "parity", "tmr-nbits", "secded"])
    def test_no_injector_is_lossless(self, band, small_config, protection):
        codec = ResilientBandCodec(small_config, protection)
        clean = ResilientBandCodec(small_config, None)
        decoded, report, _ = codec.roundtrip(band)
        reference, _, _ = clean.roundtrip(band)
        assert np.array_equal(decoded, reference)
        assert report.corrupted_pixels == 0
        assert report.flips_injected == 0
        assert not report.detected

    def test_invalid_on_uncorrectable(self, small_config):
        with pytest.raises(ConfigError):
            ResilientBandCodec(small_config, None, on_uncorrectable="panic")


class TestAcceptanceCriteria:
    def test_secded_single_flip_per_word_bit_exact(self, band, small_config):
        """Acceptance: 1 flip/word + SECDED -> zero corrupted pixels."""
        injector = FaultInjector(flips_per_word=1, seed=11)
        codec = ResilientBandCodec(small_config, "secded", injector=injector)
        decoded, report, _ = codec.roundtrip(band)
        clean, _, _ = ResilientBandCodec(small_config, None).roundtrip(band)
        assert report.flips_injected > 0
        assert report.corrected_words == report.flips_injected
        assert report.uncorrectable_words == 0
        assert report.corrupted_pixels == 0
        assert np.array_equal(decoded, clean)
        # ... at a modelled storage overhead of at most 12.5 %.
        assert codec.policy.storage_overhead_percent <= 12.5 + 1e-9

    def test_unprotected_same_upsets_corrupt_output(self, band, small_config):
        """Acceptance: protection off -> strictly positive corrupted pixels."""
        injector = FaultInjector(flips_per_word=1, seed=11)
        codec = ResilientBandCodec(small_config, None, injector=injector)
        _, report, _ = codec.roundtrip(band)
        assert report.corrupted_pixels > 0

    def test_double_flips_degrade_gracefully(self, band, small_config):
        """Acceptance: uncorrectable double flips re-sync, never raise."""
        injector = FaultInjector(flips_per_word=2, seed=11)
        codec = ResilientBandCodec(
            small_config, "secded", injector=injector, on_uncorrectable="resync"
        )
        _, report, _ = codec.roundtrip(band)
        assert report.uncorrectable_words > 0
        assert report.detected
        assert report.resync_rows + report.resync_bands > 0

    def test_double_flips_raise_mode(self, band, small_config):
        injector = FaultInjector(flips_per_word=2, seed=11)
        codec = ResilientBandCodec(
            small_config, "secded", injector=injector, on_uncorrectable="raise"
        )
        with pytest.raises(BitstreamError):
            codec.roundtrip(band)


class TestDegradationModel:
    def test_management_loss_zero_fills_band(self, band, small_config):
        """An uncorrectable NBits word re-syncs the whole band."""
        injector = FaultInjector(
            flips_per_word=2, seed=4, targets=("nbits",)
        )
        codec = ResilientBandCodec(small_config, "secded", injector=injector)
        decoded, report, _ = codec.roundtrip(band)
        assert report.resync_bands == 1
        assert not decoded.any()
        assert report.corrupted_pixels > 0

    def test_payload_loss_zero_fills_rows_only(self, band, small_config):
        """An uncorrectable payload word re-syncs its row, not the band."""
        # Rate chosen so double flips land in some rows' words but not all
        # (flips_per_word=2 would wipe every row and look like band loss).
        injector = FaultInjector(
            upset_rate=0.02, seed=8, targets=("payload",)
        )
        codec = ResilientBandCodec(small_config, "secded", injector=injector)
        decoded, report, _ = codec.roundtrip(band)
        assert report.resync_bands == 0
        assert 0 < report.resync_rows < small_config.window_size
        assert decoded.any()  # untouched rows survive the inverse transform

    def test_silent_rate_corruption_without_protection(self, band, small_config):
        """Rate-mode upsets with no protection: some bands corrupt silently."""
        hits = 0
        for seed in range(8):
            injector = FaultInjector(upset_rate=2e-3, seed=seed)
            codec = ResilientBandCodec(small_config, None, injector=injector)
            _, report, _ = codec.roundtrip(band)
            if report.silent:
                hits += 1
        assert hits > 0

    def test_stored_bits_amortised(self, small_config):
        """Each stream's stored size is its scheme's integer ``scaled_bits``."""
        policy = ResilientBandCodec(small_config, "secded").policy
        raw = {"payload": 6400, "nbits": 160, "bitmap": 256}
        stored = sum(
            int(policy.scheme_for(stream).scaled_bits(bits))
            for stream, bits in raw.items()
        )
        assert stored == (6400 + 160 + 256) * 9 // 8


class TestEngineIntegration:
    def make_engine(self, small_config, **kwargs):
        return CompressedEngine(small_config, BoxFilterKernel(8), **kwargs)

    def test_engine_secded_acceptance(self, rng, small_config):
        image = rng.integers(0, 256, size=(32, 32))
        clean = self.make_engine(small_config).run(image)
        injector = FaultInjector(flips_per_word=1, seed=2)
        engine = self.make_engine(
            small_config, protection="secded", injector=injector
        )
        run = engine.run(image)
        summary = run.faults
        assert isinstance(summary, EngineFaultSummary)
        assert summary.flips_injected > 0
        assert summary.corrected_words == summary.flips_injected
        assert summary.corrupted_pixels == 0
        assert np.array_equal(run.outputs, clean.outputs)

    def test_engine_unprotected_corrupts(self, rng, small_config):
        image = rng.integers(0, 256, size=(32, 32))
        injector = FaultInjector(flips_per_word=1, seed=2)
        run = self.make_engine(small_config, injector=injector).run(image)
        assert run.faults.corrupted_pixels > 0
        assert run.faults.policy_name == "none"

    def test_engine_double_flip_degrades_without_raising(self, rng, small_config):
        image = rng.integers(0, 256, size=(32, 32))
        injector = FaultInjector(flips_per_word=2, seed=2)
        engine = self.make_engine(
            small_config, protection="secded", injector=injector
        )
        run = engine.run(image)  # must not raise under "degrade"
        assert run.faults.uncorrectable_words > 0
        assert run.faults.resync_events > 0

    def test_engine_raise_policy(self, rng, small_config):
        image = rng.integers(0, 256, size=(32, 32))
        injector = FaultInjector(flips_per_word=2, seed=2)
        engine = self.make_engine(
            small_config,
            protection="secded",
            injector=injector,
            fault_policy="raise",
        )
        with pytest.raises(BitstreamError):
            engine.run(image)

    def test_engine_invalid_fault_policy(self, small_config):
        with pytest.raises(ConfigError):
            self.make_engine(small_config, fault_policy="shrug")

    def test_protection_costs_buffer_headroom(self, rng, small_config):
        """The protected run's peak occupancy reflects the 12.5 % premium."""
        image = rng.integers(0, 256, size=(32, 32))
        base = self.make_engine(small_config).run(image)
        shielded = self.make_engine(small_config, protection="secded").run(image)
        assert shielded.stats.buffer_bits_peak > base.stats.buffer_bits_peak

    @pytest.mark.parametrize("pixel_bits", [8, 16])
    @pytest.mark.parametrize("window", [4, 8])
    @pytest.mark.parametrize("protection", ["none", "parity", "tmr-nbits", "secded"])
    def test_management_charge_matches_the_plan(self, window, protection, pixel_bits):
        """Each column's NBits and BitMap words are charged at the widths
        the memory plan places, stream by stream.  A zero frame packs no
        payload, so every band holds management bits only."""
        config = ArchitectureConfig(
            image_width=32, image_height=16, window_size=window, pixel_bits=pixel_bits
        )
        plan = plan_placement(config, np.zeros(window), protection=protection)
        per_column = plan.nbits.fifo.width + plan.bitmap.fifo.width
        engine = CompressedEngine(
            config, BoxFilterKernel(window), protection=protection
        )
        stats = engine.run(np.zeros((16, 32), dtype=np.int64)).stats
        buffered = config.image_width - window
        assert set(stats.band_total_bits) == {per_column * buffered}
        assert stats.buffer_bits_peak == per_column * buffered
