"""Tests for the deterministic SEU fault injector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.resilience import FaultInjector
from repro.resilience.injector import STREAM_NAMES


class TestConstruction:
    def test_invalid_rate(self):
        with pytest.raises(ConfigError):
            FaultInjector(upset_rate=1.5)

    def test_invalid_flips_per_word(self):
        with pytest.raises(ConfigError):
            FaultInjector(flips_per_word=-1)

    def test_invalid_target(self):
        with pytest.raises(ConfigError):
            FaultInjector(targets=("payload", "dram"))

    def test_unknown_stream_rejected(self):
        inj = FaultInjector(upset_rate=0.5)
        with pytest.raises(ConfigError):
            inj.inject_words(np.zeros((1, 8), dtype=np.uint8), "dram")


class TestRateMode:
    def test_zero_rate_is_identity(self):
        inj = FaultInjector(upset_rate=0.0)
        words = np.ones((10, 72), dtype=np.uint8)
        out, n = inj.inject_words(words, "payload")
        assert n == 0
        assert np.array_equal(out, words)

    def test_deterministic_from_seed(self):
        words = np.zeros((50, 72), dtype=np.uint8)
        a, na = FaultInjector(upset_rate=0.01, seed=7).inject_words(words, "payload")
        b, nb = FaultInjector(upset_rate=0.01, seed=7).inject_words(words, "payload")
        assert na == nb
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        words = np.zeros((200, 72), dtype=np.uint8)
        a, _ = FaultInjector(upset_rate=0.05, seed=1).inject_words(words, "payload")
        b, _ = FaultInjector(upset_rate=0.05, seed=2).inject_words(words, "payload")
        assert not np.array_equal(a, b)

    def test_rate_one_flips_everything(self):
        words = np.zeros((4, 16), dtype=np.uint8)
        out, n = FaultInjector(upset_rate=1.0).inject_words(words, "nbits")
        assert n == words.size
        assert out.all()

    def test_input_not_mutated(self):
        words = np.zeros((4, 16), dtype=np.uint8)
        FaultInjector(upset_rate=1.0).inject_words(words, "bitmap")
        assert not words.any()

    def test_untargeted_stream_passes_through(self):
        inj = FaultInjector(upset_rate=1.0, targets=("payload",))
        words = np.zeros((4, 16), dtype=np.uint8)
        out, n = inj.inject_words(words, "bitmap")
        assert n == 0 and not out.any()
        assert inj.total_flips == 0


class TestPerWordMode:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exactly_k_flips_per_word(self, k):
        words = np.zeros((30, 72), dtype=np.uint8)
        out, n = FaultInjector(flips_per_word=k).inject_words(words, "payload")
        assert n == 30 * k
        assert np.array_equal(out.sum(axis=1), np.full(30, k))

    def test_k_clamped_to_word_width(self):
        words = np.zeros((5, 4), dtype=np.uint8)
        out, n = FaultInjector(flips_per_word=10).inject_words(words, "payload")
        assert n == 5 * 4
        assert out.all()

    def test_zero_k_is_identity(self):
        words = np.ones((5, 8), dtype=np.uint8)
        out, n = FaultInjector(flips_per_word=0).inject_words(words, "payload")
        assert n == 0
        assert np.array_equal(out, words)


class TestBookkeeping:
    def test_per_stream_counters(self):
        inj = FaultInjector(flips_per_word=1)
        for stream in STREAM_NAMES:
            inj.inject_words(np.zeros((3, 8), dtype=np.uint8), stream)
        assert inj.flips == {name: 3 for name in STREAM_NAMES}
        assert inj.total_flips == 9

    def test_reset_replays_pattern(self):
        inj = FaultInjector(upset_rate=0.1, seed=5)
        words = np.zeros((20, 72), dtype=np.uint8)
        first, _ = inj.inject_words(words, "payload")
        inj.reset()
        assert inj.total_flips == 0
        replay, _ = inj.inject_words(words, "payload")
        assert np.array_equal(first, replay)

    def test_inject_bits_flat(self):
        bits = np.zeros(100, dtype=np.uint8)
        out, n = FaultInjector(upset_rate=1.0).inject_bits(bits, "payload")
        assert out.shape == (100,)
        assert n == 100

