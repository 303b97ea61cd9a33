"""Tests for the memory-primitive portfolio (config tables, elision)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.hardware.bram import BRAM_CONFIGS
from repro.hardware.primitives import (
    BRAM18,
    BRAM36,
    ELISION_LIMIT_BITS,
    LUTRAM,
    URAM,
    BRAM18_COMPAT,
    MemoryPrimitive,
    PortConfig,
    Portfolio,
    portfolio_for,
    small_array_elided,
)


class TestPortConfig:
    def test_capacity_and_name(self):
        cfg = PortConfig(depth=2048, width=9)
        assert cfg.capacity_bits == 18432
        assert cfg.name == "2k x 9"
        assert PortConfig(depth=512, width=72).name == "512 x 72"

    def test_splits_cover_geometry(self):
        cfg = PortConfig(depth=2048, width=9)
        assert cfg.splits_for(2048, 9) == (1, 1)
        assert cfg.splits_for(2049, 9) == (1, 2)
        assert cfg.splits_for(2048, 10) == (2, 1)
        assert cfg.splits_for(0, 9) == (0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            PortConfig(depth=512, width=36).splits_for(-1, 8)

    def test_units_product_of_splits(self):
        cfg = PortConfig(depth=1024, width=18)
        assert cfg.units_for(3000, 40) == 3 * 3


class TestPrimitiveTables:
    def test_bram18_mirrors_seed_table(self):
        """The BRAM18 port configs are exactly the seed BRAM_CONFIGS."""
        assert BRAM18.unit_bits == 18432
        seed = {(c.depth, c.width) for c in BRAM_CONFIGS}
        ours = {(c.depth, c.width) for c in BRAM18.configs}
        assert ours == seed

    def test_bram36_table(self):
        assert BRAM36.unit_bits == 36864
        shapes = {(c.depth, c.width) for c in BRAM36.configs}
        assert (512, 72) in shapes and (32768, 1) in shapes
        assert all(c.capacity_bits <= 36864 for c in BRAM36.configs)

    def test_uram_table(self):
        assert URAM.unit_bits == 294912
        shapes = {(c.depth, c.width) for c in URAM.configs}
        # Native 4k x 72 plus the cascade extension modes down to x1.
        assert (4096, 72) in shapes
        assert (262144, 1) in shapes
        assert all(c.capacity_bits <= 294912 for c in URAM.configs)

    def test_lutram_table(self):
        assert LUTRAM.unit_bits == 512
        assert {(c.depth, c.width) for c in LUTRAM.configs} == {
            (32, 16),
            (64, 8),
        }
        assert LUTRAM.luts_per_unit == 8
        assert LUTRAM.max_units_per_fifo == 64

    def test_overwide_config_rejected(self):
        with pytest.raises(ConfigError):
            MemoryPrimitive(
                name="bad",
                kind="bad",
                unit_bits=512,
                configs=(PortConfig(depth=1024, width=1),),
            )


class TestBestConfig:
    def test_matches_seed_best_config(self):
        """BRAM18 exhaustive search reproduces the seed examples."""
        assert BRAM18.best_config(504, 8).name == "2k x 9"
        assert BRAM18.best_config(496, 16).name == "1k x 18"
        assert BRAM18.best_config(480, 32).name == "512 x 36"
        # Narrowest-width tie-break.
        assert BRAM18.best_config(896, 128).width == 18
        assert BRAM18.best_config(1920, 128).name == "2k x 9"

    def test_units_for_matches_brute_force(self):
        for prim in (BRAM18, BRAM36, URAM, LUTRAM):
            for n_words in (1, 100, 512, 2048, 5000):
                for word_bits in (1, 8, 9, 36, 72):
                    expected = min(
                        c.units_for(n_words, word_bits) for c in prim.configs
                    )
                    assert prim.units_for(n_words, word_bits) == expected

    def test_greedy_never_beats_exhaustive(self):
        for n_words in (10, 500, 2048, 3000):
            for word_bits in (1, 8, 18, 40):
                exact = BRAM18.units_for(n_words, word_bits, mode="exhaustive")
                greedy = BRAM18.units_for(n_words, word_bits, mode="greedy")
                assert greedy >= exact

    @settings(max_examples=200, deadline=None)
    @given(
        n_words=st.integers(min_value=1, max_value=1 << 16),
        word_bits=st.integers(min_value=1, max_value=256),
    )
    def test_greedy_ge_exhaustive_property(self, n_words, word_bits):
        for prim in (BRAM18, BRAM36):
            exact = prim.units_for(n_words, word_bits, mode="exhaustive")
            greedy = prim.units_for(n_words, word_bits, mode="greedy")
            assert greedy >= exact >= 1

    def test_empty_and_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            BRAM18.best_config(0, 8)
        with pytest.raises(ConfigError):
            BRAM18.best_config(512, 8, mode="simulated-annealing")

    def test_zero_dims_need_no_units(self):
        assert BRAM18.units_for(0, 8) == 0
        assert BRAM18.units_for(8, 0) == 0

    def test_pool_units_ceiling(self):
        assert BRAM18.pool_units(1) == 1
        assert BRAM18.pool_units(18432) == 1
        assert BRAM18.pool_units(18433) == 2


class TestUnitsFor:
    def test_table1_note_cascades(self):
        """8-bit rows up to 2048 pixels fit one RAMB18 (Table I note);
        one word deeper or one bit wider cascades to two."""
        assert BRAM18.units_for(2048, 8) == 1
        assert BRAM18.units_for(2049, 8) == 2
        assert BRAM18.units_for(2048, 10) == 2

    def test_port_config_cascades(self):
        """A single 2k x 9 port cascades in depth and in width."""
        cfg = PortConfig(depth=2048, width=9)
        assert cfg.units_for(2048, 9) == 1
        assert cfg.units_for(2049, 9) == 2
        assert cfg.units_for(2048, 10) == 2
        assert cfg.units_for(0, 9) == 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            BRAM18.units_for(-1, 8)
        with pytest.raises(ConfigError):
            BRAM18.units_for(8, -1)


class TestElision:
    def test_fifo_boundary_is_inclusive_1024(self):
        """FIFOs elide at <= 1024 bits, exactly (the acceptance boundary)."""
        assert ELISION_LIMIT_BITS == 1024
        assert small_array_elided(128, 8)  # 1024 bits
        assert not small_array_elided(128, 9)  # 1152 bits
        assert not small_array_elided(1025, 1)

    def test_memory_boundary_is_exclusive(self):
        assert small_array_elided(1023, 1, array_type="memory")
        assert not small_array_elided(1024, 1, array_type="memory")
        assert small_array_elided(1024, 1, array_type="fifo")

    def test_bad_array_type_rejected(self):
        with pytest.raises(ConfigError):
            small_array_elided(8, 8, array_type="rom")


class TestPortfolio:
    def test_compat_portfolio_shape(self):
        assert BRAM18_COMPAT.primitives == (BRAM18,)
        assert not BRAM18_COMPAT.small_array_elision
        assert BRAM18_COMPAT.payload_options == (8, 4, 2, 1)

    def test_duplicate_kinds_rejected(self):
        with pytest.raises(ConfigError):
            Portfolio(name="dup", primitives=(BRAM18, BRAM18))

    def test_primitive_lookup(self):
        assert BRAM18_COMPAT.primitive("bram18") is BRAM18
        with pytest.raises(ConfigError):
            BRAM18_COMPAT.primitive("uram")

    def test_portfolio_for_7series_is_compat(self):
        from repro.hardware.device import XC7Z020

        assert portfolio_for(XC7Z020) is BRAM18_COMPAT

    def test_portfolio_for_ultrascale(self):
        from repro.hardware.device import DEVICES

        zu7 = portfolio_for(DEVICES["ZU7EV"])
        kinds = [p.kind for p in zu7.primitives]
        assert kinds == ["bram18", "bram36", "uram", "lutram"]
        assert zu7.small_array_elision
        assert zu7.payload_options is None
        # No URAM on the ZU3EG: the portfolio must not offer it.
        zu3 = portfolio_for(DEVICES["ZU3EG"])
        assert "uram" not in [p.kind for p in zu3.primitives]
