"""Tests for the 18 Kb BRAM geometry table.

``BramConfig`` / ``BRAM_CONFIGS`` are the canonical RAMB18 table that
:data:`repro.hardware.primitives.BRAM18` is built from; the allocation
arithmetic over it is tested in ``test_primitives.py``.
"""

from __future__ import annotations

from repro.hardware.bram import BRAM_CAPACITY_BITS, BRAM_CONFIGS, BramConfig


class TestBramConfig:
    def test_capacities(self):
        caps = {c.name: c.capacity_bits for c in BRAM_CONFIGS}
        assert caps["2k x 9"] == 18432
        assert caps["1k x 18"] == 18432
        assert caps["512 x 36"] == 18432
        assert caps["4k x 4"] == 16384
        assert caps["16k x 1"] == 16384

    def test_parity_configs_reach_full_capacity(self):
        assert BRAM_CAPACITY_BITS == 18432
        assert max(c.capacity_bits for c in BRAM_CONFIGS) == BRAM_CAPACITY_BITS

    def test_name_for_non_k_depth(self):
        assert BramConfig(depth=512, width=36).name == "512 x 36"
        assert BramConfig(depth=2048, width=9).name == "2k x 9"
