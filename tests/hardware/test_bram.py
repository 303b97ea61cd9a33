"""Tests for the 18 Kb RAMB18 geometry table.

``BRAM18.configs`` is the canonical RAMB18 table; the allocation
arithmetic over it is tested in ``test_primitives.py``.
"""

from __future__ import annotations

from repro.hardware.primitives import BRAM18, BRAM_CAPACITY_BITS, PortConfig


class TestBramConfig:
    def test_capacities(self):
        caps = {c.name: c.capacity_bits for c in BRAM18.configs}
        assert caps["2k x 9"] == 18432
        assert caps["1k x 18"] == 18432
        assert caps["512 x 36"] == 18432
        assert caps["4k x 4"] == 16384
        assert caps["16k x 1"] == 16384

    def test_parity_configs_reach_full_capacity(self):
        assert BRAM_CAPACITY_BITS == 18432
        assert BRAM18.unit_bits == BRAM_CAPACITY_BITS
        assert max(c.capacity_bits for c in BRAM18.configs) == BRAM_CAPACITY_BITS

    def test_name_for_non_k_depth(self):
        assert PortConfig(depth=512, width=36).name == "512 x 36"
        assert PortConfig(depth=2048, width=9).name == "2k x 9"
