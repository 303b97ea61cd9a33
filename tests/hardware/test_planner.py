"""Tests for the cost-optimising placement planner."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ArchitectureConfig
from repro.errors import ConfigError
from repro.hardware.bram import BRAM_CAPACITY_BITS
from repro.hardware.device import DEVICES, XC7Z020
from repro.hardware.planner import (
    DEFAULT_COST_VECTOR,
    CostVector,
    FifoSpec,
    place_fifo,
    place_payload,
    plan_placement,
)
from repro.hardware.primitives import (
    BRAM18,
    BRAM18_COMPAT,
    LUTRAM,
    portfolio_for,
)

ZU7EV = DEVICES["ZU7EV"]
ULTRA = portfolio_for(ZU7EV)


def cfg(width, window, **kw):
    return ArchitectureConfig(
        image_width=width, image_height=width, window_size=window, **kw
    )


def seed_packed_bram_count(window, rows):
    """The seed RAMB18 packing rule, kept here as the planner's oracle.

    The most aggressive of 8/4/2/1 rows per BRAM whose every aligned
    group fits one 18 Kb BRAM; else one row per BRAM, each cascaded over
    ``ceil(bits / 18432)`` BRAMs.  Returns ``(brams, rows_per_bram)``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    assert rows.size == window
    for r in (8, 4, 2):
        if window % r == 0:
            sums = rows.reshape(window // r, r).sum(axis=1)
            if int(sums.max()) <= BRAM_CAPACITY_BITS:
                return window // r, r
    return sum(max(1, -(-int(b) // BRAM_CAPACITY_BITS)) for b in rows), 1


def seed_management_bram_count(config):
    """The seed NBits + BitMap rule: each stream on its best geometry."""
    cols = config.buffered_columns
    return BRAM18.units_for(cols, 2 * config.nbits_field_width) + (
        BRAM18.units_for(cols, config.window_size)
    )


def deterministic_rows(n):
    """The smoke profile: alternating heavy/light worst-case rows."""
    return np.array([3000 if i % 2 == 0 else 1800 for i in range(n)])


class TestPlaceFifo:
    def test_placement_covers_geometry(self):
        spec = FifoSpec(name="f", depth=3000, width=20, count=3)
        p = place_fifo(spec, ULTRA)
        assert p.units == p.width_splits * p.depth_splits * spec.count
        assert p.config.width * p.width_splits >= spec.width
        assert p.config.depth * p.depth_splits >= spec.depth
        assert p.storage_bits == p.units * p.primitive.unit_bits

    def test_block_hint_excludes_lutram(self):
        spec = FifoSpec(name="line", depth=64, width=8, storage="block")
        p = place_fifo(spec, ULTRA)
        assert p.kind != "lutram"

    def test_distributed_hint_is_lutram_only(self):
        # 2048 bits: past the elision limit, so LUTRAM actually places.
        spec = FifoSpec(name="d", depth=256, width=8, storage="distributed")
        assert place_fifo(spec, ULTRA).kind == "lutram"
        with pytest.raises(ConfigError):
            place_fifo(spec, BRAM18_COMPAT)  # no LUTRAM in the portfolio

    def test_lutram_unit_cap_enforced(self):
        # 96 SLICEMs would be needed; the 64-unit cap forces block RAM.
        spec = FifoSpec(name="bitmap", depth=1921, width=128)
        p = place_fifo(spec, ULTRA)
        assert p.kind != "lutram"

    def test_elision_on_ultrascale_only(self):
        spec = FifoSpec(name="tiny", depth=128, width=8)  # exactly 1024 bits
        elided = place_fifo(spec, ULTRA)
        assert elided.elided and elided.units == 0 and elided.kind == "elided"
        assert elided.storage_bits == 0
        kept = place_fifo(spec, BRAM18_COMPAT)
        assert not kept.elided and kept.units == 1

    def test_elision_boundary_exact(self):
        over = FifoSpec(name="tiny+1", depth=1025, width=1)
        assert not place_fifo(over, ULTRA).elided
        at = FifoSpec(name="tiny", depth=1024, width=1)
        assert place_fifo(at, ULTRA).elided

    def test_empty_fifo_is_free(self):
        p = place_fifo(FifoSpec(name="z", depth=0, width=8), ULTRA)
        assert p.units == 0 and not p.elided

    def test_compat_matches_seed_min_brams(self):
        """BRAM18-only placement equals the seed allocator arithmetic."""
        from repro.hardware.bram import BRAM_CONFIGS

        for depth, width in ((504, 8), (496, 16), (2048, 9), (896, 128)):
            seed_units = min(
                c.units_for(depth, width)
                for c in BRAM18_COMPAT.primitives[0].configs
            )
            assert BRAM_CONFIGS  # table still published
            p = place_fifo(
                FifoSpec(name="f", depth=depth, width=width), BRAM18_COMPAT
            )
            assert p.units == seed_units

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            place_fifo(
                FifoSpec(name="f", depth=8, width=8),
                BRAM18_COMPAT,
                mode="quantum",
            )


class TestPlacePayload:
    def test_compat_identity_deterministic(self):
        for n in (8, 16, 32, 64, 128):
            rows = deterministic_rows(n)
            count, r = seed_packed_bram_count(n, rows)
            p = place_payload(n, rows, BRAM18_COMPAT)
            assert p.primitive.kind == "bram18"
            assert (p.units, p.rows_per_group) == (count, r)

    @settings(max_examples=100, deadline=None)
    @given(
        window=st.sampled_from((4, 8, 16, 32)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        scale=st.sampled_from((200, 2000, 20000)),
    )
    def test_compat_identity_property(self, window, seed, scale):
        """The compat portfolio reproduces the seed packing bit-for-bit."""
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, scale, size=window)
        count, r = seed_packed_bram_count(window, rows)
        p = place_payload(window, rows, BRAM18_COMPAT)
        assert (p.units, p.rows_per_group) == (count, r)

    def test_group_capacities_match_allocation(self):
        rows = deterministic_rows(8)
        p = place_payload(8, rows, BRAM18_COMPAT)
        caps = p.group_capacity_list()
        assert len(caps) == p.n_groups
        # Every aligned group's worst-case bits fit its allocation.
        sums = rows.reshape(p.n_groups, p.rows_per_group).sum(axis=1)
        assert all(int(s) <= c for s, c in zip(sums, caps))

    def test_uram_wins_deep_payload_on_zu7ev(self):
        rows = deterministic_rows(64)
        p = place_payload(64, rows, ULTRA)
        assert p.primitive.kind == "uram"
        assert p.units == 1 and p.rows_per_group == 64

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            place_payload(8, np.zeros(4), BRAM18_COMPAT)
        with pytest.raises(ConfigError):
            place_payload(4, np.array([-1, 1, 1, 1]), BRAM18_COMPAT)


class TestPlanPlacement:
    def test_compat_totals_equal_seed_mapping(self):
        """plan_placement on the default device == the seed BRAM counts."""
        for n in (8, 16, 32, 64, 128):
            config = cfg(512, n)
            rows = deterministic_rows(n)
            packed, r = seed_packed_bram_count(n, rows)
            plan = plan_placement(config, rows)  # XC7Z020 default
            assert (plan.packed_brams, plan.rows_per_bram) == (packed, r)
            assert plan.payload.units == packed
            assert (
                plan.nbits.units + plan.bitmap.units
                == plan.management_brams
                == seed_management_bram_count(config)
            )

    def test_zu7ev_moves_shallow_fifos_to_lutram(self):
        plan = plan_placement(cfg(512, 8), deterministic_rows(8), device=ZU7EV)
        assert plan.nbits.kind == "lutram"
        assert plan.bitmap.kind == "lutram"
        assert plan.luts == (plan.nbits.units + plan.bitmap.units) * (
            LUTRAM.luts_per_unit
        )

    def test_zu7ev_never_costs_more_bits_than_compat(self):
        """Acceptance: portfolio plan <= BRAM18-only plan, every point."""
        for n in (8, 16, 32, 64, 128):
            config = cfg(512, n)
            rows = deterministic_rows(n)
            ultra = plan_placement(config, rows, device=ZU7EV)
            compat = plan_placement(config, rows, device=XC7Z020)
            assert ultra.storage_bits <= compat.storage_bits
            assert ultra.storage_saving_bits >= 0

    def test_usage_and_fits(self):
        plan = plan_placement(cfg(512, 64), deterministic_rows(64), device=ZU7EV)
        usage = plan.usage()
        assert usage.get("uram", 0) >= 1
        assert "lutram" not in usage  # surfaced as luts
        assert usage["luts"] == plan.luts
        assert plan.fits(ZU7EV)

    def test_cost_vector_override_changes_winner(self):
        """Pricing URAM absurdly high pushes the deep payload off it."""
        expensive_uram = CostVector(
            weights={**DEFAULT_COST_VECTOR.weights, "uram": 10**9}
        )
        config = cfg(512, 64)
        rows = deterministic_rows(64)
        base = plan_placement(config, rows, device=ZU7EV)
        assert base.payload.primitive.kind == "uram"
        shifted = plan_placement(
            config, rows, device=ZU7EV, cost_vector=expensive_uram
        )
        assert shifted.payload.primitive.kind != "uram"

    def test_unknown_cost_kind_rejected(self):
        with pytest.raises(ConfigError):
            plan_placement(
                cfg(512, 8),
                deterministic_rows(8),
                device=ZU7EV,
                cost_vector=CostVector(weights={"bram18": 1}),
            )

    def test_protection_expands_stored_rows(self):
        config = cfg(512, 8)
        rows = deterministic_rows(8)
        plain = plan_placement(config, rows)
        ecc = plan_placement(config, rows, protection="secded")
        assert ecc.protection == "secded"
        assert ecc.payload.units >= plain.payload.units

    def test_greedy_mode_is_legal_and_never_cheaper(self):
        config = cfg(512, 32)
        rows = deterministic_rows(32)
        exact = plan_placement(config, rows, device=ZU7EV)
        greedy = plan_placement(config, rows, device=ZU7EV, mode="greedy")
        assert greedy.storage_bits >= exact.storage_bits

    def test_render_mentions_every_fifo(self):
        plan = plan_placement(cfg(512, 8), deterministic_rows(8), device=ZU7EV)
        text = plan.render()
        for token in ("payload", "nbits", "bitmap", "line", "compressed"):
            assert token in text

    @settings(max_examples=50, deadline=None)
    @given(
        window=st.sampled_from((4, 8, 16)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        device=st.sampled_from(("XC7Z020", "ZU3EG", "ZU7EV")),
    )
    def test_placements_always_legal_property(self, window, seed, device):
        """Every placement covers its FIFO and respects unit caps."""
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 25000, size=window)
        dev = DEVICES[device]
        plan = plan_placement(cfg(512, window), rows, device=dev)
        # Payload: every group's worst-case bits fit the allocation.
        sums = rows.reshape(
            plan.payload.n_groups, plan.payload.rows_per_group
        ).sum(axis=1)
        for s, capacity in zip(sums, plan.payload.group_capacity_list()):
            assert int(s) <= capacity
        # Management FIFOs: cascade covers the declared geometry.
        for p in plan.management:
            if p.primitive is None:
                assert p.fifo.bits_each <= 1024 or p.fifo.bits_each == 0
                continue
            assert p.config.width * p.width_splits >= p.fifo.width
            assert p.config.depth * p.depth_splits >= p.fifo.depth
            if p.primitive.max_units_per_fifo is not None:
                assert (
                    p.width_splits * p.depth_splits
                    <= p.primitive.max_units_per_fifo
                )
