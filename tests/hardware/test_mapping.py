"""Tests for BRAM allocation rules (Tables I-V arithmetic).

Tables II-V come from the one memory plan, ``plan_placement`` on its
default XC7Z020 portfolio; every case keeps the inputs and expected
numbers of the seed RAMB18 arithmetic it replaced.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ArchitectureConfig
from repro.errors import ConfigError
from repro.hardware.mapping import traditional_bram_count
from repro.hardware.planner import plan_placement
from repro.hardware.primitives import BRAM18_COMPAT


def cfg(width, window, **kw):
    return ArchitectureConfig(
        image_width=width, image_height=width, window_size=window, **kw
    )


def rows_per_bram(rows):
    """Fig 11 option the default plan picks for worst-case ``rows``."""
    rows = np.asarray(rows)
    return plan_placement(cfg(512, rows.size), rows).rows_per_bram


def packed(window, rows):
    """``(packed BRAMs, rows per BRAM)`` of the default plan."""
    plan = plan_placement(cfg(512, window), rows)
    return plan.packed_brams, plan.rows_per_bram


def management(config):
    """NBits + BitMap BRAMs of the default plan (row sizes irrelevant)."""
    return plan_placement(config, np.zeros(config.window_size)).management_brams


class TestTraditional:
    @pytest.mark.parametrize("window", [8, 16, 32, 64, 128])
    @pytest.mark.parametrize("width", [512, 1024, 2048])
    def test_table1_one_bram_per_row(self, window, width):
        assert traditional_bram_count(cfg(width, window)) == window

    @pytest.mark.parametrize("window,expected", [(8, 16), (64, 128), (128, 256)])
    def test_table1_3840_cascades(self, window, expected):
        assert traditional_bram_count(cfg(3840, window)) == expected


class TestChooseRowsPerBram:
    def test_all_options_fit_prefers_eight(self):
        rows = np.full(8, 100)
        assert rows_per_bram(rows) == 8

    def test_tight_rows_step_down(self):
        rows = np.full(8, 5000)  # 2 rows = 10000 <= 18432, 4 rows > cap
        assert rows_per_bram(rows) == 2

    def test_single_row_fallback(self):
        rows = np.full(8, 20000)
        assert rows_per_bram(rows) == 1

    def test_group_alignment_matters(self):
        """One hot row only blocks options whose aligned group overflows."""
        rows = np.array([100] * 7 + [18000])
        # r=8: 18700 > 18432 busts; r=4: the hot group is 300+18000 <= cap.
        assert rows_per_bram(rows) == 4
        rows_hotter = np.array([100] * 7 + [18400])
        assert rows_per_bram(rows_hotter) == 1
        rows2 = np.array([2000] * 8)
        assert rows_per_bram(rows2) == 8

    def test_non_divisible_options_skipped(self):
        rows = np.full(6, 10)  # 8 does not divide 6; 2 does
        assert rows_per_bram(rows) in (2, 1)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            plan_placement(cfg(512, 8), np.array([]))


class TestPackedBramCount:
    def test_uses_rows_per_bram(self):
        count, r = packed(8, np.full(8, 2000))
        assert r == 8 and count == 1

    def test_cascade_fallback(self):
        count, r = packed(4, np.full(4, 40000))
        assert r == 1
        assert count == 4 * 3  # ceil(40000 / 18432) = 3 per row

    def test_size_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            plan_placement(cfg(512, 8), np.full(4, 10))


class TestManagementBrams:
    """These must match the paper's published management columns exactly."""

    @pytest.mark.parametrize(
        "width,window,expected",
        [
            (512, 8, 2),
            (512, 16, 2),
            (512, 32, 2),
            (512, 64, 3),
            (512, 128, 5),
            (1024, 8, 2),
            (1024, 16, 2),
            (1024, 32, 3),
            (1024, 64, 5),
            (1024, 128, 9),
            (2048, 8, 2),
            (2048, 16, 3),
            (2048, 32, 5),
            (2048, 64, 9),
            (2048, 128, 16),
            (3840, 8, 4),
            (3840, 16, 6),
        ],
    )
    def test_matches_paper_tables(self, width, window, expected):
        assert management(cfg(width, window)) == expected

    @pytest.mark.parametrize(
        "width,window,ours,paper",
        [(3840, 32, 10, 9), (3840, 64, 18, 16), (3840, 128, 32, 28)],
    )
    def test_documented_3840_deviations(self, width, window, ours, paper):
        """The paper's own formulas do not reproduce its 3840 numbers; we
        assert our arithmetic and record the delta (see EXPERIMENTS.md)."""
        got = management(cfg(width, window))
        assert got == ours
        assert got >= paper  # we never under-provision vs the paper


class TestPlan:
    def test_plan_consistency(self):
        config = cfg(512, 8)
        plan = plan_placement(config, np.full(8, 2000))
        assert plan.total_brams == plan.packed_brams + plan.management_brams
        assert plan.traditional_brams == 8
        assert plan.traditional_brams == traditional_bram_count(config)
        assert 0 < plan.bram_saving_percent < 100
        assert plan.nominal_saving_percent == 87.5
        assert "payload" in plan.render()

    def test_plan_can_show_negative_saving(self):
        config = cfg(512, 8)
        plan = plan_placement(config, np.full(8, 40000))
        assert plan.bram_saving_percent < 0


class TestPortfolioThreading:
    """The default device and explicit portfolio/device arguments."""

    def test_default_path_carries_no_placement(self):
        """No device means the XC7Z020's RAMB18-only portfolio."""
        plan = plan_placement(cfg(512, 8), np.full(8, 2000))
        assert plan.portfolio is BRAM18_COMPAT
        assert plan.payload.primitive.kind == "bram18"

    def test_compat_portfolio_is_bit_identical(self):
        config = cfg(512, 8)
        rows = np.full(8, 2000)
        default = plan_placement(config, rows)
        via = plan_placement(config, rows, portfolio=BRAM18_COMPAT)
        # The seed arithmetic's numbers: 8 rows share one BRAM, 2 mgmt.
        assert (via.packed_brams, via.rows_per_bram, via.management_brams) == (
            default.packed_brams,
            default.rows_per_bram,
            default.management_brams,
        ) == (1, 8, 2)

    def test_device_path_threads_placement(self):
        from repro.hardware.device import DEVICES

        config = cfg(512, 16)
        rows = np.full(16, 2000)
        plan = plan_placement(config, rows, device=DEVICES["ZU7EV"])
        assert plan.packed_brams == plan.payload.units
        assert plan.rows_per_bram == plan.payload.rows_per_group
        assert plan.management_brams == plan.nbits.units + plan.bitmap.units
        assert plan.traditional_brams == plan.line_buffers.units
        assert "payload" in plan.render()
