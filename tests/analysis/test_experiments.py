"""Tests for the experiment registry (small geometries for speed)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import experiments as ex
from repro.errors import ConfigError


class TestFig3:
    def test_trace_consistency(self):
        result = ex.fig3_memory_trace(resolution=128, window=16)
        assert result.positions.size == 128
        total = sum(result.subband_kbits.values()) + result.management_kbits
        assert np.allclose(total, result.total_kbits)
        assert result.peak_total_kbits > 0
        assert "Fig 3" in result.render()

    def test_ll_dominates_details(self):
        """Fig 3's headline observation: LL needs the most storage."""
        result = ex.fig3_memory_trace(resolution=128, window=16)
        ll_peak = result.subband_kbits["LL"].max()
        for name in ("LH", "HL", "HH"):
            assert ll_peak > result.subband_kbits[name].max()

    def test_bad_traversal_row_rejected(self):
        with pytest.raises(ConfigError):
            ex.fig3_memory_trace(resolution=128, window=16, traversal_row=4)


class TestFig13:
    def test_sweep_structure(self):
        result = ex.fig13_memory_savings(
            resolution=128,
            windows=(8, 16),
            thresholds=(0, 6),
            n_images=3,
            processes=1,
        )
        assert set(result.savings) == {(8, 0), (8, 6), (16, 0), (16, 6)}
        assert "±" in result.render()

    def test_threshold_monotonicity_of_means(self):
        result = ex.fig13_memory_savings(
            resolution=128,
            windows=(16,),
            thresholds=(0, 2, 4, 6),
            n_images=3,
            processes=1,
        )
        means = [result.savings[(16, t)].mean for t in (0, 2, 4, 6)]
        assert means == sorted(means)


class TestTables:
    def test_table1_matches_paper_exactly(self):
        result = ex.table1_traditional_brams()
        paper = {
            (8, 512): 8, (8, 3840): 16,
            (32, 2048): 32, (32, 3840): 64,
            (128, 512): 128, (128, 3840): 256,
        }
        for key, value in paper.items():
            assert result.counts[key] == value
        assert "Table I" in result.render()

    def test_bram_table_structure(self):
        result = ex.bram_table(
            128, windows=(8, 16), thresholds=(0, 6), n_images=2, processes=1
        )
        plan = result.plans[(8, 0)]
        assert plan.packed_brams >= 1
        assert plan.management_brams >= 2
        assert "mgmt" in result.render()

    def test_saving_grows_with_threshold(self):
        result = ex.bram_table(
            256, windows=(16,), thresholds=(0, 6), n_images=2, processes=1
        )
        assert (
            result.plans[(16, 6)].packed_brams <= result.plans[(16, 0)].packed_brams
        )


class TestResourceTables:
    @pytest.mark.parametrize(
        "module", ["iwt", "bit_packing", "bit_unpacking", "iiwt", "overall"]
    )
    def test_render_contains_anchor_values(self, module):
        result = ex.resource_table(module)
        out = result.render()
        assert "LUTs" in out

    def test_overall_window_128_flagged(self):
        out = ex.resource_table("overall").render()
        assert "exceeds device" in out

    def test_unknown_module_rejected(self):
        with pytest.raises(ConfigError):
            ex.resource_table("alu")


class TestMse:
    def test_sweep_monotone(self):
        result = ex.mse_vs_threshold(
            resolution=128, window=16, thresholds=(2, 4, 6), n_images=2, processes=1
        )
        means = [result.single_pass[t].mean for t in (2, 4, 6)]
        assert means == sorted(means)
        assert means[0] > 0.0
        assert "paper" in result.render()

    def test_recirculated_at_least_single_pass(self):
        result = ex.mse_vs_threshold(
            resolution=128,
            window=16,
            thresholds=(4,),
            n_images=2,
            include_recirculated=True,
            processes=1,
        )
        assert result.recirculated is not None
        assert result.recirculated[4].mean >= result.single_pass[4].mean * 0.99

    def test_lossless_reconstructions_exact(self):
        from repro import ArchitectureConfig, CompressedEngine
        from repro.kernels import BoxFilterKernel
        from repro.imaging import benchmark_dataset

        img = benchmark_dataset(128, n_images=1)[0].astype(np.int64)
        config = ArchitectureConfig(image_width=128, image_height=128, window_size=16)
        assert np.array_equal(ex.reconstruct_single_pass(config, img), img)
        recirculated = CompressedEngine(config, BoxFilterKernel(16)).run(img)
        assert np.array_equal(recirculated.reconstruction, img)

    def test_recirculated_mse_pinned(self):
        """The engine's recirculating loop gives the column's pinned values."""
        result = ex.mse_vs_threshold(
            resolution=64,
            window=8,
            thresholds=(2, 6),
            n_images=2,
            include_recirculated=True,
            processes=1,
        )
        assert result.recirculated is not None
        assert result.recirculated[2].mean == 1.1802978515625
        assert result.recirculated[6].mean == 8.0989990234375


class TestHeadline:
    def test_small_geometry_structure(self):
        result = ex.headline_claims(
            widths=(128,),
            windows=(8, 16),
            thresholds=(0, 6),
            n_images=2,
            processes=1,
        )
        assert len(result.rows) == 2
        for width, n, lossless, lossy, at_t in result.rows:
            assert width == 128
            assert lossy >= lossless
            assert at_t in (0, 6)
        lo, hi = result.lossless_range
        assert lo <= hi
        assert "BRAM" in result.render()

    def test_mse_gate_recorded(self):
        result = ex.headline_claims(
            widths=(128,),
            windows=(8,),
            thresholds=(0, 4),
            n_images=2,
            processes=1,
        )
        assert result.mse_by_width[(128, 0)] == 0.0
        assert result.mse_by_width[(128, 4)] > 0.0


class TestFig11:
    def test_nominal_ladder(self):
        result = ex.fig11_mapping_options()
        savings = {r: s for r, s, _ in result.rows}
        assert savings[1] == 0.0
        assert savings[2] == 50.0
        assert savings[4] == 75.0
        assert savings[8] == 87.5


class TestAblations:
    def test_wavelet_ablation_has_all_variants(self):
        result = ex.ablation_wavelets(resolution=128, n_images=1)
        names = {r[0] for r in result.rows}
        assert names == {"haar", "legall53", "cdf97int"}

    def test_levels_ablation_monotone_modest(self):
        result = ex.ablation_levels(resolution=128, n_images=1, levels=(1, 2))
        bpp = {r[0]: r[1] for r in result.rows}
        # More levels compress at least slightly better, but modestly —
        # the paper's justification for a single level.
        assert bpp["2 level(s)"] <= bpp["1 level(s)"]
        assert bpp["2 level(s)"] > 0.5 * bpp["1 level(s)"]

    def test_nbits_granularity_tradeoff(self):
        result = ex.ablation_nbits_granularity(resolution=128, n_images=1)
        totals = {r[0]: r[1] for r in result.rows}
        assert len(totals) == 3
        # Per-sub-band NBits has the least management but worst packing;
        # per-column should beat it overall on natural images.
        assert totals["per-column (paper)"] < totals["per-sub-band"]


class TestThroughput:
    def test_both_engines_fully_pipelined(self):
        result = ex.throughput_experiment(resolution=64, window=8)
        rows = {r[0]: r for r in result.rows}
        assert rows["traditional"][4] < 1.4
        assert rows["compressed"][4] < 1.4
        assert rows["traditional"][3] == rows["compressed"][3]  # same outputs
