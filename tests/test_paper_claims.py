"""Integration tests pinning the paper's quantitative claims (small scale).

The full-geometry reproduction lives in ``benchmarks/``; these tests run
the same code paths at reduced geometry so the claims stay guarded by the
fast suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ArchitectureConfig, CompressedEngine, TraditionalEngine, analyze_image
from repro.analysis.experiments import (
    reconstruct_single_pass,
    table1_traditional_brams,
)
from repro.hardware.mapping import traditional_bram_count
from repro.hardware.planner import plan_placement
from repro.hardware.resources import BLOCK_ANCHORS, ResourceModel
from repro.imaging import benchmark_dataset, mse
from repro.kernels import BoxFilterKernel


class TestSection3:
    def test_worked_example_memory(self):
        """Section III: a 120x120 window at 2048x2048x24bpp needs ~5,422 Kb,
        exceeding the XC7Z020's 5,018 Kb."""
        bits = (2048 - 120) * 120 * 24
        assert bits / 1024 == pytest.approx(5422, rel=0.01)
        from repro.hardware.device import XC7Z020

        assert bits > XC7Z020.bram_bits

    def test_fig1_fifo_geometry(self):
        """(N-1) FIFOs of depth (W-N)."""
        cfg = ArchitectureConfig(image_width=512, image_height=512, window_size=64)
        assert cfg.fifo_count == 63
        assert cfg.buffered_columns == 448


class TestSection4:
    def test_fig2_column_nbits(self):
        """Fig 2: the HL column 13, 12, -9, 7 needs NBits = 5."""
        from repro.core.packing.nbits import min_bits_signed

        assert min_bits_signed(np.array([13, 12, -9, 7])) == 5

    def test_fig3_scale_totals(self):
        """64x64 window over 512x512: management = 32 Kbits; traditional
        ~230 Kbits; compressed total beats traditional on suite images."""
        cfg = ArchitectureConfig(image_width=512, image_height=512, window_size=64)
        assert cfg.management_total_bits / 1024 == pytest.approx(31.5, abs=1.0)
        img = benchmark_dataset(512, n_images=1)[0].astype(np.int64)
        report = analyze_image(cfg, img)
        traditional_kbits = cfg.traditional_buffer_bits / 1024
        assert traditional_kbits == pytest.approx(220.5, abs=1.0)
        assert report.peak_buffer_bits < cfg.traditional_buffer_bits


class TestSection6Claims:
    def test_lossless_equivalence_headline(self):
        """'Fully pipelined ... without any degradation' + lossless exact."""
        cfg = ArchitectureConfig(image_width=64, image_height=64, window_size=8)
        img = benchmark_dataset(64, n_images=1)[0].astype(np.int64)
        kernel = BoxFilterKernel(8)
        comp = CompressedEngine(cfg, kernel).run(img)
        trad = TraditionalEngine(cfg, kernel).run(img)
        assert np.allclose(comp.outputs, trad.outputs)
        assert comp.stats.cycles_per_output == trad.stats.cycles_per_output

    def test_mse_ordering_against_paper(self):
        """T=2/4/6 -> MSE 0.59/3.2/4.8 in the paper; we assert the order of
        magnitude and monotonicity at reduced resolution."""
        img = benchmark_dataset(256, n_images=1)[0]
        errs = []
        for t in (2, 4, 6):
            cfg = ArchitectureConfig(
                image_width=256, image_height=256, window_size=32, threshold=t
            )
            rec = reconstruct_single_pass(cfg, img.astype(np.int64))
            errs.append(mse(img, rec))
        assert errs == sorted(errs)
        assert 0.01 < errs[0] < 2.0
        assert errs[2] < 12.0

    def test_threshold_increases_saving_everywhere(self):
        img = benchmark_dataset(256, n_images=1)[0].astype(np.int64)
        for n in (8, 32):
            savings = []
            for t in (0, 2, 4, 6):
                cfg = ArchitectureConfig(
                    image_width=256, image_height=256, window_size=n, threshold=t
                )
                savings.append(analyze_image(cfg, img).memory_saving_percent)
            assert savings == sorted(savings)


class TestTablesPinned:
    def test_table1_exact(self):
        result = table1_traditional_brams()
        assert result.counts[(64, 2048)] == 64
        assert result.counts[(128, 3840)] == 256

    def test_management_columns_exact_512(self):
        for n, expected in ((8, 2), (16, 2), (32, 2), (64, 3), (128, 5)):
            cfg = ArchitectureConfig(image_width=512, image_height=512, window_size=n)
            plan = plan_placement(cfg, np.zeros(n))
            assert plan.management_brams == expected

    def test_best_lossy_claim_geometry(self):
        """The 84 % abstract claim: window 128 @ 512, 21 vs 128 BRAMs."""
        cfg = ArchitectureConfig(
            image_width=512, image_height=512, window_size=128, threshold=6
        )
        assert traditional_bram_count(cfg) == 128
        plan = plan_placement(cfg, np.zeros(128))
        assert plan.traditional_brams == 128
        assert plan.management_brams == 5
        # 16 packed BRAMs (8 rows per BRAM) + 5 management = 21.
        assert (1 - 21 / 128) * 100 == pytest.approx(83.6, abs=0.1)

    def test_resource_anchors_are_paper_values(self):
        model = ResourceModel()
        assert model.estimate("bit_unpacking", 128).luts == 31660
        assert model.overall(16).registers == 2792
        assert set(BLOCK_ANCHORS) == {
            "iwt",
            "bit_packing",
            "bit_unpacking",
            "iiwt",
            "overall",
        }
