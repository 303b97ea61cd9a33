"""Tests for the cross-engine validation harness."""

from __future__ import annotations

import pytest

from repro import ArchitectureConfig
from repro.analysis.validation import validate_engines
from repro.kernels import BoxFilterKernel

from helpers import random_image

#: Cross-checks include the register-level cycle engines.
pytestmark = pytest.mark.slow


def cfg(**kw):
    defaults = dict(image_width=16, image_height=16, window_size=4)
    defaults.update(kw)
    return ArchitectureConfig(**defaults)


class TestValidateEngines:
    def test_lossless_all_consistent(self, rng):
        img = random_image(rng, 16, 16)
        report = validate_engines(cfg(), img, BoxFilterKernel(4))
        assert report.all_consistent
        names = {c.name for c in report.comparisons}
        assert "compressed (register-level)" in names
        assert "traditional (cycle)" in names
        assert all(c.max_output_delta == 0.0 for c in report.comparisons)

    def test_lossy_paths_agree(self, rng):
        img = random_image(rng, 16, 16, smooth=True)
        report = validate_engines(cfg(threshold=4), img, BoxFilterKernel(4))
        assert report.all_consistent
        names = {c.name for c in report.comparisons}
        assert "traditional (analytic)" not in names  # skipped for lossy

    def test_without_cycle_engines(self, rng):
        img = random_image(rng, 16, 16)
        report = validate_engines(
            cfg(), img, BoxFilterKernel(4), include_cycle_engines=False
        )
        assert report.all_consistent
        assert len(report.comparisons) == 3

    def test_render(self, rng):
        img = random_image(rng, 16, 16)
        out = validate_engines(cfg(), img, BoxFilterKernel(4)).render()
        assert "OK" in out and "MISMATCH" not in out

    @pytest.mark.parametrize("threshold", [0, 4])
    def test_window_six_consistent(self, threshold):
        """N=6 outputs match exactly (no float summation-order drift)."""
        from repro.imaging import generate_scene

        config = cfg(
            image_width=24, image_height=24, window_size=6, threshold=threshold
        )
        img = generate_scene(seed=1, resolution=24)
        report = validate_engines(config, img, BoxFilterKernel(6))
        assert report.all_consistent, report.render()

    def test_render_shows_nonzero_delta(self):
        from repro.analysis.validation import EngineComparison, ValidationReport

        report = ValidationReport(
            config=cfg(),
            comparisons=(EngineComparison("x", False, 5.7e-14),),
        )
        assert "5.70e-14" in report.render()

    def test_wrapped_datapath_consistent(self, rng):
        img = random_image(rng, 16, 16)
        config = cfg(coefficient_bits=8, wrap_coefficients=True)
        report = validate_engines(config, img, BoxFilterKernel(4))
        assert report.all_consistent
