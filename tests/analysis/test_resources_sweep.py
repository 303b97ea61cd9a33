"""Tests for the device-portfolio resource sweep and its JSON schema."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.analysis.resources import (
    RESOURCES_SCHEMA,
    ResourcesOptions,
    load_resources_json,
    measure_resources,
    write_resources_json,
)
from repro.imaging.dataset import benchmark_dataset


@pytest.fixture(scope="module")
def small_images():
    return benchmark_dataset(128, n_images=2)


def small_options(device="XC7Z020", **kw):
    return ResourcesOptions(
        device=device, width=128, windows=(8, 16), n_images=2, **kw
    )


class TestOptions:
    def test_unknown_device_rejected(self):
        with pytest.raises(ConfigError):
            ResourcesOptions(device="XC9999")

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            ResourcesOptions(mode="simulated-annealing")

    def test_bad_windows_rejected(self):
        with pytest.raises(ConfigError):
            ResourcesOptions(windows=())


class TestMeasure:
    def test_7series_placement_equals_compat_counts(self, small_images):
        """On the paper's device both accounting models agree exactly."""
        report = measure_resources(small_options(), images=small_images)
        for p in report.points:
            assert p.placement.payload.units == p.compat.packed_brams
            assert (
                p.placement.payload.rows_per_group == p.compat.rows_per_bram
            )
            assert (
                p.placement.nbits.units + p.placement.bitmap.units
                == p.compat.management_brams
            )
            assert sum(p.placement.unit_counts().values()) == (
                p.compat.total_brams
            )

    def test_ultrascale_beats_or_matches_compat_bits(self, small_images):
        seven = measure_resources(small_options(), images=small_images)
        ultra = measure_resources(
            small_options(device="ZU7EV"), images=small_images
        )
        for n in (8, 16):
            assert (
                ultra.point(n).placement.storage_bits
                <= seven.point(n).placement.storage_bits
            )

    def test_render_contains_table_and_details(self, small_images):
        report = measure_resources(small_options(), images=small_images)
        text = report.render()
        assert "Memory placement on XC7Z020" in text
        assert "placement —" in text

    def test_compat_counts_are_device_independent(self, small_images):
        """The compat block never changes with the target device."""
        a = measure_resources(small_options(), images=small_images)
        b = measure_resources(
            small_options(device="ZU7EV"), images=small_images
        )
        for n in (8, 16):
            assert (
                a.point(n).compat.total_brams == b.point(n).compat.total_brams
            )


class TestJsonSchema:
    def test_roundtrip_validates(self, tmp_path, small_images):
        report = measure_resources(
            small_options(device="ZU7EV"), images=small_images
        )
        out = tmp_path / "resources.json"
        write_resources_json(report, out)
        payload = load_resources_json(out)
        assert payload["schema"] == RESOURCES_SCHEMA
        assert payload["device"]["name"] == "ZU7EV"
        assert len(payload["points"]) == 2
        assert all(pt["fits"] for pt in payload["points"])

    def test_wrong_schema_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "repro-resources/0"}))
        with pytest.raises(ConfigError):
            load_resources_json(bad)

    def test_missing_point_key_rejected(self, tmp_path, small_images):
        report = measure_resources(small_options(), images=small_images)
        payload = report.to_json_dict()
        del payload["points"][0]["compat"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            load_resources_json(bad)

    def test_inconsistent_compat_totals_rejected(self, tmp_path, small_images):
        report = measure_resources(small_options(), images=small_images)
        payload = report.to_json_dict()
        payload["points"][0]["compat"]["total_brams"] += 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            load_resources_json(bad)

    def test_empty_points_rejected(self, tmp_path, small_images):
        report = measure_resources(small_options(), images=small_images)
        payload = report.to_json_dict()
        payload["points"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            load_resources_json(bad)


class TestSavingArithmetic:
    def test_saving_percent_matches_bits(self, small_images):
        report = measure_resources(small_options(), images=small_images)
        p = report.point(8)
        expected = (
            100.0
            * p.placement.storage_saving_bits
            / p.placement.traditional_storage_bits
        )
        assert p.saving_percent == pytest.approx(expected)

    def test_worst_rows_reduce_over_suite(self, small_images):
        """The plan provisions for the element-wise max across images."""
        from repro.config import ArchitectureConfig
        from repro.core.stats import analyze_image

        config = ArchitectureConfig(
            image_width=128, image_height=128, window_size=8, threshold=0
        )
        per_image = [
            analyze_image(config, img).row_bits_worst for img in small_images
        ]
        worst = np.maximum.reduce(per_image)
        report = measure_resources(small_options(), images=small_images)
        from repro.hardware.planner import plan_placement

        plan = plan_placement(config, worst)
        assert report.point(8).compat.packed_brams == plan.packed_brams
