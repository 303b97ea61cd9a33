"""The ``probe`` suite in :mod:`repro.analysis.metrics_perf`."""

from __future__ import annotations

import pytest

from repro.analysis.bench import render_bench
from repro.analysis.metrics_perf import (
    MetricsOptions,
    measure_metrics,
    overhead_percent,
)
from repro.errors import ConfigError
from repro.observability.export import load_metrics_jsonl, parse_prometheus_names


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("probe")
    return measure_metrics(
        MetricsOptions(
            resolution=64,
            window=8,
            repeats=1,
            jsonl=out / "m.jsonl",
            prometheus=out / "m.prom",
        )
    ), out


class TestOptions:
    def test_defaults_are_the_acceptance_geometry(self):
        opt = MetricsOptions()
        assert (opt.resolution, opt.window, opt.threshold) == (256, 16, 0)
        assert opt.strategy == "fast"

    def test_validation(self):
        with pytest.raises(ConfigError, match="repeats"):
            MetricsOptions(repeats=0)
        with pytest.raises(ConfigError, match="strategy"):
            MetricsOptions(strategy="quantum")


class TestMeasure:
    def test_bit_identity_and_positive_timings(self, run):
        result, _ = run
        assert result.bit_identical
        assert result.value("overhead", "probed_ms") > 0
        assert result.value("overhead", "unprobed_ms") > 0

    def test_snapshot_feeds_stage_table(self, run):
        result, _ = run
        rendered = render_bench(result)
        # The native tier sizes a level-1 fast frame in one fused span.
        native = result.records[0].codec == "native"
        sizing = "run/size" if native else "run/transform"
        assert sizing in rendered
        assert "overhead_pct" in rendered
        assert "self_ms" in rendered
        # One frame's spans: the probe saw the warm-up and every repeat,
        # and the records divide that back out.
        assert result.value("run", "calls") == pytest.approx(1.0)
        assert result.value(sizing, "self_ms") <= result.value(sizing, "total_ms")

    def test_overhead_percent_definition(self):
        assert overhead_percent(1.0, 1.05) == pytest.approx(5.0)
        assert overhead_percent(0.0, 1.0) == 0.0

    def test_writers_produce_valid_exports(self, run):
        _, out = run
        assert len(load_metrics_jsonl(out / "m.jsonl")) > 0
        names = parse_prometheus_names((out / "m.prom").read_text())
        assert "repro_span_seconds" in names

    def test_traditional_engine_measurable(self):
        result = measure_metrics(
            MetricsOptions(
                resolution=64, window=8, strategy="traditional", repeats=1
            )
        )
        assert result.bit_identical
        assert "run/kernel" in result.cases

    def test_sequential_strategy_measurable(self):
        result = measure_metrics(
            MetricsOptions(resolution=32, window=8, strategy="sequential", repeats=1)
        )
        assert result.bit_identical
        assert result.context["strategy"] == "sequential"
