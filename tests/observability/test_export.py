"""Exporter round-trips: JSON-lines schema and Prometheus text format.

``load_metrics_jsonl`` is the same validator the probe row of the CI bench job
runs, so these tests double as the schema's specification: every record
self-describes, histograms carry consistent bucket counts, and malformed
files fail loudly with the offending line number.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.observability.export import (
    METRICS_SCHEMA,
    load_metrics_jsonl,
    parse_prometheus_names,
    snapshot_records,
    stage_table,
    write_metrics_jsonl,
    write_prometheus,
)
from repro.observability.metrics import SMALL_INT_BUCKETS, MetricsRegistry
from repro.observability.probe import MetricsProbe


def sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("repro_frames_total", {"engine": "compressed"}).inc(3)
    reg.gauge("repro_fifo_peak_bits", {"fifo": "hl"}).set_max(1234)
    reg.histogram(
        "repro_band_nbits", buckets=SMALL_INT_BUCKETS
    ).observe_many(np.array([1, 2, 2, 9, 30]))
    return reg


class TestJsonl:
    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        n = write_metrics_jsonl(sample_registry(), path)
        records = load_metrics_jsonl(path)
        assert len(records) == n == 3
        assert {r["type"] for r in records} == {"counter", "gauge", "histogram"}
        assert all(r["schema"] == METRICS_SCHEMA for r in records)
        hist = next(r for r in records if r["type"] == "histogram")
        assert sum(hist["bucket_counts"]) == hist["count"] == 5
        assert len(hist["bucket_counts"]) == len(hist["buckets"]) + 1

    def test_snapshot_and_registry_write_identically(self, tmp_path):
        reg = sample_registry()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_metrics_jsonl(reg, a)
        write_metrics_jsonl(reg.snapshot(), b)
        assert a.read_text() == b.read_text()

    def test_validator_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "other/9", "type": "counter", "name": "x", "value": 1}\n')
        with pytest.raises(ConfigError, match="schema"):
            load_metrics_jsonl(path)

    def test_validator_rejects_inconsistent_histogram(self, tmp_path):
        record = {
            "schema": METRICS_SCHEMA,
            "type": "histogram",
            "name": "h",
            "labels": {},
            "buckets": [1.0, 2.0],
            "bucket_counts": [1, 1, 1],
            "sum": 3.0,
            "count": 99,  # != sum(bucket_counts)
        }
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ConfigError, match="count says 99"):
            load_metrics_jsonl(path)

    def test_validator_rejects_empty_and_non_json(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        with pytest.raises(ConfigError, match="no metric records"):
            load_metrics_jsonl(empty)
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not json\n")
        with pytest.raises(ConfigError, match="not JSON"):
            load_metrics_jsonl(garbage)

    def test_records_are_plain_json(self):
        for record in snapshot_records(sample_registry().snapshot()):
            json.dumps(record)  # no numpy scalars anywhere


class TestPrometheus:
    def test_families_and_series(self, tmp_path):
        path = tmp_path / "metrics.prom"
        text = write_prometheus(sample_registry(), path)
        assert path.read_text() == text
        assert parse_prometheus_names(text) == {
            "repro_frames_total",
            "repro_fifo_peak_bits",
            "repro_band_nbits",
        }
        assert 'repro_frames_total{engine="compressed"} 3.0' in text
        assert 'repro_band_nbits_bucket{le="+Inf"} 5' in text
        assert "repro_band_nbits_count 5" in text

    def test_buckets_are_cumulative_and_end_at_count(self):
        text = write_prometheus(sample_registry().snapshot())
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_band_nbits_bucket")
        ]
        assert counts == sorted(counts)  # cumulative => monotone
        assert counts[-1] == 5  # +Inf bucket covers every sample

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c", {"path": 'we"ird\\nam\ne'}).inc(1)
        text = write_prometheus(reg)
        assert r'path="we\"ird\\nam\ne"' in text

    def test_infinite_gauge_value(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(math.inf)
        assert "g +Inf" in write_prometheus(reg)

    def test_help_text_rides_along(self):
        reg = MetricsRegistry()
        reg.counter("c", help="how many")
        assert "# HELP c how many" in write_prometheus(reg)


class TestStageTable:
    def test_rows_sorted_by_total_desc(self):
        probe = MetricsProbe()
        with probe.span("run"):
            with probe.span("slow"):
                for _ in range(100_000):
                    pass
            with probe.span("fastest"):
                pass
        rows = stage_table(probe.snapshot())
        paths = [r.path for r in rows]
        assert paths[0] == "run"  # outermost contains everything
        assert set(paths) == {"run", "run/slow", "run/fastest"}
        totals = [r.total_seconds for r in rows]
        assert totals == sorted(totals, reverse=True)
        assert all(r.calls == 1 for r in rows)

    def test_self_time_is_total_minus_direct_children(self):
        def span(path, count, seconds):
            return {
                "name": "repro_span_seconds",
                "labels": {"span": path},
                "count": count,
                "sum": seconds,
            }

        snapshot = {
            "histograms": [
                span("run", 2, 10.0),
                span("run/pack", 2, 3.0),
                span("run/pack/bits", 4, 2.5),
                span("run/kernel", 1, 4.0),
                # A second series of one path (other labels) is summed.
                span("run/kernel", 1, 1.0),
            ]
        }
        rows = {r.path: r for r in stage_table(snapshot)}
        assert rows["run"].self_seconds == pytest.approx(10.0 - 3.0 - 5.0)
        assert rows["run/pack"].self_seconds == pytest.approx(0.5)
        assert rows["run/pack/bits"].self_seconds == pytest.approx(2.5)
        assert rows["run/kernel"].calls == 2
        assert rows["run/kernel"].total_seconds == pytest.approx(5.0)

    def test_empty_snapshot_gives_no_rows(self):
        assert stage_table(MetricsRegistry()) == []
