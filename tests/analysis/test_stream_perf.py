"""Tests for the ``stream`` suite (tiny geometries only)."""

from __future__ import annotations

import json
from dataclasses import asdict, replace

import pytest

from repro.analysis.bench import (
    BENCH_SCHEMA,
    load_bench_json,
    render_bench,
    write_bench_json,
)
from repro.analysis.stream_perf import StreamOptions, measure_stream, scaling_gated
from repro.errors import ConfigError

SMOKE = StreamOptions(resolution=32, window=8, frames=3, worker_counts=(1, 2))


@pytest.fixture(scope="module")
def smoke_run():
    """One tiny measured run shared by the assertions below."""
    return measure_stream(SMOKE)


def payload(run) -> dict:
    return {
        "schema": BENCH_SCHEMA,
        "suite": run.suite,
        "cpu_count": run.cpu_count,
        "context": dict(run.context),
        "records": [asdict(r) for r in run.records],
    }


def load_payload(tmp_path, data):
    path = tmp_path / "BENCH_stream.json"
    path.write_text(json.dumps(data))
    return load_bench_json(path)


class TestMeasureStream:
    def test_covers_every_worker_count(self, smoke_run):
        assert smoke_run.cases == ("single-process", "workers=1", "workers=2")
        assert {r.workers for r in smoke_run.records} == {0, 1, 2}
        for case in ("workers=1", "workers=2"):
            assert smoke_run.value(case, "frames_per_sec") > 0

    def test_streamed_outputs_bit_identical(self, smoke_run):
        assert smoke_run.bit_identical

    def test_baseline_throughput(self, smoke_run):
        assert smoke_run.value("single-process", "frames_per_sec") > 0
        assert smoke_run.value("single-process", "seconds") > 0
        assert smoke_run.cpu_count >= 1

    def test_speedup_definition(self, smoke_run):
        base = smoke_run.value("single-process", "frames_per_sec")
        fps = smoke_run.value("workers=1", "frames_per_sec")
        assert smoke_run.value("workers=1", "speedup_vs_single_process") == (
            pytest.approx(fps / base)
        )

    def test_missing_worker_count_raises(self, smoke_run):
        with pytest.raises(ConfigError, match="workers=64"):
            smoke_run.value("workers=64", "frames_per_sec")

    def test_render_mentions_modes_and_geometry(self, smoke_run):
        text = render_bench(smoke_run)
        assert "single-process" in text
        assert "workers=2" in text
        assert "32x32" in text
        assert "CPU core" in text

    def test_scaling_gated_recorded(self, smoke_run):
        """A sweep that never measured 4 workers is always gated — the
        >=3x bar cannot have applied, whatever the core count."""
        assert smoke_run.context["scaling_gated"] is True

    def test_scaling_gated_false_needs_cores_and_a_4_worker_pass(
        self, monkeypatch
    ):
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        assert scaling_gated((1, 2, 4)) is False
        assert scaling_gated((1, 2)) is True
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert scaling_gated((1, 2, 4)) is True

    def test_invalid_options_rejected(self):
        with pytest.raises(ConfigError):
            StreamOptions(frames=0)
        with pytest.raises(ConfigError):
            StreamOptions(worker_counts=())
        with pytest.raises(ConfigError):
            StreamOptions(worker_counts=(1, 0))


class TestStreamJson:
    def test_roundtrip_and_schema(self, smoke_run, tmp_path):
        path = tmp_path / "BENCH_stream.json"
        write_bench_json(smoke_run, path)
        assert json.loads(path.read_text())["schema"] == BENCH_SCHEMA
        loaded = load_bench_json(path)
        assert loaded == smoke_run
        assert loaded.context["frames"] == 3
        assert {r.window for r in loaded.records} == {8}

    def test_json_records_scaling_gated(self, smoke_run, tmp_path):
        path = tmp_path / "BENCH_stream.json"
        write_bench_json(smoke_run, path)
        assert load_bench_json(path).context["scaling_gated"] is True

    def test_load_rejects_missing_scaling_gated(self, smoke_run, tmp_path):
        data = payload(smoke_run)
        del data["context"]["scaling_gated"]
        with pytest.raises(ConfigError, match="scaling_gated"):
            load_payload(tmp_path, data)

    def test_load_rejects_non_bool_scaling_gated(self, smoke_run, tmp_path):
        data = payload(smoke_run)
        data["context"]["scaling_gated"] = "yes"
        with pytest.raises(ConfigError, match="scaling_gated"):
            load_payload(tmp_path, data)

    def test_load_rejects_wrong_schema(self, tmp_path):
        with pytest.raises(ConfigError, match="schema"):
            load_payload(tmp_path, {"schema": "nope"})

    def test_load_rejects_missing_section(self, smoke_run, tmp_path):
        data = payload(smoke_run)
        del data["context"]
        with pytest.raises(ConfigError, match="context"):
            load_payload(tmp_path, data)

    def test_load_rejects_empty_scaling(self, smoke_run, tmp_path):
        data = payload(smoke_run)
        data["records"] = []
        with pytest.raises(ConfigError, match="no records"):
            load_payload(tmp_path, data)

    def test_load_rejects_non_bit_identical_pass(self, smoke_run, tmp_path):
        lossy = replace(smoke_run.records[-1], bit_identical=False)
        path = tmp_path / "lossy.json"
        write_bench_json(
            replace(smoke_run, records=(*smoke_run.records[:-1], lossy)), path
        )
        with pytest.raises(ConfigError, match="bit-identical"):
            load_bench_json(path)

    def test_sample_throughput_definition(self, smoke_run):
        for case in smoke_run.cases:
            seconds = smoke_run.value(case, "seconds")
            fps = smoke_run.value(case, "frames_per_sec")
            assert fps == pytest.approx(3 / seconds)
