"""Tests for the ``serve`` suite (tiny geometries only)."""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import pytest

from repro.analysis.bench import (
    BENCH_SCHEMA,
    load_bench_json,
    render_bench,
    write_bench_json,
)
from repro.analysis.serve_perf import (
    ServeOptions,
    _parse_url,
    measure_serve,
    saturation,
    serve_run,
)
from repro.errors import ConfigError
from repro.serve.loadgen import LevelResult

SMOKE = ServeOptions(
    resolution=32,
    window=8,
    levels=(1, 2),
    frames_per_level=4,
    distinct_frames=2,
    workers=1,
)


@pytest.fixture(scope="module")
def smoke_run():
    """One tiny measured sweep shared by the assertions below."""
    return measure_serve(SMOKE)


def level(
    offered: int,
    *,
    completed: int = 10,
    shed: int = 0,
    errors: int = 0,
    mismatches: int = 0,
    seconds: float = 1.0,
    p50: float = 0.01,
    p99: float = 0.02,
) -> LevelResult:
    return LevelResult(
        offered=offered,
        frames=completed + shed + errors,
        completed=completed,
        shed=shed,
        errors=errors,
        mismatches=mismatches,
        seconds=seconds,
        p50_seconds=p50,
        p99_seconds=p99,
    )


def run_of(*levels: LevelResult):
    return serve_run(SMOKE, levels, codec="numpy", workers=1, warm_seconds=0.5)


def roundtrip(tmp_path, run):
    path = tmp_path / "BENCH_serve.json"
    write_bench_json(run, path)
    return load_bench_json(path)


def edited(tmp_path, run, edit):
    """Write ``run``, let ``edit`` change its JSON payload, load it back."""
    data = {
        "schema": BENCH_SCHEMA,
        "suite": run.suite,
        "cpu_count": run.cpu_count,
        "context": dict(run.context),
        "records": [asdict(r) for r in run.records],
    }
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return load_bench_json(path)


def set_value(data, case, metric, value):
    for record in data["records"]:
        if (record["case"], record["metric"]) == (case, metric):
            record["value"] = value


class TestMeasureServe:
    def test_covers_every_level(self, smoke_run):
        assert smoke_run.cases == ("offered=1", "offered=2", "sweep")
        for case in ("offered=1", "offered=2"):
            assert smoke_run.value(case, "frames") == 4
            assert sum(
                smoke_run.value(case, m) for m in ("completed", "shed", "errors")
            ) == 4

    def test_served_outputs_bit_identical(self, smoke_run):
        assert smoke_run.bit_identical
        assert smoke_run.value("offered=1", "errors") == 0
        assert smoke_run.value("offered=1", "completed") >= 1

    def test_throughput_and_quantiles(self, smoke_run):
        assert smoke_run.value("sweep", "max_sustained_frames_per_sec") > 0
        for case in ("offered=1", "offered=2"):
            if smoke_run.value(case, "completed"):
                p50 = smoke_run.value(case, "latency_ms_p50")
                assert p50 > 0
                assert smoke_run.value(case, "latency_ms_p99") >= p50

    def test_warm_up_measured(self, smoke_run):
        assert smoke_run.value("sweep", "warm_seconds") > 0
        assert {r.workers for r in smoke_run.records} == {1}
        assert smoke_run.cpu_count >= 1

    def test_render_mentions_geometry_and_saturation(self, smoke_run):
        text = render_bench(smoke_run)
        assert "32x32" in text
        assert "saturation_offered" in text
        assert "CPU core" in text


class TestSaturation:
    def test_first_shedding_level_wins(self):
        assert saturation((level(1), level(2, shed=3), level(4, shed=9))).offered == 2

    def test_flat_throughput_is_saturation(self):
        # 2 -> 4 gains only 5%: under the 10% bar, so 4 saturates.
        levels = (
            level(1, seconds=1.0),
            level(2, seconds=0.5),
            level(4, completed=21, seconds=1.0),
        )
        assert saturation(levels).offered == 4

    def test_never_saturated_returns_last(self):
        levels = (
            level(1, seconds=1.0),
            level(2, seconds=0.5),
            level(4, seconds=0.25),
        )
        assert saturation(levels).offered == 4
        run = run_of(*levels)
        assert run.value("sweep", "max_sustained_frames_per_sec") == (
            pytest.approx(40.0)
        )

    def test_bit_identical_needs_completions_and_no_mismatches(self, tmp_path):
        assert not run_of(level(1, mismatches=1)).bit_identical
        assert run_of(level(1)).bit_identical
        with pytest.raises(ConfigError, match="completed"):
            roundtrip(tmp_path, run_of(level(1, completed=0, shed=10)))

    def test_invalid_options_rejected(self):
        with pytest.raises(ConfigError):
            ServeOptions(levels=())
        with pytest.raises(ConfigError):
            ServeOptions(levels=(1, 0))
        with pytest.raises(ConfigError):
            ServeOptions(frames_per_level=0)
        with pytest.raises(ConfigError):
            ServeOptions(distinct_frames=0)


class TestParseUrl:
    def test_host_and_port(self):
        assert _parse_url("http://127.0.0.1:8080") == ("127.0.0.1", 8080)
        assert _parse_url("localhost:9000") == ("localhost", 9000)

    def test_missing_port_rejected(self):
        with pytest.raises(ConfigError):
            _parse_url("http://localhost")


class TestServeJson:
    def test_roundtrip_and_schema(self, smoke_run, tmp_path):
        loaded = roundtrip(tmp_path, smoke_run)
        assert loaded == smoke_run
        assert {r.width for r in loaded.records} == {32}
        assert loaded.bit_identical

    def test_nan_quantiles_serialise_as_null(self, tmp_path):
        run = run_of(
            level(1),
            level(2, completed=0, shed=4, p50=math.nan, p99=math.nan),
        )
        path = tmp_path / "nan.json"
        write_bench_json(run, path)
        quantiles = [
            r["value"]
            for r in json.loads(path.read_text())["records"]
            if r["case"] == "offered=2" and r["metric"].startswith("latency")
        ]
        assert quantiles == [None, None]
        load_bench_json(path)

    def test_load_rejects_wrong_schema(self, smoke_run, tmp_path):
        def edit(data):
            data["schema"] = "repro-serve/1"

        with pytest.raises(ConfigError, match="repro-serve/1"):
            edited(tmp_path, smoke_run, edit)

    def test_load_rejects_missing_section(self, smoke_run, tmp_path):
        with pytest.raises(ConfigError, match="records"):
            edited(tmp_path, smoke_run, lambda data: data.pop("records"))

    def test_load_rejects_empty_levels(self, smoke_run, tmp_path):
        def edit(data):
            data["records"] = []

        with pytest.raises(ConfigError, match="no records"):
            edited(tmp_path, smoke_run, edit)

    def test_load_rejects_inverted_quantiles(self, smoke_run, tmp_path):
        def edit(data):
            set_value(data, "offered=1", "latency_ms_p50", 2.0)
            set_value(data, "offered=1", "latency_ms_p99", 1.0)

        with pytest.raises(ConfigError, match="p99"):
            edited(tmp_path, smoke_run, edit)

    def test_load_rejects_zero_completed(self, smoke_run, tmp_path):
        def edit(data):
            set_value(data, "offered=1", "completed", 0)
            set_value(data, "offered=2", "completed", 0)

        with pytest.raises(ConfigError, match="completed"):
            edited(tmp_path, smoke_run, edit)

    def test_load_rejects_request_errors(self, smoke_run, tmp_path):
        with pytest.raises(ConfigError, match="errors"):
            edited(
                tmp_path,
                smoke_run,
                lambda data: set_value(data, "offered=2", "errors", 1),
            )

    def test_load_rejects_non_bit_identical_sweep(self, smoke_run, tmp_path):
        def edit(data):
            data["records"][0]["bit_identical"] = False

        with pytest.raises(ConfigError, match="bit-identical"):
            edited(tmp_path, smoke_run, edit)
