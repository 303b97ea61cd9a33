"""The shared bench harness: record, ``repro-bench/1`` file, timer, renderer.

Suite-specific rejections (lost frames, leaked slots, inverted
quantiles, zero completed, ...) are tested next to each suite; this
module covers what every file shares.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro.analysis.bench import (
    BENCH_SCHEMA,
    SUITE_MODULES,
    BenchRun,
    best_of,
    case_records,
    load_bench_json,
    render_bench,
    suite,
    write_bench_json,
)
from repro.errors import ConfigError

FIXTURE = Path(__file__).parent / "data" / "bench_serve_v1.json"
ROOT = Path(__file__).parent.parent.parent


def make_run(suite_name: str = "probe", **metrics: float | None) -> BenchRun:
    readings = metrics or {"probed_ms": 1.5, "unprobed_ms": 1.25}
    return BenchRun(
        suite=suite_name,
        records=tuple(
            case_records(
                suite_name,
                "case-a",
                resolution=32,
                window=8,
                threshold=0,
                codec="numpy",
                workers=0,
                bit_identical=True,
                metrics=[(m, v, "ms") for m, v in readings.items()],
            )
        ),
        context={"strategy": "fast"},
        cpu_count=3,
    )


def write_payload(tmp_path: Path, payload: dict) -> Path:
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(payload))
    return path


def payload_of(run: BenchRun) -> dict:
    return {
        "schema": BENCH_SCHEMA,
        "suite": run.suite,
        "cpu_count": run.cpu_count,
        "context": run.context,
        "records": [asdict(r) for r in run.records],
    }


class TestFile:
    def test_roundtrip_is_exact(self, tmp_path):
        run = make_run()
        path = tmp_path / "BENCH_probe.json"
        write_bench_json(run, path)
        assert json.loads(path.read_text())["schema"] == BENCH_SCHEMA
        assert load_bench_json(path) == run

    def test_frozen_fixture_keeps_loading(self):
        run = load_bench_json(FIXTURE)
        assert run.suite == "serve"
        assert run.cpu_count == 2
        assert run.value("offered=1", "latency_ms_p99") == pytest.approx(7.65)
        assert run.value("offered=2", "latency_ms_p50") is None
        assert run.cases == ("offered=1", "offered=2", "sweep")

    @pytest.mark.parametrize("name", ["perf", "stream", "serve", "chaos"])
    def test_committed_bench_files_load(self, name):
        run = load_bench_json(ROOT / f"BENCH_{name}.json")
        assert run.suite == name
        assert run.bit_identical

    @pytest.mark.parametrize(
        "tag", ["repro-perf/2", "repro-stream/1", "repro-serve/1", "repro-chaos/1"]
    )
    def test_old_tags_are_rejected_by_name(self, tmp_path, tag):
        payload = payload_of(make_run())
        payload["schema"] = tag
        with pytest.raises(ConfigError, match=tag):
            load_bench_json(write_payload(tmp_path, payload))

    def test_wrong_field_type_rejected(self, tmp_path):
        payload = payload_of(make_run())
        payload["records"][0]["window"] = "8"
        with pytest.raises(ConfigError, match="window"):
            load_bench_json(write_payload(tmp_path, payload))

    def test_bool_is_not_an_int(self, tmp_path):
        payload = payload_of(make_run())
        payload["records"][0]["workers"] = True
        with pytest.raises(ConfigError, match="workers"):
            load_bench_json(write_payload(tmp_path, payload))

    def test_missing_and_unknown_fields_rejected(self, tmp_path):
        payload = payload_of(make_run())
        del payload["records"][0]["unit"]
        with pytest.raises(ConfigError, match="unit"):
            load_bench_json(write_payload(tmp_path, payload))
        payload = payload_of(make_run())
        payload["records"][0]["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            load_bench_json(write_payload(tmp_path, payload))

    def test_non_finite_value_rejected(self, tmp_path):
        payload = payload_of(make_run())
        payload["records"][0]["value"] = float("nan")
        with pytest.raises(ConfigError, match="finite"):
            load_bench_json(write_payload(tmp_path, payload))

    def test_non_finite_readings_are_written_as_null(self, tmp_path):
        run = make_run(latency_ms_p50=float("nan"), latency_ms_p99=float("inf"))
        assert all(r.value is None for r in run.records)
        path = tmp_path / "nan.json"
        write_bench_json(run, path)
        assert "NaN" not in path.read_text()
        assert load_bench_json(path) == run

    def test_record_of_another_suite_rejected(self, tmp_path):
        payload = payload_of(make_run())
        payload["records"][0]["suite"] = "perf"
        with pytest.raises(ConfigError, match="perf"):
            load_bench_json(write_payload(tmp_path, payload))

    def test_nested_context_rejected(self, tmp_path):
        payload = payload_of(make_run())
        payload["context"]["rates"] = {"kill": 0.1}
        with pytest.raises(ConfigError, match="rates"):
            load_bench_json(write_payload(tmp_path, payload))

    def test_inline_failures_rejected(self, tmp_path):
        run = make_run("probe", inline_failures=2)
        path = tmp_path / "inline.json"
        write_bench_json(run, path)
        with pytest.raises(ConfigError, match="inline_failures"):
            load_bench_json(path)

    def test_quantiles_compare_only_within_a_case(self, tmp_path):
        run = make_run(latency_ms_p50=5.0)
        other = replace(
            run.records[0], case="case-b", metric="latency_ms_p99", value=1.0
        )
        run = replace(run, records=(*run.records, other))
        path = tmp_path / "two-cases.json"
        write_bench_json(run, path)
        load_bench_json(path)


class TestCores:
    def test_header_records_schedulable_not_host_cores(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        run = BenchRun(suite="probe", records=())
        assert run.cpu_count == 3


class TestBestOf:
    def test_first_call_is_an_untimed_warm_up(self, monkeypatch):
        import repro.analysis.bench as bench

        now = [0.0]

        def cold_then_warm():
            now[0] += 100.0 if now[0] == 0 else 1.0
            return now[0]

        monkeypatch.setattr(bench.time, "perf_counter", lambda: now[0])
        ((seconds, last),) = best_of(1, cold_then_warm)
        # The 100 s cold call ran, but only the 1 s warm one was timed.
        assert seconds == 1.0
        assert last == 101.0

    def test_interleaves_several_calls(self):
        order = []
        best_of(2, lambda: order.append("a"), lambda: order.append("b"))
        assert order == ["a", "b", "a", "b", "a", "b"]

    def test_repeats_must_be_positive(self):
        with pytest.raises(ConfigError, match="repeats"):
            best_of(0, lambda: None)


class TestRender:
    def test_pivot_rows_are_cases_and_columns_metrics(self):
        text = render_bench(make_run())
        header = next(line for line in text.splitlines() if line.startswith("case"))
        assert "probed_ms [ms]" in header and "unprobed_ms [ms]" in header
        assert "case-a" in text
        assert "3 schedulable CPU core(s); strategy=fast" in text

    def test_null_readings_render_as_dash(self):
        text = render_bench(make_run(latency_ms_p50=None))
        assert text.splitlines()[4].split()[-2] == "-"


class TestSuites:
    def test_every_suite_registers_default_and_smoke(self):
        for name in SUITE_MODULES:
            bench = suite(name)
            assert bench.name == name
            assert type(bench.default) is type(bench.smoke)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError, match="warp"):
            suite("warp")

    def test_options_apply_only_given_fields(self):
        bench = suite("stream")
        options = bench.options(
            smoke=True, resolution=64, worker_counts=[1, 3], json=None, url="x"
        )
        assert options.resolution == 64
        assert options.worker_counts == (1, 3)
        assert options.frames == bench.smoke.frames
        assert bench.options().resolution == bench.default.resolution
