"""Tests for the ``perf`` suite (tiny geometries only)."""

from __future__ import annotations

import pytest

from repro.analysis.bench import (
    BENCH_SCHEMA,
    load_bench_json,
    render_bench,
    write_bench_json,
)
from repro.analysis.perf import (
    BASELINE,
    STRATEGIES,
    PerfOptions,
    measure_perf,
)
from repro.errors import ConfigError

SMOKE = PerfOptions(
    resolution=64, window=8, windows=(), thresholds=(0, 4), repeats=1
)


@pytest.fixture(scope="module")
def smoke_run():
    """One tiny measured sweep shared by the assertions below."""
    return measure_perf(SMOKE)


def readings(run, metric):
    return {(r.case, r.threshold): r.value for r in run.records if r.metric == metric}


class TestMeasurePerf:
    def test_covers_every_engine_at_headline(self, smoke_run):
        headline = [r for r in smoke_run.records if r.threshold == 0]
        assert {r.case for r in headline} == set(STRATEGIES)
        for r in headline:
            assert (r.width, r.height, r.window) == (64, 64, 8)
        assert smoke_run.cases == STRATEGIES
        assert all(v > 0 for v in readings(smoke_run, "pixels_per_sec").values())

    def test_threshold_sweep_only_times_compressed(self, smoke_run):
        lossy = {r.case for r in smoke_run.records if r.threshold == 4}
        assert lossy == {"sequential", "fast"}

    def test_sequential_is_its_own_baseline(self, smoke_run):
        speedups = readings(smoke_run, "speedup_vs_seed")
        assert speedups[(BASELINE, 0)] == pytest.approx(1.0)
        assert speedups[(BASELINE, 4)] == pytest.approx(1.0)

    def test_fast_path_beats_sequential(self, smoke_run):
        # Even a 64x64 smoke frame shows a clear win; the >= 5x bar is
        # asserted at bench geometry in benchmarks/bench_suites.py.
        assert smoke_run.value("fast", "speedup_vs_seed") > 1.0

    def test_every_timed_output_is_bit_identical(self, smoke_run):
        # Lossless runs match the golden oracle; the lossy fast run
        # matches the sequential loop at the same threshold.
        assert smoke_run.bit_identical

    def test_missing_sample_raises(self, smoke_run):
        with pytest.raises(ConfigError, match="warp"):
            smoke_run.value("warp", "pixels_per_sec")

    def test_render_mentions_engines_and_headline(self, smoke_run):
        text = render_bench(smoke_run)
        for name in STRATEGIES:
            assert name in text
        assert "speedup_vs_seed" in text
        assert "device=XC7Z020" in text

    def test_invalid_repeats_rejected(self):
        with pytest.raises(ConfigError):
            PerfOptions(repeats=0)


class TestStrategySubsets:
    def test_resolve_aliases_and_order(self):
        options = PerfOptions(strategies=("fast", "golden"))
        assert options.measured == ("golden", "sequential", "fast")

    def test_resolve_always_includes_baseline(self):
        assert PerfOptions(strategies=("golden",)).measured == ("golden", BASELINE)
        assert PerfOptions(strategies=(BASELINE,)).measured == (BASELINE,)

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ConfigError, match="strateg"):
            PerfOptions(strategies=("warp-drive",))

    def test_options_reject_unknown_engine(self):
        with pytest.raises(ConfigError, match="warp-drive"):
            PerfOptions(strategies=("fast", "warp-drive"))

    def test_measured_engines_default_is_all(self):
        assert PerfOptions().measured == STRATEGIES

    def test_subset_run_times_only_requested_engines(self):
        options = PerfOptions(
            resolution=64, window=8, windows=(), thresholds=(), repeats=1,
            strategies=("fast",),
        )
        run = measure_perf(options)
        assert run.cases == ("sequential", "fast")
        assert run.value("fast", "speedup_vs_seed") > 0

    def test_subset_without_fast_renders_and_serialises(self, tmp_path):
        options = PerfOptions(
            resolution=64, window=8, windows=(), thresholds=(), repeats=1,
            strategies=(BASELINE,),
        )
        run = measure_perf(options)
        assert "fast" not in render_bench(run)
        path = tmp_path / "subset.json"
        write_bench_json(run, path)
        assert load_bench_json(path).cases == (BASELINE,)


class TestBenchJson:
    def test_roundtrip_and_schema(self, smoke_run, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        write_bench_json(smoke_run, path)
        assert '"schema": "%s"' % BENCH_SCHEMA in path.read_text()
        loaded = load_bench_json(path)
        assert loaded == smoke_run
        assert loaded.context["device"] == "XC7Z020"

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "nope", "records": []}')
        with pytest.raises(ConfigError, match="nope"):
            load_bench_json(path)

    def test_sample_throughput_definition(self, smoke_run):
        pps = readings(smoke_run, "pixels_per_sec")
        ms = readings(smoke_run, "ms_per_frame")
        for key, value in pps.items():
            assert value == pytest.approx(64 * 64 / (ms[key] / 1e3))
