"""The five measurement suites of ``repro bench``, one parametrised bench.

Each case runs one suite (``perf``, ``stream``, ``serve``, ``chaos``,
``probe``) with the options it defines next to its measurement loop,
prints the pivot table, writes the ``repro-bench/1`` file under
``benchmarks/out/BENCH_<suite>.json`` (timings change on every run, so
nothing here is a committed golden), and loads that file back through
:func:`~repro.analysis.bench.load_bench_json`, which enforces the
promises every suite keeps (bit-identical outputs, no lost frame, no
leaked slot, no failed request, p99 >= p50, at least one completed
frame).  The checks below are each suite's own bar.

``REPRO_BENCH_IMAGES=2`` (or lower) selects every suite's smoke
options — the one smoke switch; the paper artifacts of
``bench_artifacts.py`` ignore it.  ``REPRO_PERF_CODEC`` picks the perf
suite's codec tier (``native`` must then really resolve to native).
``REPRO_BENCH_STRICT=1`` holds probe overhead to the 10% bar; elsewhere
a lenient 75% bound guards against pathological regressions without
flaking on noisy shared machines.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any

import pytest

from repro.analysis.bench import (
    SUITE_MODULES,
    BenchRun,
    load_bench_json,
    render_bench,
    suite,
    write_bench_json,
)
from repro.observability.export import (
    load_metrics_jsonl,
    parse_prometheus_names,
)

OUT_DIR = Path(__file__).parent / "out"


def _check_perf(run: BenchRun, options: Any) -> None:
    # The fast path's bar: >= 5x the sequential loop at the headline
    # geometry (measured ~20-30x; 5 leaves CI headroom).
    assert run.value("fast", "speedup_vs_seed") >= 5.0
    if options.codec == "native":
        # An ubuntu runner always has cc: "numpy" here means the compiled
        # tier silently broke.
        compressed = [r for r in run.records if r.case in ("sequential", "fast")]
        assert {r.codec for r in compressed} == {"native"}


def _check_stream(run: BenchRun, options: Any) -> None:
    # The >= 3x bar needs 4 schedulable cores and a 4-worker pass;
    # otherwise only check that pipelining does not cripple throughput.
    if not run.context["scaling_gated"]:
        assert run.value("workers=4", "speedup_vs_single_process") >= 3.0
    else:
        speedups = [
            r.value
            for r in run.records
            if r.metric == "speedup_vs_single_process" and r.workers > 0
        ]
        assert max(speedups) >= 0.25


def _check_serve(run: BenchRun, options: Any) -> None:
    completed = [r.value for r in run.records if r.metric == "completed"]
    assert sum(v for v in completed if v is not None) >= 1
    assert run.value("sweep", "max_sustained_frames_per_sec") > 0


def _check_chaos(run: BenchRun, options: Any) -> None:
    # The kill scenario must really have killed and recovered.
    assert run.value("worker-kill", "worker_deaths") >= 1
    recovered = run.value("worker-kill", "retries") + run.value(
        "worker-kill", "degraded"
    )
    assert recovered >= 1
    assert run.value("worker-kill", "failed") == 0
    # Poison frames must quarantine (no inline degradation), not hang.
    assert run.value("poison-quarantine", "failed") >= 1


def _check_probe(run: BenchRun, options: Any) -> None:
    spans = [case for case in run.cases if case != "overhead"]
    assert spans, "probed run recorded no spans"
    overhead = run.value("overhead", "overhead_pct")
    strict = os.environ.get("REPRO_BENCH_STRICT", "0") == "1"
    assert overhead < (10.0 if strict else 75.0)
    names = {r["name"] for r in load_metrics_jsonl(OUT_DIR / "probe.jsonl")}
    prom = parse_prometheus_names((OUT_DIR / "probe.prom").read_text())
    for required in (
        "repro_frames_total",
        "repro_span_seconds",
        "repro_band_nbits",
    ):
        assert required in names, required
        assert required in prom, required


CHECKS = {
    "perf": _check_perf,
    "stream": _check_stream,
    "serve": _check_serve,
    "chaos": _check_chaos,
    "probe": _check_probe,
}


@pytest.mark.parametrize("name", list(SUITE_MODULES))
def test_bench_suite(benchmark, name):
    OUT_DIR.mkdir(exist_ok=True)
    bench = suite(name)
    options = bench.options(
        smoke=int(os.environ.get("REPRO_BENCH_IMAGES", "4")) <= 2,
        codec=os.environ.get("REPRO_PERF_CODEC") if name == "perf" else None,
        jsonl=OUT_DIR / "probe.jsonl",
        prometheus=OUT_DIR / "probe.prom",
    )
    run = benchmark.pedantic(
        lambda: bench.measure(options), rounds=1, iterations=1
    )
    print(f"\n{render_bench(run)}")
    path = OUT_DIR / f"BENCH_{name}.json"
    write_bench_json(run, path)
    assert load_bench_json(path) == run
    CHECKS[name](run, options)
