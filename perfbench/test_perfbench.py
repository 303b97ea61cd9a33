"""The benchmark's own tests: metric coverage, live checks, tracing.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
test launches ``perfbench/run.py`` from the command line, with a short
``--frames`` count, so the whole file takes a minute or two.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import ACCOUNTED_FLOOR  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Short runs: two whole cycles of each workload's distinct scenes.
SHORT_FRAMES = {"frame-fast": 16, "frame-recirc": 32, "serve-small": 16}
#: Traced runs: gateway layer figures are means, so they take more frames.
TRACE_FRAMES = {**SHORT_FRAMES, "serve-small": 128}


def bench(workload: str, *flags: str, trace: int = 0, cwd: Path = ROOT):
    """Run the benchmark once; returns the completed process."""
    cmd = [
        sys.executable, str(cwd / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), *flags,
    ]  # fmt: skip
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(workload: str, *flags: str, trace: int = 0) -> dict:
    """The result object of one short run (the last stdout line)."""
    frames = (TRACE_FRAMES if trace else SHORT_FRAMES)[workload]
    proc = bench(workload, "--frames", str(frames), *flags, trace=trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_declared(res: dict, section: str) -> None:
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(res["metrics"]) == set(declared)
    for name, unit in declared.items():
        assert res["metrics"][name]["unit"] == unit, name
    assert set(res) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_mode_emits_every_end_to_end_metric(workload: str) -> None:
    res = result(workload)
    assert_declared(res, "end_to_end")
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] > SHORT_FRAMES[workload]
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_expected_output_is_a_failed_frame(workload: str) -> None:
    res = result(workload, "--corrupt-expected")
    assert not res["correct"]
    # One of the distinct scenes is wrong, so each of the two cycles
    # fails once; the set-up launches use another scene and pass.
    assert res["failed"] == 2


#: Layers each workload must reach (non-zero time), and must not.
REACHED = {
    "frame-fast": (
        ["kernels.golden_apply_ms", "core.packing.native_ms",
         "core.stats.band_stack_sizes_ms"],
        ["core.stats.analyze_band_ms", "serve.bridge.process_ms"],
    ),
    "frame-recirc": (
        ["kernels.golden_apply_ms", "core.stats.analyze_band_ms",
         "core.transform.forward_ms", "core.transform.inverse_ms",
         "core.stats.sliding_occupancy_ms"],
        ["core.packing.native_ms", "serve.bridge.process_ms"],
    ),
    "serve-small": (
        ["serve.http.read_ms", "serve.payload.decode_ms", "serve.payload.encode_ms",
         "serve.http.render_ms", "serve.bridge.process_ms", "runtime.submit_ms",
         "runtime.poll_wait_ms", "runtime.worker_engine_ms",
         "runtime.worker.cpu_ms_per_frame", "serve.gateway.cpu_ms_per_frame"],
        ["kernels.golden_apply_ms"],
    ),
}  # fmt: skip


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_reports_layers_overhead_and_accounting(workload: str) -> None:
    res = result(workload, trace=1)
    assert_declared(res, "per_layer")
    assert res["correct"] and res["failed"] == 0
    values = {k: m["value"] for k, m in res["metrics"].items()}
    reached, bypassed = REACHED[workload]
    for name in reached:
        assert values[name] > 0, name
    for name in bypassed:
        assert values[name] == 0, name
    # Overhead: traced vs untraced median latency of the same run.
    assert values["trace.latency_ms_p50"] > 0
    assert values["trace.untraced_latency_ms_p50"] > 0
    assert values["trace.overhead_frac"] == pytest.approx(
        values["trace.latency_ms_p50"] / values["trace.untraced_latency_ms_p50"] - 1
    )
    # The named layers alone, without the residual: a wrapper that is
    # missing or never called lowers the share below the floor.
    assert ACCOUNTED_FLOOR[workload] <= values["trace.accounted_frac"] <= 1


def test_native_calls_follow_the_codec_path() -> None:
    fast = result("frame-fast", trace=1)["metrics"]
    assert fast["core.packing.native_calls"]["value"] == 3
    assert fast["kernels.golden_apply_calls"]["value"] == 1


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("frame-fast", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
