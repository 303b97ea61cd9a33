"""Cross-process metrics aggregation of the streaming runtime.

Workers ship cumulative registry snapshots back with each frame result;
the driver keeps the latest per worker PID and
:meth:`StreamingProcessor.metrics_snapshot` merges them with its own
registry.  The pinned properties: probing changes no streamed output
bit, per-frame counters survive the merge exactly (no double counting),
and the driver-side pipeline metrics are recorded.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ArchitectureConfig, EngineSpec
from repro.kernels import BoxFilterKernel
from repro.observability.probe import MetricsProbe
from repro.runtime import StreamingProcessor

from helpers import random_image


@pytest.fixture
def config() -> ArchitectureConfig:
    return ArchitectureConfig(image_width=32, image_height=32, window_size=8)


def spec_of(config: ArchitectureConfig) -> EngineSpec:
    return EngineSpec(config=config, kernel=BoxFilterKernel(8))


def frames_of(rng, n: int) -> list[np.ndarray]:
    return [random_image(rng, 32, 32, smooth=True) for _ in range(n)]


def counter_value(snapshot: dict, name: str) -> float:
    return sum(
        c["value"] for c in snapshot["counters"] if c["name"] == name
    )


class TestProbedStreaming:
    def test_probe_on_off_bit_identical(self, rng, config):
        frames = frames_of(rng, 4)
        with StreamingProcessor(spec_of(config), workers=2) as plain:
            expected = [r.outputs for r in plain.map(frames)]
        with StreamingProcessor(
            spec_of(config), workers=2, probe=MetricsProbe()
        ) as probed:
            got = [r.outputs for r in probed.map(frames)]
            snapshot = probed.metrics_snapshot()
        assert all(np.array_equal(a, b) for a, b in zip(expected, got))
        assert snapshot is not None

    def test_snapshot_counts_every_frame_once(self, rng, config):
        n = 6
        with StreamingProcessor(
            spec_of(config), workers=2, probe=MetricsProbe()
        ) as proc:
            results = list(proc.map(frames_of(rng, n)))
            snapshot = proc.metrics_snapshot()
        assert len(results) == n
        # Worker snapshots are cumulative; merging the *latest* per PID
        # must count each frame exactly once across the pool.
        assert counter_value(snapshot, "repro_frames_total") == float(n)
        # Driver-side pipeline metrics rode along.
        hist_names = {h["name"] for h in snapshot["histograms"]}
        assert "repro_slot_wait_seconds" in hist_names
        assert "repro_frame_seconds" in hist_names
        gauges = {g["name"] for g in snapshot["gauges"]}
        assert "repro_queue_depth_peak" in gauges

    def test_results_carry_worker_attribution(self, rng, config):
        with StreamingProcessor(
            spec_of(config), workers=2, probe=MetricsProbe()
        ) as proc:
            results = list(proc.map(frames_of(rng, 4)))
        for r in results:
            assert r.worker_pid > 0
            assert r.seconds >= 0.0

    def test_unprobed_snapshot_is_none(self, rng, config):
        with StreamingProcessor(spec_of(config), workers=1) as proc:
            list(proc.map(frames_of(rng, 2)))
            assert proc.metrics_snapshot() is None

    def test_from_spec_with_probe_instruments_workers(self, rng, config):
        probe = MetricsProbe()
        with StreamingProcessor(
            spec_of(config), workers=1, probe=probe
        ) as proc:
            assert proc.spec.probe  # flag set so workers build probed engines
            list(proc.map(frames_of(rng, 2)))
            snapshot = proc.metrics_snapshot()
        # Worker-side span timings made it across the process boundary.
        spans = {
            h["labels"].get("span")
            for h in snapshot["histograms"]
            if h["name"] == "repro_span_seconds"
        }
        assert "run" in spans
        assert counter_value(snapshot, "repro_frames_total") == 2.0
