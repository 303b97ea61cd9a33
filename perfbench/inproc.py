"""The in-process workloads: ``frame-fast`` and ``frame-recirc``.

One caller runs ``EngineSpec(...).build().run(frame)`` in a closed loop
over a fixed number of frames that cycles the workload's distinct seeded
scenes evenly, so every run sees the same mix of frame contents.  Each
frame is checked against outputs computed before the timed phase by a
different engine: the golden oracle (and the sequential loop's size
accounting) for ``frame-fast``, a separate engine instance for
``frame-recirc``.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import procstat
import spans
from pinning import WORK_DIR

#: Fresh processes timed from launch to their first correct frame,
#: spread between the cycles of the timed phase.
SETUP_LAUNCHES = 7
#: Frames needed so that at least ten samples lie beyond the p90.
MIN_FRAMES = 100


@dataclass(frozen=True)
class FrameWorkload:
    """One in-process geometry and how many frames a run takes."""

    name: str
    resolution: int
    window: int
    threshold: int
    fast_path: bool | None
    #: Distinct seeded scenes a run cycles through.
    distinct: int
    #: Frames per second the frame count is sized from (a constant,
    #: never measured, so the count depends only on ``--seconds``).
    nominal_fps: float

    def spec(self, **changes: object):
        """The engine spec of this workload (``changes`` applied)."""
        from repro import ArchitectureConfig, EngineSpec
        from repro.kernels import BoxFilterKernel

        config = ArchitectureConfig(
            image_width=self.resolution,
            image_height=self.resolution,
            window_size=self.window,
            threshold=self.threshold,
        )
        spec = EngineSpec(
            config=config,
            kernel=BoxFilterKernel(self.window),
            recirculate=True,
            fast_path=self.fast_path,
            codec="auto",
        )
        return spec.replace(**changes) if changes else spec

    def frames(self, seed: int) -> list[np.ndarray]:
        """The distinct input scenes of ``seed``."""
        from repro.imaging import generate_scene

        return [
            generate_scene(seed=seed * 1000 + i, resolution=self.resolution)
            for i in range(self.distinct)
        ]

    def frame_count(self, seconds: float) -> int:
        """Frames in one run: whole cycles, at least :data:`MIN_FRAMES`."""
        wanted = max(MIN_FRAMES, math.ceil(seconds * self.nominal_fps))
        return self.distinct * math.ceil(wanted / self.distinct)


WORKLOADS = {
    w.name: w
    for w in (
        # Lossless 512x512, N=8: the whole-frame fast path (bulk kernels,
        # three native calls per frame).
        FrameWorkload("frame-fast", 512, 8, 0, True, 8, 34.0),
        # Lossy 256x256, N=16, T=6 with recirculation: the sequential
        # per-traversal loop, no native calls.
        FrameWorkload("frame-recirc", 256, 16, 6, None, 16, 4.0),
    )
}


@dataclass
class Expected:
    """What one frame must produce."""

    outputs: np.ndarray
    buffer_bits_peak: int
    band_total_bits: list[int]

    def matches(self, run) -> bool:
        """True when ``run`` (a ``WindowRun``) reproduces this frame."""
        return (
            np.array_equal(run.outputs, self.outputs)
            and run.stats.buffer_bits_peak == self.buffer_bits_peak
            and list(run.stats.band_total_bits) == self.band_total_bits
        )

    def digest(self) -> str:
        """Hash of everything :meth:`matches` compares."""
        return run_digest(self.outputs, self.buffer_bits_peak, self.band_total_bits)


def run_digest(outputs: np.ndarray, peak: int, band_totals: list[int]) -> str:
    """Hash of a frame's outputs and size accounting."""
    h = hashlib.sha256(np.ascontiguousarray(outputs, dtype=np.float64).tobytes())
    h.update(repr((int(peak), [int(v) for v in band_totals])).encode())
    return h.hexdigest()


def expected_outputs(workload: FrameWorkload, frame: np.ndarray) -> Expected:
    """Reference results of one frame, from engines other than the timed one."""
    if workload.fast_path:
        from repro import GoldenEngine

        spec = workload.spec()
        golden = GoldenEngine(spec.resolved_config, spec.kernel).run(frame)
        sequential = workload.spec(fast_path=False).build().run(frame)
        return Expected(
            golden.outputs,
            sequential.stats.buffer_bits_peak,
            list(sequential.stats.band_total_bits),
        )
    run = workload.spec().build().run(frame)
    return Expected(
        run.outputs, run.stats.buffer_bits_peak, list(run.stats.band_total_bits)
    )


def setup_probe(workload: FrameWorkload, frame_path: Path, expected: Expected) -> tuple[float, bool]:
    """Launch one fresh process and time it to its first frame.

    Returns ``(seconds, correct)``: the frame is wrong when it differs
    from ``expected`` or the process exits non-zero.
    """
    child = Path(__file__).with_name("first_frame.py")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(child), workload.name, str(frame_path)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline().strip()
        seconds = time.perf_counter() - t0
        proc.stdout.close()
    finally:
        code = proc.wait(timeout=60)
    return seconds, code == 0 and line == expected.digest()


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` so it covers the timed phase only."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def measure(
    workload: FrameWorkload,
    seed: int,
    seconds: float,
    *,
    trace: bool,
    frames: int | None = None,
    corrupt: bool = False,
) -> dict:
    """One run; returns the raw figures ``run.py`` turns into metrics."""
    inputs = workload.frames(seed)
    expected = [expected_outputs(workload, f) for f in inputs]
    if corrupt:
        expected[-1].outputs = expected[-1].outputs.copy()
        expected[-1].outputs[0, 0] += 1
    count = frames if frames is not None else workload.frame_count(seconds)
    cycles = math.ceil(count / workload.distinct)
    # Set-up launches sit between cycles, spread over the whole run, so
    # their median samples the host's speed as the timed frames do.
    probes = [] if trace else [k * cycles // SETUP_LAUNCHES for k in range(SETUP_LAUNCHES)]
    frame_path = WORK_DIR / f"{workload.name}.setup.npy"
    np.save(frame_path, inputs[0])

    engine = workload.spec().build()
    engine.run(inputs[0])  # first-call allocations stay out of the timed phase
    tracer = spans.Tracer(spans.IN_PROCESS_LAYERS)
    latencies: list[float] = []
    traced_flags: list[bool] = []
    breakdowns: list[dict[str, float]] = []
    setup_times: list[float] = []
    # ``(good frames, frames, wall s, CPU s)`` of each cycle.
    segments: list[tuple[int, int, float, float]] = []
    failed = setup_failed = 0
    reset_peak_rss()
    host = procstat.HostWindow()
    for cycle in range(cycles):
        for _ in range(probes.count(cycle)):
            seconds, ok = setup_probe(workload, frame_path, expected[0])
            setup_times.append(seconds)
            setup_failed += not ok
        cpu0, wall0 = time.process_time(), time.perf_counter()
        failed0 = failed
        batch = range(cycle * workload.distinct, min((cycle + 1) * workload.distinct, count))
        for i in batch:
            # Trace every other frame, shifted by one each cycle, so a
            # drift of the host's speed weighs on both halves alike and
            # over two cycles each scene is once traced and once not.
            traced = trace and (i + cycle) % 2 == 1
            if traced:
                tracer.install()
            t0 = time.monotonic()
            run = engine.run(inputs[i % workload.distinct])
            latency = time.monotonic() - t0
            if traced:
                tracer.remove()
                breakdowns.append(spans.frame_breakdown(tracer.drain(), latency))
            latencies.append(latency)
            traced_flags.append(traced)
            if not expected[i % workload.distinct].matches(run):
                failed += 1
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        segments.append((len(batch) - (failed - failed0), len(batch), wall, cpu))
    steal = host.stop()
    return {
        "attempted": count + len(setup_times),
        "failed": failed + setup_failed,
        "setup_s": setup_times,
        "latencies": latencies,
        "traced": traced_flags,
        "breakdowns": breakdowns,
        "segments": segments,
        "peak_rss_mb": procstat.peak_rss_mb(os.getpid()),
        "steal_frac": steal,
        "frames": count,
    }
