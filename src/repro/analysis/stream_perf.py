"""The ``stream`` suite: multi-frame throughput of the shared-memory runtime.

The ``perf`` suite times one frame through one engine; this suite times
the *pipeline*: a sequence of frames streamed through
:class:`~repro.runtime.streaming.StreamingProcessor` at several worker
counts, against the single-process ``CompressedEngine.run()`` loop the
repo shipped with.  Every streamed output is compared bit-for-bit against
that baseline — a speedup that changes a single pixel does not count.

The curve is meaningless without the core count: a 1-core container
cannot show multi-worker speedups.  The file header records the
schedulable cores, and the ``scaling_gated`` context fact records
whether the >=3x-at-4-workers bar could apply at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..config import ArchitectureConfig
from ..errors import ConfigError
from ..imaging import generate_scene
from ..kernels import BoxFilterKernel
from ..kernels.base import WindowKernel
from ..runtime import StreamingProcessor
from ..spec import EngineSpec, make_engine
from .bench import BenchRecord, BenchRun, Suite, available_cores, case_records


@dataclass(frozen=True, slots=True)
class StreamOptions:
    """Knobs of one streaming-throughput run."""

    resolution: int = 512
    window: int = 16
    threshold: int = 0
    #: Frames streamed per timed pass.
    frames: int = 8
    #: Worker counts swept (each gets its own pool + ring).
    worker_counts: tuple[int, ...] = (1, 2, 4)
    #: Codec tier the workers (and the baseline loop) run with.
    codec: str = "auto"

    def __post_init__(self) -> None:
        from ..core.packing.tiers import CODEC_TIERS

        if self.frames < 1:
            raise ConfigError(f"frames must be >= 1, got {self.frames}")
        if self.codec not in CODEC_TIERS:
            raise ConfigError(
                f"codec must be one of {CODEC_TIERS}, got {self.codec!r}"
            )
        if not self.worker_counts:
            raise ConfigError("worker_counts must name at least one count")
        if any(w < 1 for w in self.worker_counts):
            raise ConfigError(
                f"worker counts must be >= 1, got {self.worker_counts}"
            )


def scaling_gated(worker_counts: tuple[int, ...]) -> bool:
    """True when the >=3x-at-4-workers bar cannot apply to a sweep.

    Either fewer than 4 cores are schedulable here, or the sweep never
    measured 4 workers.
    """
    return not (available_cores() >= 4 and 4 in worker_counts)


def measure_stream(
    options: StreamOptions = StreamOptions(),
    *,
    kernel_factory: Callable[[int], WindowKernel] = BoxFilterKernel,
) -> BenchRun:
    """Measure the streaming scaling curve against the sequential loop.

    One synthetic frame per scene seed; the sequential baseline runs every
    frame through a single in-process ``CompressedEngine`` (the seed
    repo's only multi-frame story), then each worker count gets a fresh
    :class:`~repro.runtime.streaming.StreamingProcessor` that is warmed
    with one frame per worker (forks the pool, builds each worker's
    cached engine) before the timed pass.  Outputs are compared
    bit-for-bit against the baseline.
    """
    res = options.resolution
    config = ArchitectureConfig(
        image_width=res,
        image_height=res,
        window_size=options.window,
        threshold=options.threshold,
    )
    kernel = kernel_factory(options.window)
    frames = [
        generate_scene(seed=i + 1, resolution=res).astype(np.int64)
        for i in range(options.frames)
    ]

    spec = EngineSpec(config=config, kernel=kernel, codec=options.codec)
    engine = make_engine(spec)
    t0 = time.perf_counter()
    expected = [engine.run(frame).outputs for frame in frames]
    baseline_seconds = time.perf_counter() - t0

    def records(
        case: str, workers: int, seconds: float, identical: bool
    ) -> list[BenchRecord]:
        """One pass's readings; workers 0 is the in-process loop."""
        return case_records(
            "stream",
            case,
            resolution=res,
            window=options.window,
            threshold=options.threshold,
            codec=getattr(engine, "codec_resolved", options.codec),
            workers=workers,
            bit_identical=identical,
            metrics=(
                ("seconds", seconds, "s"),
                ("frames_per_sec", options.frames / seconds, "1/s"),
                ("speedup_vs_single_process", baseline_seconds / seconds, "x"),
            ),
        )

    out = records("single-process", 0, baseline_seconds, True)
    for workers in options.worker_counts:
        with StreamingProcessor(spec, workers=workers) as proc:
            # Warm-up: one frame per worker forks the pool and builds the
            # per-worker engine caches outside the timed window.
            for _ in proc.map([frames[0]] * workers):
                pass
            t0 = time.perf_counter()
            results = list(proc.map(frames))
            seconds = time.perf_counter() - t0
        identical = len(results) == len(expected) and all(
            np.array_equal(r.outputs, e) for r, e in zip(results, expected)
        )
        out += records(f"workers={workers}", workers, seconds, identical)
    return BenchRun(
        suite="stream",
        records=tuple(out),
        context={
            "frames": options.frames,
            "scaling_gated": scaling_gated(options.worker_counts),
        },
    )


SUITE = Suite(
    name="stream",
    measure=measure_stream,
    default=StreamOptions(),
    # threshold=4 puts the smoke frames on the sequential recirculating
    # path (~40 ms each at 128^2) so the speedup floor measures the
    # pipeline; a sub-millisecond lossless frame measures the host's IPC.
    smoke=StreamOptions(
        resolution=128, window=8, threshold=4, frames=4, worker_counts=(1, 2)
    ),
)
