"""The ``chaos`` suite: the streaming runtime's recovery behaviour.

The ``stream`` suite measures how fast the streaming runtime is when
everything goes right; this suite measures what it does when things go
wrong.  Each :class:`ChaosScenario` deterministically injects a mix of
process-level faults (worker SIGKILLs, in-worker raises, deadline
delays, dropped results, poison frames) into a streamed run via
:class:`~repro.resilience.chaos.ChaosSpec` and records how the
supervision layer coped: frames delivered vs failed, retries, inline
degradations, worker deaths, slot reclamations and loss-to-redelivery
latency — with every delivered output still compared bit-for-bit
against the sequential baseline.

Three readings per scenario are promises rather than measurements, and
the bench loader rejects a file where any of them is non-zero:
``frames_lost`` (neither delivered nor structurally failed),
``slots_leaked`` (ring slots still taken after the drain) and
``inline_failures`` (frames quarantined although the scenario degrades
inline).
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
from ..resilience.chaos import ChaosSpec
from ..runtime import StreamingProcessor
from ..runtime.streaming import StreamResult
from ..runtime.supervision import SupervisionPolicy
from ..spec import EngineSpec, make_engine
from .bench import BenchRecord, BenchRun, Suite, case_records


@dataclass(frozen=True, slots=True)
class ChaosScenario:
    """One named fault mix injected into a streamed run."""

    name: str
    kill_rate: float = 0.0
    raise_rate: float = 0.0
    delay_rate: float = 0.0
    drop_rate: float = 0.0
    poison_rate: float = 0.0
    #: Whether exhausted frames are computed inline (``True``) or
    #: quarantined as :class:`~repro.runtime.supervision.FrameFailure`
    #: values (``False`` — only sensible with ``poison_rate > 0``).
    degrade_inline: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("scenario name must be non-empty")


#: The standard campaign: every rung of the recovery ladder gets a
#: scenario, from fault-free control to poison-frame quarantine.
DEFAULT_SCENARIOS: tuple[ChaosScenario, ...] = (
    ChaosScenario(name="baseline"),
    ChaosScenario(name="worker-kill", kill_rate=0.12),
    ChaosScenario(name="worker-raise", raise_rate=0.2),
    ChaosScenario(name="delay-drop", delay_rate=0.15, drop_rate=0.1),
    ChaosScenario(
        name="mixed",
        kill_rate=0.06,
        raise_rate=0.1,
        delay_rate=0.06,
        drop_rate=0.06,
    ),
    ChaosScenario(
        name="poison-quarantine", poison_rate=0.12, degrade_inline=False
    ),
)


@dataclass(frozen=True, slots=True)
class ChaosOptions:
    """Knobs of one chaos campaign."""

    resolution: int = 128
    window: int = 8
    threshold: int = 0
    #: Frames streamed per scenario.
    frames: int = 16
    workers: int = 2
    seed: int = 0
    #: Per-attempt supervision deadline (recovers dropped results).
    deadline_seconds: float = 2.0
    scenarios: tuple[ChaosScenario, ...] = DEFAULT_SCENARIOS
    #: Codec tier the workers and the baseline run with.
    codec: str = "auto"

    def __post_init__(self) -> None:
        from ..core.packing.tiers import CODEC_TIERS

        if self.codec not in CODEC_TIERS:
            raise ConfigError(
                f"codec must be one of {CODEC_TIERS}, got {self.codec!r}"
            )
        if self.frames < 1:
            raise ConfigError(f"frames must be >= 1, got {self.frames}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.deadline_seconds <= 0:
            raise ConfigError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )
        if not self.scenarios:
            raise ConfigError("scenarios must name at least one scenario")


def measure_chaos(
    options: ChaosOptions = ChaosOptions(),
    *,
    kernel_factory: Callable[[int], WindowKernel] = BoxFilterKernel,
) -> BenchRun:
    """Run every scenario's fault mix through a supervised stream.

    Per scenario: a :class:`~repro.resilience.chaos.ChaosSpec` is sampled
    from the campaign seed, rides into the workers on the engine spec,
    and a fresh supervised :class:`StreamingProcessor` streams the same
    synthetic frames the sequential baseline processed.  Delivered
    outputs are compared bit-for-bit; after consumption the stream is
    drained so zombie-quarantined slots prove they return to the free
    list.
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
    expected = [engine.run(frame).outputs for frame in frames]

    records: list[BenchRecord] = []
    for scenario in options.scenarios:
        chaos = ChaosSpec.sample(
            options.frames,
            seed=options.seed,
            kill_rate=scenario.kill_rate,
            raise_rate=scenario.raise_rate,
            delay_rate=scenario.delay_rate,
            drop_rate=scenario.drop_rate,
            poison_rate=scenario.poison_rate,
            # A delay fault must outlast the deadline or it never
            # exercises the deadline-retry path at all.
            delay_seconds=options.deadline_seconds * 1.5,
        )
        run_spec = spec.replace(chaos=chaos if chaos.any_faults else None)
        policy = SupervisionPolicy(
            deadline_seconds=options.deadline_seconds,
            degrade_inline=scenario.degrade_inline,
            reclaim_grace_seconds=1.0,
        )
        t0 = time.perf_counter()
        with StreamingProcessor.from_spec(
            run_spec, workers=options.workers, supervision=policy
        ) as proc:
            outcomes = list(proc.map(frames, timeout=60.0))
            seconds = time.perf_counter() - t0
            free = proc.drain(timeout=30.0)
            slots = proc.slots
            stats = proc.supervisor_stats
        if stats is None:  # pragma: no cover - campaigns always supervise
            raise ConfigError("chaos campaign requires a supervised stream")
        delivered = [o for o in outcomes if isinstance(o, StreamResult)]
        failed = len(outcomes) - len(delivered)
        records += case_records(
            "chaos",
            scenario.name,
            resolution=res,
            window=options.window,
            threshold=options.threshold,
            codec=getattr(engine, "codec_resolved", options.codec),
            workers=options.workers,
            bit_identical=all(
                np.array_equal(r.outputs, expected[r.index]) for r in delivered
            ),
            metrics=(
                *(
                    (f"faults_{kind}", count, "count")
                    for kind, count in chaos.fault_counts.items()
                ),
                ("delivered", len(delivered), "count"),
                ("failed", failed, "count"),
                ("retries", stats.retries, "count"),
                ("degraded", stats.degraded, "count"),
                ("worker_deaths", stats.worker_deaths, "count"),
                ("slots_reclaimed", stats.slots_reclaimed, "count"),
                ("results_dropped", stats.results_dropped, "count"),
                ("pool_respawns", stats.pool_respawns, "count"),
                ("recoveries", stats.recoveries, "count"),
                ("recovery_s_mean", stats.recovery_seconds_mean, "s"),
                ("recovery_s_max", stats.recovery_seconds_max, "s"),
                ("seconds", seconds, "s"),
                ("frames_lost", options.frames - len(delivered) - failed, "count"),
                ("slots_leaked", slots - free, "count"),
                (
                    "inline_failures",
                    failed if scenario.degrade_inline else 0,
                    "count",
                ),
            ),
        )
    return BenchRun(
        suite="chaos",
        records=tuple(records),
        context={
            "frames": options.frames,
            "seed": options.seed,
            "deadline_seconds": options.deadline_seconds,
        },
    )


SUITE = Suite(
    name="chaos",
    measure=measure_chaos,
    default=ChaosOptions(),
    smoke=ChaosOptions(resolution=96),
)
