"""The ``serve`` suite: an offered-load sweep of the frame-serving gateway.

The ``stream`` suite measures the streaming runtime from inside the
process; this suite measures the whole serving stack from the
*outside*: a real :class:`~repro.serve.gateway.FrameGateway` bound to a
real TCP socket, driven by the closed-loop load generator at a sweep of
offered concurrency levels.  Per level it records completed / shed /
error counts, throughput, and interpolated p50/p99 latency; from the
sweep it derives the saturation point (the first level whose extra
offered load stopped buying throughput — or started shedding) and the
maximum sustained frame rate.

Every 200 response is verified byte-for-byte against a sequential
``CompressedEngine.run()`` on the same frame, so a level's
``bit_identical`` means exactly what the streaming suite's does: a
serving layer that changes one pixel has no throughput number.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from urllib.parse import urlsplit

import numpy as np

from ..config import ArchitectureConfig
from ..errors import ConfigError
from ..imaging import generate_scene
from ..kernels import BoxFilterKernel
from ..runtime.pool import default_workers
from ..serve.gateway import GatewayConfig, GatewayThread
from ..serve.loadgen import LevelResult, build_frame_request, run_level
from ..serve.payload import encode_array
from ..spec import EngineSpec
from .bench import BenchRecord, BenchRun, Suite, case_records

#: A level counts as past saturation once extra offered load buys less
#: than this relative throughput gain over the previous level.
SATURATION_GAIN = 1.10


@dataclass(frozen=True, slots=True)
class ServeOptions:
    """Knobs of one gateway load sweep."""

    resolution: int = 96
    window: int = 8
    threshold: int = 0
    engine: str = "compressed"
    codec: str = "auto"
    #: Gateway worker processes (``None``: runtime default).
    workers: int | None = None
    #: Ring depth (``None``: runtime default).
    slots: int | None = None
    #: Admission budget (``None``: gateway default of 2x ring slots).
    max_in_flight: int | None = None
    #: Offered concurrency levels swept, in order.
    levels: tuple[int, ...] = (1, 2, 4, 8)
    #: Frame jobs per level.
    frames_per_level: int = 32
    #: Distinct synthetic frames cycled through the jobs.
    distinct_frames: int = 4
    #: Client-side per-request timeout (also the gateway's deadline).
    request_timeout_seconds: float = 60.0
    #: Target an already-running gateway (``http://host:port``) instead
    #: of starting one; it must serve the same geometry.
    url: str | None = None

    def __post_init__(self) -> None:
        if not self.levels:
            raise ConfigError("levels must name at least one offered load")
        if any(level < 1 for level in self.levels):
            raise ConfigError(f"levels must be >= 1, got {self.levels}")
        if self.frames_per_level < 1:
            raise ConfigError(
                f"frames_per_level must be >= 1, got {self.frames_per_level}"
            )
        if self.distinct_frames < 1:
            raise ConfigError(
                f"distinct_frames must be >= 1, got {self.distinct_frames}"
            )


def saturation(levels: tuple[LevelResult, ...]) -> LevelResult:
    """The level where offered load stopped buying throughput.

    The first level that shed requests, or whose throughput gain over
    the previous level fell under :data:`SATURATION_GAIN`; the last
    level when the sweep never saturated.
    """
    previous: LevelResult | None = None
    for level in levels:
        if level.shed > 0:
            return level
        if (
            previous is not None
            and previous.frames_per_sec > 0
            and level.frames_per_sec < SATURATION_GAIN * previous.frames_per_sec
        ):
            return level
        previous = level
    return levels[-1]


def serve_run(
    options: ServeOptions,
    levels: tuple[LevelResult, ...],
    *,
    codec: str,
    workers: int,
    warm_seconds: float | None,
) -> BenchRun:
    """The records of one sweep: one case per level, one for the sweep."""

    def records(
        case: str,
        identical: bool,
        metrics: tuple[tuple[str, float | None, str], ...],
    ) -> list[BenchRecord]:
        """One case's readings at the sweep's geometry."""
        return case_records(
            "serve",
            case,
            resolution=options.resolution,
            window=options.window,
            threshold=options.threshold,
            codec=codec,
            workers=workers,
            bit_identical=identical,
            metrics=metrics,
        )

    out: list[BenchRecord] = []
    for level in levels:
        out += records(
            f"offered={level.offered}",
            level.mismatches == 0,
            (
                ("frames", level.frames, "count"),
                ("completed", level.completed, "count"),
                ("shed", level.shed, "count"),
                ("errors", level.errors, "count"),
                ("seconds", level.seconds, "s"),
                ("frames_per_sec", level.frames_per_sec, "1/s"),
                ("latency_ms_p50", level.p50_seconds * 1e3, "ms"),
                ("latency_ms_p99", level.p99_seconds * 1e3, "ms"),
            ),
        )
    sat = saturation(levels)
    out += records(
        "sweep",
        all(level.mismatches == 0 for level in levels),
        (
            ("saturation_offered", sat.offered, "count"),
            ("saturation_frames_per_sec", sat.frames_per_sec, "1/s"),
            (
                "max_sustained_frames_per_sec",
                max(level.frames_per_sec for level in levels),
                "1/s",
            ),
            ("warm_seconds", warm_seconds, "s"),
        ),
    )
    return BenchRun(
        suite="serve",
        records=tuple(out),
        context={"engine": options.engine, "url": options.url},
    )


def measure_serve(options: ServeOptions = ServeOptions()) -> BenchRun:
    """Sweep offered load against a gateway; verify every response.

    With ``options.url`` unset a gateway is started in-process on an
    ephemeral port with exactly the options' geometry and torn down
    after the sweep.  Otherwise the sweep targets that running gateway,
    which must serve the same geometry or every job 400s; its worker
    count, codec tier and warm-up time are unknown here, so the records
    carry 0 workers, the requested tier and a null warm-up.
    """
    res = options.resolution
    arch = ArchitectureConfig(
        image_width=res,
        image_height=res,
        window_size=options.window,
        threshold=options.threshold,
    )
    spec = EngineSpec(
        config=arch,
        kernel=BoxFilterKernel(options.window),
        engine=options.engine,
        codec=options.codec,
    )
    engine = spec.build()
    frames = [
        generate_scene(seed=i + 1, resolution=res).astype(np.int64)
        for i in range(options.distinct_frames)
    ]
    expected = [encode_array(engine.run(frame).outputs) for frame in frames]
    payloads = [build_frame_request(encode_array(frame)) for frame in frames]

    if options.url is not None:
        host, port = _parse_url(options.url)
        levels = _sweep(host, port, payloads, expected, options)
        return serve_run(
            options, levels, codec=options.codec, workers=0, warm_seconds=None
        )
    config = GatewayConfig(
        port=0,
        resolution=res,
        window=options.window,
        threshold=options.threshold,
        engine=options.engine,
        codec=options.codec,
        workers=options.workers,
        slots=options.slots,
        max_in_flight=options.max_in_flight,
        request_timeout_seconds=options.request_timeout_seconds,
    )
    t0 = time.perf_counter()
    with GatewayThread(config) as gw:
        warm_seconds = time.perf_counter() - t0
        levels = _sweep(gw.host, gw.port, payloads, expected, options)
    return serve_run(
        options,
        levels,
        codec=getattr(engine, "codec_resolved", options.codec),
        workers=options.workers or default_workers(),
        warm_seconds=warm_seconds,
    )


def _sweep(
    host: str,
    port: int,
    payloads: list[bytes],
    expected: list[str],
    options: ServeOptions,
) -> tuple[LevelResult, ...]:
    """Run every offered-load level, lowest first (warm ascending)."""
    return tuple(
        run_level(
            host,
            port,
            payloads,
            expected=expected,
            offered=offered,
            frames=options.frames_per_level,
            timeout=options.request_timeout_seconds + 30.0,
        )
        for offered in options.levels
    )


def _parse_url(url: str) -> tuple[str, int]:
    """``http://host:port`` -> (host, port)."""
    parts = urlsplit(url if "//" in url else f"//{url}")
    if not parts.hostname or not parts.port:
        raise ConfigError(f"gateway url needs host and port, got {url!r}")
    return parts.hostname, parts.port


SUITE = Suite(
    name="serve",
    measure=measure_serve,
    default=ServeOptions(),
    smoke=ServeOptions(
        resolution=48,
        levels=(1, 2),
        frames_per_level=8,
        distinct_frames=2,
        workers=1,
    ),
)
