"""The ``perf`` suite: wall-clock throughput of the sliding-window engines.

The paper's headline throughput property is architectural — 1 pixel per
cycle, fully pipelined — but the software model has its own throughput
story: the frame-at-once vectorised fast path of
:class:`~repro.core.window.compressed.CompressedEngine` versus the
per-traversal sequential reference loop.  This suite measures real
pixels/second for every engine strategy on a common frame over a window
x threshold sweep.

``speedup_vs_seed`` is each strategy's throughput relative to
``sequential`` at the same geometry — the per-traversal loop is the seed
repo's only execution strategy, so it is the fixed baseline every
future fast-path improvement is compared to.  Every timed output is also
checked bit for bit: lossless runs against the golden oracle, lossy fast
runs against the sequential loop at the same threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ..config import ArchitectureConfig
from ..core.window import GoldenEngine, SlidingWindowEngine
from ..errors import ConfigError
from ..imaging import generate_scene
from ..kernels import BoxFilterKernel
from ..kernels.base import WindowKernel
from ..spec import EngineSpec, make_engine
from .bench import BenchRecord, BenchRun, Suite, best_of, case_records

#: Strategy names, in table order (``repro bench perf --strategy``).
STRATEGIES = ("golden", "traditional", "sequential", "fast")

#: The strategy every ``speedup_vs_seed`` is measured against; always timed.
BASELINE = "sequential"

#: Strategies whose output does not depend on the threshold (timed once
#: per window, at the headline threshold).
THRESHOLD_FREE = ("golden", "traditional")


@dataclass(frozen=True, slots=True)
class PerfOptions:
    """Knobs of one perf run (defaults are the headline geometry)."""

    resolution: int = 512
    window: int = 16
    threshold: int = 0
    #: Extra window sizes swept beyond the headline geometry.
    windows: tuple[int, ...] = (8, 16, 32)
    #: Extra thresholds swept (compressed strategies only).
    thresholds: tuple[int, ...] = (0, 6)
    #: Timed repeats per strategy (after one untimed warm-up call); the
    #: best run is reported.
    repeats: int = 3
    #: Strategy subset to time (names from :data:`STRATEGIES`); ``None``
    #: times all four.  The baseline is always included so
    #: ``speedup_vs_seed`` stays well-defined.
    strategies: tuple[str, ...] | None = None
    #: Codec tier requested for the compressed strategies (the records
    #: carry the tier that actually resolved).
    codec: str = "auto"
    #: Target FPGA part the run describes.  Timing is host-bound, but the
    #: file records which device the geometry was sized for.
    device: str = "XC7Z020"

    def __post_init__(self) -> None:
        from ..core.packing.tiers import CODEC_TIERS
        from ..hardware.device import DEVICES

        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        unknown = set(self.strategies or ()) - set(STRATEGIES)
        if unknown:
            raise ConfigError(
                f"unknown strategies {sorted(unknown)}; choose from {list(STRATEGIES)}"
            )
        if self.codec not in CODEC_TIERS:
            raise ConfigError(
                f"codec must be one of {CODEC_TIERS}, got {self.codec!r}"
            )
        if self.device not in DEVICES:
            raise ConfigError(
                f"unknown device {self.device!r}; choose from {sorted(DEVICES)}"
            )

    @property
    def measured(self) -> tuple[str, ...]:
        """The strategies this run times, baseline always included."""
        if self.strategies is None:
            return STRATEGIES
        wanted = set(self.strategies) | {BASELINE}
        return tuple(s for s in STRATEGIES if s in wanted)


def _engines(
    config: ArchitectureConfig,
    kernel: WindowKernel,
    names: tuple[str, ...],
    codec: str,
) -> dict[str, SlidingWindowEngine]:
    """The timed engines (``names`` subset) for one configuration.

    Spec-describable engines are built through
    :func:`~repro.spec.make_engine` (the golden reference has no spec
    kind — it is not an architecture, just the oracle).  Compressed
    engines run with ``recirculate=False`` so the sequential and fast
    strategies stay comparable on lossy sweeps (with recirculation a
    lossy run is inherently sequential).
    """
    specs = {
        "traditional": EngineSpec(config=config, kernel=kernel, engine="traditional"),
        "sequential": EngineSpec(
            config=config,
            kernel=kernel,
            recirculate=False,
            fast_path=False,
            codec=codec,
        ),
        "fast": EngineSpec(
            config=config,
            kernel=kernel,
            recirculate=False,
            fast_path=True,
            codec=codec,
        ),
    }
    factories: dict[str, Callable[[], SlidingWindowEngine]] = {
        "golden": lambda: GoldenEngine(config, kernel),
        **{name: (lambda s=spec: make_engine(s)) for name, spec in specs.items()},
    }
    return {name: factories[name]() for name in names}


def measure_perf(
    options: PerfOptions = PerfOptions(),
    *,
    kernel_factory: Callable[[int], WindowKernel] = BoxFilterKernel,
) -> BenchRun:
    """Time every strategy over the option sweep on one synthetic frame.

    The golden and traditional engines ignore the threshold, so they are
    timed once per window size; the compressed strategies sweep the full
    window x threshold grid.  The headline geometry comes first.
    """
    res = options.resolution
    image = generate_scene(seed=1, resolution=res).astype(np.int64)
    windows = _ordered_unique((options.window, *options.windows))
    thresholds = _ordered_unique((options.threshold, *options.thresholds))
    records: list[BenchRecord] = []
    for n in windows:
        kernel = kernel_factory(n)
        configs = [
            ArchitectureConfig(
                image_width=res, image_height=res, window_size=n, threshold=t
            )
            for t in thresholds
        ]
        golden = GoldenEngine(configs[0], kernel).run(image).outputs
        for t, config in zip(thresholds, configs):
            timed: dict[str, tuple[float, np.ndarray, str]] = {}
            engines = _engines(config, kernel, options.measured, options.codec)
            for name, engine in engines.items():
                if t != thresholds[0] and name in THRESHOLD_FREE:
                    continue
                ((seconds, run),) = best_of(
                    options.repeats, lambda: engine.run(image)
                )
                codec = getattr(engine, "codec_resolved", "numpy")
                timed[name] = (seconds, run.outputs, codec)
            base_seconds = timed[BASELINE][0]
            lossy_reference = timed[BASELINE][1]
            for name, (seconds, outputs, codec) in timed.items():
                lossless = t == 0 or name in THRESHOLD_FREE
                reference = golden if lossless else lossy_reference
                records += case_records(
                    "perf",
                    name,
                    resolution=res,
                    window=n,
                    threshold=t,
                    codec=codec,
                    workers=0,
                    bit_identical=bool(np.array_equal(outputs, reference)),
                    metrics=(
                        ("ms_per_frame", seconds * 1e3, "ms"),
                        ("pixels_per_sec", res * res / seconds, "px/s"),
                        ("speedup_vs_seed", base_seconds / seconds, "x"),
                    ),
                )
    return BenchRun(
        suite="perf",
        records=tuple(records),
        context={"device": options.device, "repeats": options.repeats},
    )


def _ordered_unique(values: Iterable[int]) -> tuple[int, ...]:
    """Stable de-duplication (the headline value leads the sweep)."""
    return tuple(dict.fromkeys(values))


SUITE = Suite(
    name="perf",
    measure=measure_perf,
    default=PerfOptions(),
    smoke=PerfOptions(windows=(), thresholds=(), repeats=1),
)
