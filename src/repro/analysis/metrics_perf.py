"""The ``probe`` suite: what a metrics probe costs, and where time goes.

The observability layer's contract has two halves: attaching a probe
changes **no engine output bit**, and it costs **little wall-clock**
(the acceptance bar is <10% on the headline geometry).  This suite
measures both on one synthetic frame — the same engine strategy run
probed and unprobed, outputs compared bit-for-bit, best-of-repeats
timings compared — and from that same probed run folds the recorded
spans into the per-span table: calls, total and *self* time (total
minus direct children) per span path, per frame.  Perf work starts
from that table: it is how the ``transform``/``pack`` spans the native
codec tier compiles were identified.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..config import ArchitectureConfig
from ..errors import ConfigError
from ..imaging import generate_scene
from ..kernels import BoxFilterKernel
from ..kernels.base import WindowKernel
from ..observability.export import (
    stage_table,
    write_metrics_jsonl,
    write_prometheus,
)
from ..observability.probe import MetricsProbe
from ..spec import EngineSpec, make_engine
from .bench import BenchRecord, BenchRun, Suite, best_of, case_records

#: Engine strategies ``repro bench probe --strategy`` accepts.
PROBE_STRATEGIES = ("fast", "sequential", "traditional")


@dataclass(frozen=True, slots=True)
class MetricsOptions:
    """Knobs of one probe run (defaults: the acceptance geometry)."""

    resolution: int = 256
    window: int = 16
    threshold: int = 0
    #: ``fast`` / ``sequential`` (the compressed engine's two execution
    #: strategies) or ``traditional``.
    strategy: str = "fast"
    #: Timed repeats per variant (after one untimed warm-up each); the
    #: best run is compared.
    repeats: int = 3
    #: Codec tier requested for the compressed strategies.
    codec: str = "auto"
    #: Also write the probed snapshot as ``repro-metrics/1`` JSON lines.
    jsonl: Path | None = None
    #: Also write the probed snapshot as Prometheus exposition text.
    prometheus: Path | None = None

    def __post_init__(self) -> None:
        from ..core.packing.tiers import CODEC_TIERS

        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        if self.strategy not in PROBE_STRATEGIES:
            raise ConfigError(
                f"strategy must be one of {PROBE_STRATEGIES}, "
                f"got {self.strategy!r}"
            )
        if self.codec not in CODEC_TIERS:
            raise ConfigError(
                f"codec must be one of {CODEC_TIERS}, got {self.codec!r}"
            )


def overhead_percent(seconds_unprobed: float, seconds_probed: float) -> float:
    """Wall-clock cost of the probe, percent of the unprobed run."""
    if seconds_unprobed == 0:
        return 0.0
    return (seconds_probed / seconds_unprobed - 1.0) * 100.0


def measure_metrics(
    options: MetricsOptions = MetricsOptions(),
    *,
    kernel_factory: Callable[[int], WindowKernel] = BoxFilterKernel,
) -> BenchRun:
    """Time one strategy probed and unprobed; fold the probed run's spans.

    Both variants are built from the same :class:`~repro.spec.EngineSpec`;
    only the probe differs.  The shared timer interleaves the variants
    so host-speed drift biases both equally.  The ``overhead`` case
    carries the timings; every other case is one span path, with its
    calls and times divided back to one frame (the probe saw the
    warm-up run and every repeat).
    """
    opt = options
    res = opt.resolution
    config = ArchitectureConfig(
        image_width=res,
        image_height=res,
        window_size=opt.window,
        threshold=opt.threshold,
    )
    traditional = opt.strategy == "traditional"
    spec = EngineSpec(
        config=config,
        kernel=kernel_factory(opt.window),
        engine="traditional" if traditional else "compressed",
        recirculate=False,
        fast_path=None if traditional else opt.strategy == "fast",
        codec=opt.codec,
    )
    image = generate_scene(seed=1, resolution=res).astype(np.int64)
    plain = make_engine(spec)
    probe = MetricsProbe()
    probed = make_engine(spec, probe=probe)
    (unprobed_s, run_plain), (probed_s, run_probed) = best_of(
        opt.repeats, lambda: plain.run(image), lambda: probed.run(image)
    )
    identical = bool(np.array_equal(run_plain.outputs, run_probed.outputs))
    snapshot = probe.snapshot()
    frames = opt.repeats + 1

    def records(
        case: str, metrics: tuple[tuple[str, float, str], ...]
    ) -> list[BenchRecord]:
        """One case's readings from the probed run."""
        return case_records(
            "probe",
            case,
            resolution=res,
            window=opt.window,
            threshold=opt.threshold,
            codec=getattr(plain, "codec_resolved", "numpy"),
            workers=0,
            bit_identical=identical,
            metrics=metrics,
        )

    out = records(
        "overhead",
        (
            ("unprobed_ms", unprobed_s * 1e3, "ms"),
            ("probed_ms", probed_s * 1e3, "ms"),
            ("overhead_pct", overhead_percent(unprobed_s, probed_s), "%"),
        ),
    )
    for row in stage_table(snapshot):
        out += records(
            row.path,
            (
                ("calls", row.calls / frames, "count"),
                ("total_ms", row.total_seconds * 1e3 / frames, "ms"),
                ("self_ms", row.self_seconds * 1e3 / frames, "ms"),
            ),
        )
    if opt.jsonl is not None:
        write_metrics_jsonl(snapshot, opt.jsonl)
    if opt.prometheus is not None:
        write_prometheus(snapshot, opt.prometheus)
    return BenchRun(
        suite="probe",
        records=tuple(out),
        context={"strategy": opt.strategy, "frames": frames},
    )


SUITE = Suite(
    name="probe",
    measure=measure_metrics,
    default=MetricsOptions(),
    smoke=MetricsOptions(resolution=96, window=8, repeats=2),
)
