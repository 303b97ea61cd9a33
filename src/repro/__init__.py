"""repro — compressed line-buffer sliding window architecture.

A production-quality Python reproduction of *"A Modified Sliding Window
Architecture for Efficient BRAM Resource Utilization"* (Qasaimeh,
Zambreno, Jones — IPPS 2017): integer-Haar compression of FPGA sliding
window line buffers, the traditional baseline, cycle-accurate register
models of every hardware block, BRAM/LUT resource models and a complete
benchmark harness regenerating every table and figure of the paper's
evaluation.

Quick start — one :class:`EngineSpec` describes a run, and every
front-end (direct calls, the streaming runtime, the CLI) builds its
engine from it::

    import numpy as np
    from repro import ArchitectureConfig, EngineSpec, make_engine
    from repro.kernels import GaussianKernel
    from repro.imaging import generate_scene

    image = generate_scene(seed=7, resolution=256)
    config = ArchitectureConfig(image_width=256, image_height=256,
                                window_size=32, threshold=0)
    spec = EngineSpec(config=config,
                      kernel=GaussianKernel(sigma=6.0, window_size=32))

    run = make_engine(spec).run(image)
    base = make_engine(spec.replace(engine="traditional")).run(image)
    assert np.allclose(run.outputs, base.outputs)   # lossless == exact
    print(f"buffer saving: {run.stats.memory_saving_percent:.1f}%")

Attach a probe to see inside the pipeline — the output is bit-identical
either way::

    from repro import MetricsProbe
    from repro.observability import stage_table

    probe = MetricsProbe()
    make_engine(spec, probe=probe).run(image)
    for row in stage_table(probe.snapshot()):
        print(f"{row.path:20s} {row.calls:4d} calls  "
              f"{row.self_seconds * 1e3:8.2f} ms self")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .config import (
        PAPER_IMAGE_WIDTHS,
        PAPER_THRESHOLDS,
        PAPER_WINDOW_SIZES,
        ArchitectureConfig,
        paper_configs,
    )
    from .core.packing.packer import BandCodec, EncodedBand
    from .core.stats import (
        BandAnalysis,
        ImageCompressionReport,
        analyze_band,
        analyze_image,
    )
    from .core.threshold import AdaptiveThresholdController
    from .core.window import (
        CompressedCycleEngine,
        CompressedEngine,
        GoldenEngine,
        MultiChannelEngine,
        PipelineStage,
        SameSizeEngine,
        SlidingWindowPipeline,
        TraditionalEngine,
        WindowRun,
    )
    from .errors import (
        BitstreamError,
        CapacityError,
        ConfigError,
        DatasetError,
        ReproError,
        StateError,
    )
    from .observability import MetricsProbe, MetricsRegistry, NullProbe, Probe
    from .resilience import (
        EngineFaultSummary,
        FaultInjector,
        ProtectionPolicy,
        ResilientBandCodec,
        resolve_policy,
    )
    from .runtime import StreamingProcessor, StreamResult, stream_frames
    from .spec import ENGINE_KINDS, EngineSpec, make_engine

__version__ = "1.0.0"

#: The module behind each re-exported name, imported on first access, so
#: ``import repro`` (or any of its submodules) loads no more than it uses:
#: an in-process engine never imports the streaming runtime.
_SOURCES = {
    name: module
    for module, names in {
        "config": (
            "ArchitectureConfig", "PAPER_IMAGE_WIDTHS", "PAPER_THRESHOLDS",
            "PAPER_WINDOW_SIZES", "paper_configs",
        ),
        "errors": (
            "ReproError", "ConfigError", "BitstreamError", "CapacityError",
            "StateError", "DatasetError",
        ),
        "core.stats": (
            "BandAnalysis", "ImageCompressionReport", "analyze_band", "analyze_image",
        ),
        "core.threshold": ("AdaptiveThresholdController",),
        "core.packing.packer": ("BandCodec", "EncodedBand"),
        "core.window": (
            "GoldenEngine", "TraditionalEngine", "CompressedEngine",
            "CompressedCycleEngine", "SlidingWindowPipeline", "PipelineStage",
            "WindowRun", "MultiChannelEngine", "SameSizeEngine",
        ),
        "runtime": ("StreamingProcessor", "StreamResult", "stream_frames"),
        "spec": ("ENGINE_KINDS", "EngineSpec", "make_engine"),
        "observability": ("MetricsProbe", "MetricsRegistry", "NullProbe", "Probe"),
        "resilience": (
            "EngineFaultSummary", "FaultInjector", "ProtectionPolicy",
            "ResilientBandCodec", "resolve_policy",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str) -> Any:
    source = _SOURCES.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{source}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__all__ = [
    "ArchitectureConfig",
    "PAPER_IMAGE_WIDTHS",
    "PAPER_THRESHOLDS",
    "PAPER_WINDOW_SIZES",
    "paper_configs",
    "ReproError",
    "ConfigError",
    "BitstreamError",
    "CapacityError",
    "StateError",
    "DatasetError",
    "BandAnalysis",
    "ImageCompressionReport",
    "analyze_band",
    "analyze_image",
    "AdaptiveThresholdController",
    "BandCodec",
    "EncodedBand",
    "GoldenEngine",
    "TraditionalEngine",
    "CompressedEngine",
    "CompressedCycleEngine",
    "SlidingWindowPipeline",
    "PipelineStage",
    "WindowRun",
    "MultiChannelEngine",
    "SameSizeEngine",
    "StreamingProcessor",
    "StreamResult",
    "stream_frames",
    "ENGINE_KINDS",
    "EngineSpec",
    "make_engine",
    "MetricsProbe",
    "MetricsRegistry",
    "NullProbe",
    "Probe",
    "EngineFaultSummary",
    "FaultInjector",
    "ProtectionPolicy",
    "ResilientBandCodec",
    "resolve_policy",
    "__version__",
]
