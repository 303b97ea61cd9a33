"""Sliding-window engines.

- :mod:`repro.core.window.golden` — NumPy stride-tricks oracle (no
  architecture, just the mathematical sliding-window result).
- :mod:`repro.core.window.traditional` — the Section III line-buffering
  architecture's analytic engine.
- :mod:`repro.core.window.compressed` — the paper's modified architecture:
  a fast vectorised engine (band codec, with optional recirculation error
  feedback) plus the register-level model of its datapath, streamed pixel
  by pixel through the hardware block models.
- :mod:`repro.core.window.pipeline` — cascades of 2-5 sequential window
  operations (Section I's multi-stage motivation).
"""

from .base import EngineStats, WindowRun, SlidingWindowEngine
from .golden import sliding_windows, golden_apply, GoldenEngine
from .traditional import TraditionalEngine
from .compressed import CompressedEngine, CompressedCycleEngine
from .pipeline import PipelineStage, SlidingWindowPipeline
from .boundary import SameSizeEngine, pad_image
from .color import MultiChannelEngine, MultiChannelRun

__all__ = [
    "EngineStats",
    "WindowRun",
    "SlidingWindowEngine",
    "sliding_windows",
    "golden_apply",
    "GoldenEngine",
    "TraditionalEngine",
    "CompressedEngine",
    "CompressedCycleEngine",
    "PipelineStage",
    "SlidingWindowPipeline",
    "SameSizeEngine",
    "pad_image",
    "MultiChannelEngine",
    "MultiChannelRun",
]
