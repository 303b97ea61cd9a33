"""The traditional line-buffering sliding window architecture (Section III).

:class:`TraditionalEngine` returns golden outputs (the architecture is
functionally transparent) plus the architectural cycle and buffer
statistics, computed analytically.  The line-buffer dataflow itself is
modelled register by register by
:class:`~repro.core.window.compressed.CompressedCycleEngine`, which at
threshold 0 reconstructs every buffered row exactly.
"""

from __future__ import annotations

import numpy as np

from ...observability.probe import NULL_PROBE
from .base import EngineStats, SlidingWindowEngine, WindowRun
from .golden import golden_apply


def traditional_fill_cycles(window_size: int, image_width: int) -> int:
    """Cycles before the first valid window: ``(N-1) * W + (N-1)``."""
    return (window_size - 1) * image_width + (window_size - 1)


class TraditionalEngine(SlidingWindowEngine):
    """Fast functional model of the line-buffering architecture."""

    def run(self, image: np.ndarray) -> WindowRun:
        """Golden outputs with analytic architectural statistics."""
        arr = self._validate_image(image)
        cfg = self.config
        prb = self.probe if self.probe is not None else NULL_PROBE
        with prb.span("run"):
            with prb.span("kernel"):
                outputs = golden_apply(arr, cfg.window_size, self.kernel)
            fill = traditional_fill_cycles(cfg.window_size, cfg.image_width)
            stats = EngineStats(
                fill_cycles=fill,
                process_cycles=arr.size - fill,
                drain_cycles=0,
                pixels_in=arr.size,
                outputs=outputs.size,
                buffer_bits_peak=cfg.traditional_buffer_bits,
                traditional_buffer_bits=cfg.traditional_buffer_bits,
            )
        run = WindowRun(outputs=outputs, stats=stats)
        if self.probe is not None:
            self.probe.count("repro_frames_total", engine="traditional")
            run.metrics = self.probe.snapshot()
        return run
