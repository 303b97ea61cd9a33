"""Multi-channel (colour) sliding-window processing.

Colour pixels are processed as independent planes, each with its own line
buffers — this is how the paper's Section III example arrives at
``(2048 - 120) x 120 x 24`` bits for 24-bit pixels.  The wrapper runs one
engine per channel and aggregates the buffering statistics, so colour
deployments can be sized with the same accounting as grayscale ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ...config import ArchitectureConfig
from ...errors import ConfigError
from ...imaging.color import merge_planes, split_planes
from ...kernels.base import WindowKernel
from .base import EngineStats, SlidingWindowEngine, WindowRun
from .compressed import CompressedEngine
from .traditional import TraditionalEngine


@dataclass(frozen=True)
class MultiChannelRun:
    """Aggregated result of a per-channel run."""

    channel_runs: tuple[WindowRun, ...]

    @property
    def outputs(self) -> np.ndarray:
        """Per-channel output maps stacked as ``(H', W', C)``."""
        return merge_planes([r.outputs for r in self.channel_runs])

    @property
    def reconstruction(self) -> np.ndarray | None:
        """Stacked reconstructions, when the engine produces them."""
        recs = [r.reconstruction for r in self.channel_runs]
        if any(r is None for r in recs):
            return None
        return merge_planes(recs)  # type: ignore[arg-type]

    @property
    def stats(self) -> EngineStats:
        """Summed buffering statistics across channels.

        Cycle counters reflect one channel (channels run in parallel
        hardware lanes); buffer bits sum across the per-channel memories.
        """
        first = self.channel_runs[0].stats
        return EngineStats(
            fill_cycles=first.fill_cycles,
            process_cycles=first.process_cycles,
            drain_cycles=first.drain_cycles,
            pixels_in=first.pixels_in,
            outputs=first.outputs,
            buffer_bits_peak=sum(r.stats.buffer_bits_peak for r in self.channel_runs),
            traditional_buffer_bits=sum(
                r.stats.traditional_buffer_bits for r in self.channel_runs
            ),
        )


class MultiChannelEngine:
    """Per-plane engine wrapper for ``(H, W, C)`` images."""

    def __init__(
        self,
        config: ArchitectureConfig,
        kernel: WindowKernel,
        *,
        compressed: bool = True,
        engine_factory: Callable[[ArchitectureConfig, WindowKernel], SlidingWindowEngine]
        | None = None,
    ) -> None:
        self.config = config
        self.kernel = kernel
        if engine_factory is None:
            engine_factory = CompressedEngine if compressed else TraditionalEngine
        self._factory = engine_factory

    def run(self, image: np.ndarray) -> MultiChannelRun:
        """Run every channel through its own engine instance."""
        arr = np.asarray(image)
        if arr.ndim != 3:
            raise ConfigError(f"expected (H, W, C) colour image, got {arr.shape}")
        if arr.shape[-1] < 1 or arr.shape[-1] > 4:
            raise ConfigError(f"supported channel counts are 1-4, got {arr.shape[-1]}")
        runs = []
        for plane in split_planes(arr):
            engine: SlidingWindowEngine = self._factory(self.config, self.kernel)
            runs.append(engine.run(plane))
        return MultiChannelRun(channel_runs=tuple(runs))
