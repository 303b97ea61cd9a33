"""Common engine interfaces and run reports.

Every engine consumes an image and a kernel and produces a
:class:`WindowRun` holding the *valid-region* output map (one value per
fully-contained window position, shape ``(H-N+1, W-N+1)``) plus
architectural statistics.  The paper pads to same-size output; padding is a
boundary policy orthogonal to the buffering architecture, so the engines
report the valid region and :func:`pad_to_same` restores the paper's
one-output-per-pixel convention when needed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ...config import ArchitectureConfig
from ...errors import ConfigError
from ...kernels.base import WindowKernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...observability.probe import Probe


@dataclass(slots=True)
class EngineStats:
    """Cycle and buffering statistics of one engine run.

    The three state counters follow Section III's state machine: *fill*
    (waiting for the buffers to hold one full window), *process* (one input
    pixel and one output per cycle) and *drain* (flushing outputs that need
    no further input; zero in valid-region mode).
    """

    fill_cycles: int = 0
    process_cycles: int = 0
    drain_cycles: int = 0
    pixels_in: int = 0
    outputs: int = 0
    #: Peak simultaneously-buffered bits in the line-buffer subsystem.
    buffer_bits_peak: int = 0
    #: Raw-pixel-equivalent capacity the traditional design would need.
    traditional_buffer_bits: int = 0
    #: Optional per-band compressed-size trace (compressed engines only).
    band_total_bits: list[int] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        """All cycles across the three states."""
        return self.fill_cycles + self.process_cycles + self.drain_cycles

    @property
    def cycles_per_output(self) -> float:
        """Average cycles per produced output (1.0 when fully pipelined)."""
        if self.outputs == 0:
            return float("inf")
        return self.process_cycles / self.outputs

    @property
    def memory_saving_percent(self) -> float:
        """Peak-buffer saving vs the traditional architecture (Eq. 5)."""
        if self.traditional_buffer_bits == 0:
            return 0.0
        return (1.0 - self.buffer_bits_peak / self.traditional_buffer_bits) * 100.0


@dataclass(slots=True)
class WindowRun:
    """Result of one engine run: outputs plus statistics."""

    outputs: np.ndarray
    stats: EngineStats
    #: Reconstructed image as seen by the processing kernel (compressed
    #: engines only; ``None`` for engines that operate on raw pixels).
    reconstruction: np.ndarray | None = None
    #: Fault-injection outcome (:class:`repro.resilience.EngineFaultSummary`)
    #: when the engine ran with a protected/injected memory path.
    faults: object | None = None
    #: Metrics snapshot of the engine's probe after this run (``None``
    #: when the engine ran without a probe — existing callers see no
    #: behavioural change).
    metrics: dict[str, Any] | None = None


class SlidingWindowEngine(ABC):
    """Base class for all sliding-window engines."""

    def __init__(
        self,
        config: ArchitectureConfig,
        kernel: WindowKernel,
        *,
        probe: Probe | None = None,
    ) -> None:
        if kernel.window_size and kernel.window_size != config.window_size:
            raise ConfigError(
                f"kernel {kernel.name!r} expects window {kernel.window_size}, "
                f"config has {config.window_size}"
            )
        self.config = config
        self.kernel = kernel
        #: Optional :class:`~repro.observability.probe.Probe` this engine
        #: reports per-stage timing and per-band distributions through.
        #: ``None`` (the default) keeps every hot path untouched.
        self.probe: Probe | None = probe

    def _snapshot_metrics(self) -> dict[str, Any] | None:
        """The probe's registry snapshot, or ``None`` when unprobed."""
        if self.probe is None:
            return None
        return self.probe.snapshot()

    @abstractmethod
    def run(self, image: np.ndarray) -> WindowRun:
        """Process ``image`` and return outputs plus statistics."""

    def _validate_image(self, image: np.ndarray) -> np.ndarray:
        arr = np.asarray(image)
        cfg = self.config
        if arr.ndim != 2:
            raise ConfigError(f"image must be 2D, got shape {arr.shape}")
        if arr.shape != (cfg.image_height, cfg.image_width):
            raise ConfigError(
                f"image shape {arr.shape} does not match configured "
                f"{cfg.image_height}x{cfg.image_width}"
            )
        if not np.issubdtype(arr.dtype, np.integer):
            raise ConfigError(f"image must be integer pixels, got {arr.dtype}")
        cfg.check_pixels(arr)
        return arr


def pad_to_same(outputs: np.ndarray, window_size: int, mode: str = "edge") -> np.ndarray:
    """Pad a valid-region output map back to input-image size.

    Restores the paper's "one value for each pixel in the input image"
    convention; ``mode`` is forwarded to :func:`numpy.pad`.
    """
    n = window_size
    top = (n - 1) // 2
    bottom = n - 1 - top
    return np.pad(outputs, ((top, bottom), (top, bottom)), mode=mode)
