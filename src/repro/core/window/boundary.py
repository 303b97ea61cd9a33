"""Same-size output via boundary padding.

Section III: "The sliding window architecture produces ... one value for
each pixel in the input image" — hardware implementations pad the borders
so every pixel gets an output.  :class:`SameSizeEngine` wraps any engine:
it pads the input by ``N - 1`` samples (split around the window centre),
runs the wrapped architecture on the enlarged image, and returns an output
map exactly the size of the original input.

Supported padding modes mirror common RTL border handlers: ``edge``
(replicate), ``reflect`` (mirror) and ``constant`` (zero fill).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Type

import numpy as np

from ...config import ArchitectureConfig
from ...errors import ConfigError
from ...kernels.base import WindowKernel
from .base import SlidingWindowEngine, WindowRun

#: Padding modes accepted by :class:`SameSizeEngine`.
PAD_MODES = ("edge", "reflect", "constant")


def pad_image(image: np.ndarray, window_size: int, mode: str) -> tuple[np.ndarray, int, int]:
    """Pad so every original pixel is the centre of some window.

    Returns ``(padded, top, left)`` where top/left are the leading pad
    amounts (needed to locate the original origin in the padded frame).
    An extra trailing sample is added when required to keep the padded
    sides even (the compressed architecture's 2x2 blocks need even sides).
    """
    if mode not in PAD_MODES:
        raise ConfigError(f"mode must be one of {PAD_MODES}, got {mode!r}")
    n = window_size
    top = (n - 1) // 2
    bottom = n - 1 - top
    arr = np.asarray(image)
    extra_h = (arr.shape[0] + n - 1) % 2
    extra_w = (arr.shape[1] + n - 1) % 2
    pads = ((top, bottom + extra_h), (top, bottom + extra_w))
    kwargs = {"mode": mode}
    if mode == "constant":
        kwargs["constant_values"] = 0
    return np.pad(arr, pads, **kwargs), top, top


class SameSizeEngine:
    """Wrap an engine class to produce one output per input pixel."""

    def __init__(
        self,
        config: ArchitectureConfig,
        kernel: WindowKernel,
        engine_cls: Type[SlidingWindowEngine] | Callable[..., SlidingWindowEngine],
        *,
        mode: str = "edge",
        **engine_kwargs,
    ) -> None:
        if mode not in PAD_MODES:
            raise ConfigError(f"mode must be one of {PAD_MODES}, got {mode!r}")
        self.config = config
        self.kernel = kernel
        self.mode = mode
        self._engine_cls = engine_cls
        self._engine_kwargs = engine_kwargs

    def run(self, image: np.ndarray) -> WindowRun:
        """Pad, run the wrapped architecture, crop to input size."""
        arr = np.asarray(image)
        cfg = self.config
        if arr.shape != (cfg.image_height, cfg.image_width):
            raise ConfigError(
                f"image shape {arr.shape} != configured "
                f"({cfg.image_height}, {cfg.image_width})"
            )
        padded, top, left = pad_image(arr, cfg.window_size, self.mode)
        padded_cfg = replace(
            cfg, image_height=padded.shape[0], image_width=padded.shape[1]
        )
        engine = self._engine_cls(padded_cfg, self.kernel, **self._engine_kwargs)
        run = engine.run(padded)
        h, w = arr.shape
        outputs = run.outputs[:h, :w]
        reconstruction = run.reconstruction
        if reconstruction is not None:
            reconstruction = reconstruction[top : top + h, left : left + w]
        return WindowRun(outputs=outputs, stats=run.stats, reconstruction=reconstruction)
