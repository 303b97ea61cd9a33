"""Golden sliding-window oracle built on NumPy stride tricks.

This is the mathematical specification every architectural engine is tested
against: no buffering model, no compression, just "apply the kernel to
every fully-contained N x N window".  Window extraction uses
``sliding_window_view`` (a zero-copy view) and kernels are applied in
bounded row chunks so that rank-order kernels, which must materialise their
input, never allocate more than ``chunk_budget_bytes`` at a time (the
guides' views-not-copies and cache-friendliness rules).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ...errors import ConfigError
from ...kernels.base import WindowKernel, as_kernel
from .base import EngineStats, SlidingWindowEngine, WindowRun

#: Default per-chunk working-set budget for kernel evaluation (1 MiB).
#: Window views are gathered into contiguous buffers by most kernels;
#: keeping one chunk L2-resident measures ~5x faster than large chunks
#: on a 512x512 frame, and per-window results are chunking-invariant.
DEFAULT_CHUNK_BUDGET = 1024 * 1024


def sliding_windows(image: np.ndarray, window_size: int) -> np.ndarray:
    """Zero-copy view of all valid windows, shape ``(R, C, N, N)``."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ConfigError(f"image must be 2D, got shape {arr.shape}")
    if window_size > min(arr.shape):
        raise ConfigError(
            f"window {window_size} exceeds image {arr.shape}"
        )
    return sliding_window_view(arr, (window_size, window_size))


def golden_apply(
    image: np.ndarray,
    window_size: int,
    kernel: WindowKernel,
    *,
    chunk_budget_bytes: int = DEFAULT_CHUNK_BUDGET,
) -> np.ndarray:
    """Apply ``kernel`` to every valid window; returns ``(R', C)`` outputs.

    ``image`` is one ``(H, W)`` image, or a ``(T, N, W)`` stack of N-row
    bands, for which row ``t`` of the result is band ``t``'s one output
    row — bit-identical to T separate 2-D calls.

    Kernels exposing an ``apply_image`` method (the convolution family)
    take a dense whole-image route that skips window materialisation
    entirely.  The box filter on integer pixels is exact on both routes
    (int64 window sums divided once by ``N^2``), so they agree bit for
    bit at every N; integer taps on integer pixels are exact too.  Float
    taps sum the same products in a different association, so those
    results agree to rounding.  The windowed path serves the kernels
    that genuinely need the window tensor.
    """
    kern = as_kernel(kernel, window_size=window_size)
    arr = np.asarray(image)
    if arr.ndim == 3:
        return _apply_band_stack(arr, window_size, kern, chunk_budget_bytes)
    image_route = getattr(kern, "apply_image", None)
    if image_route is not None:
        if arr.ndim != 2 or window_size > min(arr.shape):
            raise ConfigError(f"window {window_size} exceeds image {arr.shape}")
        return np.asarray(image_route(arr))
    views = sliding_windows(arr, window_size)
    return _apply_chunked(kern, views, window_size, chunk_budget_bytes)


def _apply_band_stack(
    bands: np.ndarray, window_size: int, kern: WindowKernel, chunk_budget_bytes: int
) -> np.ndarray:
    """``golden_apply`` over a ``(T, N, W)`` band stack: ``(T, W-N+1)``."""
    n = window_size
    if bands.shape[1] != n or bands.shape[2] < n:
        raise ConfigError(f"bands must be (T, {n}, W >= {n}), got {bands.shape}")
    image_route = getattr(kern, "apply_image", None)
    if image_route is not None:
        return np.asarray(image_route(bands))[:, 0]
    # (T, 1, C, N, N) -> the (T, C, N, N) windows of every band.
    views = sliding_window_view(bands, (n, n), axis=(1, 2))[:, 0]
    return _apply_chunked(kern, views, n, chunk_budget_bytes)


def _apply_chunked(
    kern: WindowKernel, views: np.ndarray, window_size: int, chunk_budget_bytes: int
) -> np.ndarray:
    """``kern.apply`` over ``(R, C, N, N)`` window views in bounded row chunks."""
    rows, cols = views.shape[:2]
    # Rows per chunk such that one materialised chunk stays in budget.
    bytes_per_row = cols * window_size * window_size * 8
    chunk = max(1, int(chunk_budget_bytes // max(bytes_per_row, 1)))
    pieces = [
        np.asarray(kern.apply(views[r0 : r0 + chunk]))
        for r0 in range(0, rows, chunk)
    ]
    return np.concatenate(pieces, axis=0)


class GoldenEngine(SlidingWindowEngine):
    """Oracle engine: golden outputs, idealised (zero-buffer) statistics."""

    def run(self, image: np.ndarray) -> WindowRun:
        """Compute the golden output map for ``image``."""
        arr = self._validate_image(image)
        n = self.config.window_size
        outputs = golden_apply(arr, n, self.kernel)
        stats = EngineStats(
            pixels_in=arr.size,
            outputs=outputs.size,
            process_cycles=arr.size,
            traditional_buffer_bits=self.config.traditional_buffer_bits,
        )
        return WindowRun(outputs=outputs, stats=stats)
