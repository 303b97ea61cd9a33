"""Generic window-dot-kernel convolution and the box filter special case.

A 2D image filter is the paper's running example of a processing kernel:
"multiply each pixel in the active window with a corresponding constant in
the filter kernel, and output these results as a sum or weighted sum"
(Section V).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ConfigError
from .base import check_window_shape


class ConvolutionKernel:
    """Weighted-sum kernel: ``out = sum(window * taps)``.

    ``taps`` may be float or integer; integer taps keep the computation
    exact, mirroring fixed-point hardware.  The taps are applied in direct
    (correlation) orientation — flip them beforehand for true convolution.
    """

    def __init__(self, taps: np.ndarray, *, name: str = "conv") -> None:
        arr = np.asarray(taps)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ConfigError(f"taps must be square 2D, got shape {arr.shape}")
        self.taps = arr
        self.name = name
        self.window_size = arr.shape[0]

    def apply(self, windows: np.ndarray) -> np.ndarray:
        """Reduce each trailing window with the tap-weighted sum."""
        arr = check_window_shape(windows, self.window_size)
        # tensordot over the trailing two axes keeps leading batch dims.
        return np.tensordot(arr, self.taps, axes=([-2, -1], [0, 1]))

    def apply_image(self, image: np.ndarray) -> np.ndarray:
        """Valid-mode correlation over a whole image, shape ``(T, C)``.

        Whole-image counterpart of :meth:`apply`, used by
        :func:`~repro.core.window.golden.golden_apply` as a dense fast
        route: one ``(H*C, N) x (N, N)`` matmul against the tap rows
        replaces the N^2-fold window materialisation, then the N shifted
        row contributions accumulate in fixed row order.  Each output is
        a sum over the same values in the same order regardless of the
        image height, so an N-row band call and a whole-frame call are
        bit-identical (the compressed engine's fast/sequential
        equivalence rests on this).  Leading axes are batch axes: a
        ``(T, N, W)`` band stack gives ``(T, 1, C)``, each band's row as
        its own call gives it.  Against :meth:`apply` the operands are
        the same but associate differently: integer taps on integer
        pixels agree exactly, float taps to rounding.
        """
        arr = _check_image(image, self.window_size)
        n = self.window_size
        # Pre-cast so the strided matmul runs in BLAS (integer taps stay
        # integer: the computation remains exact).
        dtype = np.result_type(arr.dtype, self.taps.dtype)
        rows = sliding_window_view(arr.astype(dtype, copy=False), n, axis=-1)
        # partial[..., r, c, i] = sum_j image[..., r, c+j] * taps[i, j]
        partial = rows @ self.taps.T.astype(dtype, copy=False)
        t_total = arr.shape[-2] - n + 1
        out = partial[..., 0:t_total, :, 0].copy()
        for i in range(1, n):
            out += partial[..., i : i + t_total, :, i]
        return out


class BoxFilterKernel(ConvolutionKernel):
    """Mean (box) filter over the window: ``sum(window) / N^2``.

    Integer pixels take exact routes: the window sum accumulates in int64
    and is divided by ``N^2`` once, so each output is the correctly
    rounded mean.  Integer sums do not depend on summation order, so the
    windowed :meth:`apply`, the whole-image :meth:`apply_image` and any
    band of rows agree bit for bit at every N (given window sums below
    2^53, true for pixels of up to 16 bits at any practical N).  Float
    pixels keep the inherited tap-weighted routes with taps ``1 / N^2``.
    """

    def __init__(self, window_size: int) -> None:
        if window_size < 1:
            raise ConfigError(f"window_size must be >= 1, got {window_size}")
        taps = np.full((window_size, window_size), 1.0 / window_size**2)
        super().__init__(taps, name=f"box{window_size}")

    def apply(self, windows: np.ndarray) -> np.ndarray:
        """Windowed oracle: ``sum(window) / N^2`` per trailing window."""
        arr = check_window_shape(windows, self.window_size)
        if not np.issubdtype(arr.dtype, np.integer):
            return super().apply(arr)
        return arr.sum(axis=(-2, -1), dtype=np.int64) / self.window_size**2

    def apply_image(self, image: np.ndarray) -> np.ndarray:
        """Whole-image box filter in O(1) work per pixel.

        Integer images go through running sums: along each row, then down
        each column of the row sums, so each window sum is two
        differences of prefix sums.  The int64 accumulators wrap on
        overflow, which leaves every difference exact as long as the
        window sum itself fits.  Leading axes are batch axes, as for
        :meth:`ConvolutionKernel.apply_image`.
        """
        arr = _check_image(image, self.window_size)
        if not np.issubdtype(arr.dtype, np.integer):
            return super().apply_image(arr)
        n = self.window_size
        *lead, h, w = arr.shape
        if h == n:
            # One window row (a band or a band stack): its column sums
            # straight away, then the running sums along the row.
            col_sums = arr.sum(axis=-2, dtype=np.int64, keepdims=True)
            np.add.accumulate(col_sums, axis=-1, out=col_sums)
            out = np.empty((*lead, 1, w - n + 1))
            out[..., 0] = col_sums[..., n - 1]
            np.subtract(col_sums[..., n:], col_sums[..., :-n], out=out[..., 1:])
            out /= n**2
            return out
        # Always a fresh int64 copy, so the running sums can run in place
        # (accumulating uint8 directly would cast element by element).
        acc = arr.astype(np.int64)
        np.add.accumulate(acc, axis=-1, out=acc)
        row_sums = np.empty((*lead, h, w - n + 1), dtype=np.int64)
        row_sums[..., 0] = acc[..., n - 1]
        np.subtract(acc[..., n:], acc[..., :-n], out=row_sums[..., 1:])
        np.add.accumulate(row_sums, axis=-2, out=row_sums)
        # The window sums are differenced in int64 and land exactly in
        # the float64 output (they are below 2^53), then divided once.
        out = np.empty((*lead, h - n + 1, w - n + 1))
        out[..., 0, :] = row_sums[..., n - 1, :]
        np.subtract(row_sums[..., n:, :], row_sums[..., :-n, :], out=out[..., 1:, :])
        out /= n**2
        return out


def _check_image(image: np.ndarray, window_size: int) -> np.ndarray:
    """Validate a 2D image (or a stack) that holds at least one full window."""
    arr = np.asarray(image)
    if arr.ndim < 2:
        raise ConfigError(f"image must be at least 2D, got shape {arr.shape}")
    if arr.shape[-2] < window_size or arr.shape[-1] < window_size:
        raise ConfigError(f"window {window_size} exceeds image {arr.shape}")
    return arr
