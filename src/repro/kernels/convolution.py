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

    Integer pixels take exact routes: the window sum accumulates in an
    integer that holds it and is divided by ``N^2`` once, so each output
    is the correctly rounded mean.  Integer sums do not depend on
    summation order, so the windowed :meth:`apply`, the whole-image
    :meth:`apply_image` and any band of rows agree bit for bit at every N
    (given window sums below 2^53, true for pixels of up to 16 bits at
    any practical N).  Float pixels keep the inherited tap-weighted
    routes with taps ``1 / N^2``.
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
        """Whole-image box filter on exact integer window sums.

        Integer images take window sums along each row, then down each
        column of the row sums: a one-window-tall band (or band stack)
        through running sums, taller images over bounded row chunks
        (:func:`_box_window_sums`) with no frame-sized temporary besides
        the output.  Both accumulate in :func:`_accumulator`'s dtype,
        int32 whenever every window sum fits it.  The band route's
        running sums may wrap, but each difference of two of them is
        taken in that same dtype, so it is exact whenever the window sum
        itself fits.  Leading axes are batch axes, as for
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
            acc = _accumulator(arr, n)
            col_sums = arr.sum(axis=-2, dtype=acc, keepdims=True)
            np.add.accumulate(col_sums, axis=-1, out=col_sums)
            out = np.empty((*lead, 1, w - n + 1))
            out[..., 0] = col_sums[..., n - 1]
            # The difference runs in ``acc`` (wrapping), then widens.
            np.subtract(
                col_sums[..., n:], col_sums[..., :-n], out=out[..., 1:], dtype=acc
            )
            out /= n**2
            return out
        out = np.empty((*lead, h - n + 1, w - n + 1))
        _box_window_sums(arr, n, out)
        out /= n**2
        return out


#: Input values per chunk of the integer box filter's ``h > n`` route: a
#: 512-wide frame runs 128 rows a chunk, with at most a few hundred KB
#: of scratch.
BOX_CHUNK_VALUES = 1 << 16


def _accumulator(arr: np.ndarray, n: int) -> type[np.signedinteger]:
    """int32 when every ``n x n`` window sum of ``arr`` fits it, else int64.

    The rule is ``n^2 * peak < 2^31``, ``peak`` the largest pixel
    magnitude: the dtype's own for 8- and 16-bit pixels (255 for uint8,
    65535 for uint16), the frame's for wider integers.
    """
    if arr.dtype.itemsize <= 2:
        info = np.iinfo(arr.dtype)
        peak = max(info.max, -info.min)
    else:
        peak = max(abs(int(arr.min())), abs(int(arr.max())))
    return np.int32 if n * n * peak < 2**31 else np.int64


def _box_window_sums(arr: np.ndarray, n: int, out: np.ndarray) -> None:
    """Integer ``n x n`` window sums of ``arr`` into the float64 ``out``.

    Rows run in chunks of at least ``n`` rows (about
    :data:`BOX_CHUNK_VALUES` values), so the scratch is chunk-sized
    whatever the frame.  Per chunk: the ``n``-wide window sums along
    each row (:func:`_window_sums`), appended to the last ``n - 1`` row
    sums of the previous chunk, then their ``n``-tall window sums down
    each column, written straight into ``out``.  The sums accumulate in
    int32 when every partial sum provably fits (at most ``n^2`` pixels
    each, :func:`_accumulator`), else in int64; either way they are
    exact and land exactly in float64 (below 2^53).
    """
    *lead, h, w = arr.shape
    batch = int(np.prod(lead, dtype=np.int64))
    step = max(n, BOX_CHUNK_VALUES // max(batch * w, 1))
    acc = _accumulator(arr, n)
    # Rows 0 .. n-2 carry the previous chunk's last row sums.
    rows = np.empty((*lead, n - 1 + step, w - n + 1), dtype=acc)
    for base in range(0, h, step):
        k = min(step, h - base)
        chunk = arr[..., base : base + k, :].astype(acc)
        _window_sums(chunk, n, -1, rows[..., n - 1 : n - 1 + k, :])
        start = n - 1 if base == 0 else 0
        ready = rows[..., start : n - 1 + k, :]
        count = ready.shape[-2] - n + 1
        if count > 0:  # outputs whose last window row is in this chunk
            t0 = base + start - (n - 1)
            _window_sums(ready, n, -2, out[..., t0 : t0 + count, :])
        rows[..., : n - 1, :] = rows[..., k : k + n - 1, :]


def _window_sums(x: np.ndarray, n: int, axis: int, out: np.ndarray) -> None:
    """Sums of ``n`` consecutive entries of ``x`` along ``axis`` into ``out``.

    By doubling: sums of 2, 4, 8, .. entries each come from two shifted
    halves of the previous ones, and the powers of two in ``n`` add up
    to the window, so the cost is ``O(log n)`` vectorised passes.
    """
    length = out.shape[axis]

    def part(a: np.ndarray, start: int, size: int) -> np.ndarray:
        """Entries ``start .. start + size - 1`` of ``a`` along ``axis``."""
        index = [slice(None)] * a.ndim
        index[axis] = slice(start, start + size)
        return a[tuple(index)]

    top = n.bit_length() - 1
    total: np.ndarray | None = None
    offset = 0
    power = x  # sums of 2**b consecutive entries
    for b in range(top + 1):
        if b:
            half = 1 << (b - 1)
            if b == top and total is None:  # n is a power of two
                np.add(part(power, 0, length), part(power, half, length), out=out)
                return
            size = power.shape[axis] - half
            power = part(power, 0, size) + part(power, half, size)
        if n >> b & 1:
            window = part(power, offset, length)
            if b == top:
                if total is None:
                    np.copyto(out, window)
                else:
                    np.add(total, window, out=out)
                return
            total = window if total is None else total + window
            offset += 1 << b


def _check_image(image: np.ndarray, window_size: int) -> np.ndarray:
    """Validate a 2D image (or a stack) that holds at least one full window."""
    arr = np.asarray(image)
    if arr.ndim < 2:
        raise ConfigError(f"image must be at least 2D, got shape {arr.shape}")
    if arr.shape[-2] < window_size or arr.shape[-1] < window_size:
        raise ConfigError(f"window {window_size} exceeds image {arr.shape}")
    return arr
