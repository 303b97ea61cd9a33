"""NumPy-facing wrappers over the compiled codec kernels (native tier).

Each wrapper here mirrors one hot loop of the NumPy packing/stats path
— the fast path's fused level-1 sizing pass, the recirculating lossy
loop's traversals with their sizes (:class:`RecirculatingLoop`), the
threshold plane kernel, the NBits reductions over ``(T, N, W)`` band
stacks, the FIFO occupancy scan — delegating the arithmetic to
``_codec.c`` through the ctypes binding in :mod:`.loader`.
``pair_transform`` and ``pair_reduce`` (the fast path's kernels before
the fused pass) and the bit-stream and column kernels have no caller in
the package; they stay importable for the repository benchmark's
tracer, which resolves every name it wraps.  Results are
bit-identical to the NumPy implementations (property-tested); callers
pick an implementation through the codec-tier registry in
:mod:`repro.core.packing.tiers`, never by importing this module
conditionally themselves.

All wrappers take and return (or fill) arrays and are layering-clean:
they know nothing about configs, engines or stats dataclasses.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ....errors import BitstreamError, ConfigError
from .loader import NativeUnavailable, is_available, load, reset

__all__ = [
    "NativeUnavailable",
    "is_available",
    "load",
    "reset",
    "pair_transform",
    "threshold_inplace",
    "RecirculatingLoop",
    "band_sizes",
    "pair_reduce",
    "stack_nbits",
    "bit_widths",
    "occupancy_peaks",
    "pack_values",
    "unpack_values",
    "pack_column",
]


def _p_i64(arr: np.ndarray) -> "ctypes._Pointer[ctypes.c_int64]":
    return arr.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))


def _p_i32(arr: np.ndarray) -> "ctypes._Pointer[ctypes.c_int32]":
    return arr.ctypes.data_as(ctypes.POINTER(ctypes.c_int32))


def _p_u8(arr: np.ndarray) -> "ctypes._Pointer[ctypes.c_uint8]":
    return arr.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8))


#: Pixel dtypes the frame kernels read (``band_sizes``,
#: ``RecirculatingLoop``): an engine's frame is 8- or 16-bit wide.
PIXEL_DTYPES = (np.dtype(np.uint8), np.dtype(np.uint16))


def pair_transform(
    image: np.ndarray,
    *,
    ll_dpcm: bool = False,
    wrap_bits: int | None = None,
) -> np.ndarray:
    """Level-1 transform of every adjacent row pair of ``image``.

    Returns the interleaved ``(H-1, 2, W)`` int32 plane stack — the
    native form of ``forward_inplace(sliding_band_stack(image, 2), 1)``
    (plus the optional LL DPCM), computed without materialising the
    overlapping pair views.
    """
    arr = np.ascontiguousarray(image, dtype=np.int64)
    if arr.ndim != 2:
        raise ConfigError(f"image must be 2D, got shape {arr.shape}")
    h, w = arr.shape
    if h < 2 or w % 2:
        raise ConfigError(f"need >= 2 rows and even width, got {arr.shape}")
    plane = np.empty((h - 1, 2, w), dtype=np.int32)
    load().repro_pair_transform(
        _p_i64(arr),
        h,
        w,
        1 if ll_dpcm else 0,
        wrap_bits if wrap_bits else 0,
        _p_i32(plane),
    )
    return plane


def threshold_inplace(
    plane: np.ndarray, threshold: int, *, exempt_mod: int = 0
) -> np.ndarray:
    """Zero ``|v| < threshold`` in an int32 plane stack, in place.

    ``exempt_mod`` exempts positions with ``row % mod == col % mod == 0``
    (the residual-LL mask).  ``threshold == 0`` is the identity, exactly
    like ``apply_threshold``.  The (contiguous int32) input is returned.
    """
    if threshold < 0:
        raise ConfigError(f"threshold must be >= 0, got {threshold}")
    arr = plane
    if arr.dtype != np.int32 or not arr.flags.c_contiguous or arr.ndim < 2:
        raise ConfigError("threshold_inplace needs a contiguous int32 plane")
    if threshold:
        rows, w = arr.shape[-2], arr.shape[-1]
        outer = arr.size // max(rows * w, 1)
        load().repro_threshold_i32(
            _p_i32(arr), outer, rows, w, threshold, exempt_mod
        )
    return arr


class RecirculatingLoop:
    """The level-1 recirculating loop of one frame, sized as it runs.

    ``image`` is the ``(H, W)`` frame and ``state`` the ``(N, W)`` band
    the next traversal presents; ``bands`` is the caller's ``(C, N, W)``
    chunk buffer.  All three hold pixels of one of :data:`PIXEL_DTYPES`,
    the same one, wide enough for ``pixel_max``.  Each :meth:`run` call
    runs up to ``C`` consecutive traversals in one C call.  Traversal ``k`` of the
    call writes its band to ``bands[k]``, transforms, DPCMs (``ll_dpcm``)
    and thresholds it (LL exempt when ``exempt_ll``), and writes its
    results at its frame index ``t = y - N + 1`` of the frame-sized
    outputs (``T = H - N + 1`` traversals):

    - ``nbits``, the ``(T, 2, W)`` uint8 per-parity NBits;
    - ``counts``, ``totals`` and ``peaks``, the ``(T,)`` int64
      significant counts, payload plus ``management_bits_per_column``
      bits per ring slot, and occupancy peaks against the previous
      traversal (the frame's first against itself);
    - ``group_peaks`` (or ``None``), the ``(T, G)`` int64 payload-only
      peaks of the ``G`` aligned row groups of ``N / G`` rows.

    It then replaces ``state`` with the next traversal's band: its
    reconstruction moved up one row, clipped to ``[0, pixel_max]`` (or
    wrapped into it when ``wrap_bits`` is set), and the next raw image
    row below.  The previous traversal's band and group columns live in
    this object's scratch, so a frame run in chunks, in traversal order,
    equals a frame run in one.  Every buffer is validated once, here,
    and its pointer bound once, so a call costs one C call.
    """

    def __init__(
        self,
        image: np.ndarray,
        state: np.ndarray,
        bands: np.ndarray,
        nbits: np.ndarray,
        counts: np.ndarray,
        totals: np.ndarray,
        peaks: np.ndarray,
        group_peaks: np.ndarray | None,
        *,
        threshold: int,
        exempt_ll: bool,
        ll_dpcm: bool,
        wrap_bits: int | None,
        pixel_max: int,
        management_bits_per_column: int,
    ) -> None:
        if image.ndim != 2 or state.ndim != 2 or bands.ndim != 3:
            raise ConfigError(
                f"RecirculatingLoop needs a 2D image and state and a 3D band "
                f"buffer, got {image.shape}, {state.shape} and {bands.shape}"
            )
        h, w = image.shape
        n = state.shape[0]
        if n < 2 or n % 2 or n > min(h, w) or w % 2:
            raise ConfigError(
                f"window {n} and width {w} do not fit a {h}-row image (need "
                "an even window of at most the height and width, and an "
                "even width)"
            )
        if threshold < 0:
            raise ConfigError(f"threshold must be >= 0, got {threshold}")
        t_total = h - n + 1
        groups = 0 if group_peaks is None else group_peaks.shape[-1]
        if group_peaks is not None and (groups < 1 or n % groups):
            raise ConfigError(f"{groups} groups do not divide a {n}-row band")
        pixels = image.dtype
        if pixels not in PIXEL_DTYPES or pixel_max > np.iinfo(pixels).max:
            raise ConfigError(
                f"image needs uint8 or uint16 pixels that hold pixel_max "
                f"{pixel_max}, got {pixels}"
            )
        buffers = [
            ("image", image, pixels, (h, w)),
            ("state", state, pixels, (n, w)),
            ("bands", bands, pixels, (max(bands.shape[0], 1), n, w)),
            ("nbits", nbits, np.uint8, (t_total, 2, w)),
            ("counts", counts, np.int64, (t_total,)),
            ("totals", totals, np.int64, (t_total,)),
            ("peaks", peaks, np.int64, (t_total,)),
        ]
        if group_peaks is not None:
            buffers.append(("group_peaks", group_peaks, np.int64, (t_total, groups)))
        for name, arr, dtype, shape in buffers:
            if arr.dtype != dtype or arr.shape != shape or not arr.flags.c_contiguous:
                raise ConfigError(
                    f"{name} needs a contiguous {np.dtype(dtype)} array of shape "
                    f"{shape}, got {arr.dtype} {arr.shape}"
                )
        self._frame = (h, n, bands.shape[0])
        # Scratch: one coefficient row pair, the band's n/2 pairs' widths
        # and flags, per-band (plus per-group) counts, and the carried
        # columns of the previous traversal.
        self._scratch = (
            np.empty(2 * w, dtype=np.int32),
            np.empty(n * 2 * w, dtype=np.uint8),
            np.empty((groups + 1) * 2 * w, dtype=np.int32),
            np.zeros(2 * (groups + 1) * w, dtype=np.int64),
        )
        coef, flags, cnt, cols = self._scratch
        self._head = (image.ctypes.data, h, w, n)
        self._tail = (
            threshold,
            1 if exempt_ll else 0,
            1 if ll_dpcm else 0,
            wrap_bits if wrap_bits else 0,
            pixel_max,
            pixels.itemsize,
            management_bits_per_column,
            groups,
            state.ctypes.data,
            bands.ctypes.data,
            _p_i32(coef),
            _p_u8(flags),
            _p_i32(cnt),
            _p_i64(cols),
            _p_u8(nbits),
            _p_i64(counts),
            _p_i64(totals),
            _p_i64(peaks),
            None if group_peaks is None else _p_i64(group_peaks),
        )
        self._kernel = load().repro_recirculate

    def run(self, first_traversal: int, count: int) -> None:
        """Run traversals ``first_traversal .. first_traversal + count - 1``.

        They follow the traversals of the previous call (or start the
        frame at ``N - 1``): the carried columns are the previous
        traversal's.
        """
        h, n, chunk = self._frame
        if not (1 <= count <= chunk and n - 1 <= first_traversal <= h - count):
            raise ConfigError(
                f"traversals {first_traversal} .. {first_traversal + count - 1} "
                f"do not fit a {chunk}-band buffer and a {h}-row image "
                f"with a {n}-row window"
            )
        self._kernel(*self._head, first_traversal, count, *self._tail)


def band_sizes(
    image: np.ndarray,
    window_size: int,
    *,
    threshold: int,
    exempt_ll: bool,
    ll_dpcm: bool,
    wrap_bits: int | None,
    management_bits_per_column: int,
    groups: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Per-band level-1 sizes of every traversal of ``image`` in one pass.

    ``image`` is the ``(H, W)`` frame of one of :data:`PIXEL_DTYPES` and
    ``window_size`` the band height ``N``.  Each row pair is transformed,
    DPCM'd (``ll_dpcm``) and thresholded (LL exempt when ``exempt_ll``)
    once, and every band is reduced as soon as its last pair is in, so no
    frame-sized plane is built.  Returns ``(nbits, counts, totals, peaks,
    group_peaks)``: the ``(T, 2, W)`` uint8 per-parity NBits, and per band the
    significant count, the payload plus ``management_bits_per_column``
    bits per ring slot, and the occupancy peak against the previous band
    (the first band against itself).  With ``groups`` set, the
    ``(T, groups)`` payload-only peaks of the aligned row groups of
    ``N / groups`` rows; otherwise ``None``.
    """
    arr = image
    if arr.dtype not in PIXEL_DTYPES or arr.ndim != 2 or not arr.flags.c_contiguous:
        raise ConfigError(
            f"band_sizes needs a contiguous 2D uint8 or uint16 image, got "
            f"{arr.dtype} {arr.shape}"
        )
    h, w = arr.shape
    n = window_size
    if n < 2 or n % 2 or n > min(h, w) or w % 2:
        raise ConfigError(
            f"window {n} and width {w} do not fit a {h}-row image (need an "
            "even window of at most the height and width, and an even width)"
        )
    if threshold < 0:
        raise ConfigError(f"threshold must be >= 0, got {threshold}")
    if groups is not None and (groups < 1 or n % groups):
        raise ConfigError(f"{groups} groups do not divide a {n}-row band")
    g = groups or 0
    t_total = h - n + 1
    nbits = np.empty((t_total, 2, w), dtype=np.uint8)
    counts = np.empty(t_total, dtype=np.int64)
    totals = np.empty(t_total, dtype=np.int64)
    peaks = np.empty(t_total, dtype=np.int64)
    group_peaks = None if groups is None else np.empty((t_total, g), dtype=np.int64)
    # Scratch: one coefficient row pair, the ring of n-1 pairs' widths
    # and flags, and per-band (plus per-group) counts and columns.
    coef = np.empty(2 * w, dtype=np.int32)
    ring = np.empty((n - 1) * 4 * w, dtype=np.uint8)
    cnt = np.empty((g + 1) * 2 * w, dtype=np.int32)
    cols = np.empty(2 * (g + 1) * w, dtype=np.int64)
    load().repro_band_sizes(
        arr.ctypes.data,
        h,
        w,
        n,
        threshold,
        1 if exempt_ll else 0,
        1 if ll_dpcm else 0,
        wrap_bits if wrap_bits else 0,
        arr.itemsize,
        management_bits_per_column,
        g,
        _p_i32(coef),
        _p_u8(ring),
        _p_i32(cnt),
        _p_i64(cols),
        _p_u8(nbits),
        _p_i64(counts),
        _p_i64(totals),
        _p_i64(peaks),
        None if group_peaks is None else _p_i64(group_peaks),
    )
    return nbits, counts, totals, peaks, group_peaks


def pair_reduce(
    plane: np.ndarray, window_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-band NBits / payload sizes from a ``(H-1, 2, W)`` pair plane.

    Band ``t`` of an ``N``-row window reduces pairs ``t, t+2, ..,
    t+N-2``.  Returns ``(nbits, cols, counts, sig)`` with shapes
    ``(T, 2, W)`` (uint8), ``(T, W)``, ``(T,)`` and ``(H-1, 2, W)`` (the
    pair plane's uint8 significance flags).  :func:`band_sizes` does the
    same work in one pass without the planes.
    """
    arr = plane
    if (
        arr.dtype != np.int32
        or not arr.flags.c_contiguous
        or arr.ndim != 3
        or arr.shape[1] != 2
    ):
        raise ConfigError("pair_reduce needs a contiguous (P, 2, W) int32 plane")
    pairs, _, w = arr.shape
    h = pairs + 1
    n = window_size
    if n < 2 or n % 2 or n > h:
        raise ConfigError(f"window {n} invalid for {h} image rows")
    t_total = h - n + 1
    widths8 = np.empty((pairs, 2, w), dtype=np.uint8)
    sig = np.empty((pairs, 2, w), dtype=np.uint8)
    maxw = np.empty((2, w), dtype=np.uint8)
    cnt = np.empty((2, w), dtype=np.int32)
    nbits = np.empty((t_total, 2, w), dtype=np.uint8)
    cols = np.empty((t_total, w), dtype=np.int64)
    counts = np.empty(t_total, dtype=np.int64)
    load().repro_pair_reduce(
        _p_i32(arr),
        h,
        w,
        n,
        _p_u8(widths8),
        _p_u8(sig),
        _p_u8(maxw),
        _p_i32(cnt),
        _p_u8(nbits),
        _p_i64(cols),
        _p_i64(counts),
    )
    return nbits, cols, counts, sig


def stack_nbits(plane: np.ndarray) -> np.ndarray:
    """Per-parity NBits of a ``(T, N, W)`` interleaved int32 stack.

    The native form of the two per-parity :func:`min_bits_signed`
    reductions in ``threshold_and_size``; returns ``(T, 2, W)`` int64.
    """
    arr = np.ascontiguousarray(plane, dtype=np.int32)
    if arr.ndim != 3:
        raise ConfigError(f"band stack must be (T, N, W), got {arr.shape}")
    t, rows, w = arr.shape
    nbits = np.empty((t, 2, w), dtype=np.int64)
    load().repro_stack_nbits_i32(_p_i32(arr), t, rows, w, _p_i64(nbits))
    return nbits


def bit_widths(values: np.ndarray) -> np.ndarray:
    """Element-wise minimum two's-complement widths (``bit_widths_signed``)."""
    arr = np.ascontiguousarray(values, dtype=np.int64)
    out = np.empty(arr.shape, dtype=np.int64)
    load().repro_bit_widths_i64(_p_i64(arr), arr.size, _p_i64(out))
    return out


def occupancy_peaks(
    cols: np.ndarray,
    window_size: int,
    management_bits_per_column: int,
    prev_last: np.ndarray | None = None,
) -> np.ndarray:
    """Per-traversal max of ``sliding_occupancy`` over a ``(T, W)`` stack.

    Traversal ``t`` references traversal ``t-1``'s sizes; ``prev_last``
    carries the previous chunk's final sizes (the first traversal of a
    frame references itself).
    """
    arr = np.ascontiguousarray(cols, dtype=np.int64)
    if arr.ndim != 2:
        raise ConfigError(f"cols must be (T, W), got {arr.shape}")
    t_total, w = arr.shape
    carry = None
    if prev_last is not None:
        carry = np.ascontiguousarray(prev_last, dtype=np.int64)
        if carry.shape != (w,):
            raise ConfigError(
                f"prev_last must have shape ({w},), got {carry.shape}"
            )
    peaks = np.empty(t_total, dtype=np.int64)
    load().repro_occupancy_peaks(
        _p_i64(arr),
        t_total,
        w,
        window_size,
        management_bits_per_column,
        _p_i64(carry) if carry is not None else None,
        _p_i64(peaks),
    )
    return peaks


def pack_values(values: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Native ``values_to_bits``: LSB-first 0/1 flags of each field."""
    vals = np.ascontiguousarray(values, dtype=np.int64).ravel()
    wid = np.ascontiguousarray(widths, dtype=np.int64).ravel()
    if vals.shape != wid.shape:
        raise BitstreamError(
            f"values/widths shapes differ: {vals.shape} vs {wid.shape}"
        )
    if wid.size and int(wid.min()) < 0:
        raise BitstreamError("field widths must be non-negative")
    total = int(wid.sum())
    bits = np.empty(total, dtype=np.uint8)
    written = int(
        load().repro_pack_values(_p_i64(vals), _p_i64(wid), wid.size, _p_u8(bits))
    )
    if written != total:
        raise BitstreamError(
            f"native packer wrote {written} bits, expected {total}"
        )
    return bits


def unpack_values(
    bits: np.ndarray, widths: np.ndarray, *, signed: bool = True
) -> np.ndarray:
    """Native ``bits_to_values``: reassemble one integer per field."""
    wid = np.ascontiguousarray(widths, dtype=np.int64).ravel()
    if wid.size and int(wid.min()) < 0:
        raise BitstreamError("field widths must be non-negative")
    total = int(wid.sum())
    bit_arr = np.ascontiguousarray(bits, dtype=np.uint8).ravel()
    if bit_arr.size < total:
        raise BitstreamError(
            f"need {total} bits to decode fields, stream has {bit_arr.size}"
        )
    out = np.empty(wid.shape, dtype=np.int64)
    load().repro_unpack_values(
        _p_u8(bit_arr), _p_i64(wid), wid.size, 1 if signed else 0, _p_i64(out)
    )
    return out


def pack_column(
    column: np.ndarray, *, threshold: int = 0, exempt_even: bool = False
) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Native ``pack_interleaved_column`` core.

    Returns ``(nbits_even, nbits_odd, bitmap, payload)`` for one
    even-length interleaved coefficient column.
    """
    col = np.ascontiguousarray(column, dtype=np.int64)
    if col.ndim != 1 or col.size % 2:
        raise ConfigError(
            f"expected an even-length 1D column, got shape {col.shape}"
        )
    if threshold < 0:
        raise ConfigError(f"threshold must be >= 0, got {threshold}")
    n = col.size
    nbits = np.empty(2, dtype=np.int64)
    bitmap = np.empty(n, dtype=np.uint8)
    payload = np.empty(n * 64, dtype=np.uint8)
    used = int(
        load().repro_pack_column(
            _p_i64(col),
            n,
            threshold,
            1 if exempt_even else 0,
            _p_i64(nbits),
            _p_u8(bitmap),
            _p_u8(payload),
        )
    )
    return int(nbits[0]), int(nbits[1]), bitmap.astype(bool), payload[:used].copy()
