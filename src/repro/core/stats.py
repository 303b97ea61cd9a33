"""Compression accounting: bit totals, occupancy traces and savings.

Everything the paper's evaluation measures reduces to bit arithmetic over
per-column / per-row compressed sizes:

- Fig 3 plots buffered bits per sub-band as the window slides;
- Fig 13 plots the memory saving of Eq. (5);
- Tables II-V map worst-case per-row packed sizes onto 18 Kb BRAMs.

This module computes those quantities from a band's packed *widths* without
materialising any payload bits, so whole-image sweeps at 2048x2048 stay
cheap.  The sizing is the compressor's own threshold-and-size step
(:func:`repro.core.packing.packer.threshold_and_size`), so the bit-stream
codec (:class:`repro.core.packing.packer.BandCodec`) decodes exactly the
plane analysed here — property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..config import ArchitectureConfig
from ..errors import ConfigError
from ..observability.probe import NULL_PROBE, Probe
from .packing import native as native_codec
from .packing.packer import (
    BandAccounting,
    ll_exempt_mod,
    threshold_and_size,
)
from .transform.haar2d import (
    forward_inplace,
    inverse_inplace,
    ll_dpcm_forward,
    ll_dpcm_inverse,
)


@dataclass(frozen=True)
class BandAnalysis(BandAccounting):
    """Compression analysis of one ``(N, W)`` band or a ``(T, N, W)`` stack.

    The :class:`~repro.core.packing.packer.BandAccounting` of the bands
    plus their thresholded coefficient plane; the reconstruction is
    computed on request.
    """

    #: Thresholded interleaved coefficient plane, shape ``(..., N, W)``.
    plane: np.ndarray

    def reconstruct(self, *, clip: bool = True) -> np.ndarray:
        """Inverse-transform the thresholded plane back to pixels.

        ``clip=True`` maps back to the pixel range — saturating for the
        wide datapath, modulo for a wrap-around datapath (exact by
        construction).
        """
        plane = self.plane
        if self.config.ll_dpcm:
            plane = ll_dpcm_inverse(plane, self.config.decomposition_levels)
        band = inverse_inplace(
            plane, self.config.decomposition_levels, wrap_bits=self.config.wrap_bits
        )
        if clip:
            if self.config.wrap_coefficients:
                band = band & self.config.pixel_max
            else:
                band = np.clip(band, 0, self.config.pixel_max)
        return band


def analyze_band(
    config: ArchitectureConfig,
    bands: np.ndarray,
    *,
    probe: Probe | None = None,
    codec: str = "numpy",
) -> BandAnalysis:
    """Transform, threshold and size a band (no payload bits built).

    ``bands`` is one ``(N, W)`` band or a ``(T, N, W)`` stack, analysed in
    one vectorised pass; element ``[t]`` of every result is what band
    ``t`` alone gives.  ``probe`` times the ``transform`` / ``threshold``
    / ``pack`` stages; ``codec`` is a *resolved* tier name from
    :func:`repro.core.packing.tiers.resolve_codec` (bit-identical either
    way).
    """
    prb = probe if probe is not None else NULL_PROBE
    arr = np.asarray(bands)
    if arr.ndim not in (2, 3) or arr.shape[-2] % 2 or arr.shape[-1] % 2:
        raise ConfigError(
            f"bands must be (N, W) or (T, N, W) with even N and W, got {arr.shape}"
        )
    with prb.span("transform"):
        plane = forward_inplace(
            arr, config.decomposition_levels, wrap_bits=config.wrap_bits
        )
        if config.ll_dpcm:
            plane = ll_dpcm_forward(plane, config.decomposition_levels)
    plane, nbits, bitmap = threshold_and_size(
        plane,
        config.threshold,
        exempt_mod=ll_exempt_mod(config),
        codec=codec,
        probe=prb,
    )
    return BandAnalysis(config=config, nbits=nbits, bitmap=bitmap, plane=plane)


@dataclass(frozen=True, slots=True)
class BandStackSizes:
    """Per-traversal compressed-size accounting of a whole frame.

    The product of :func:`band_stack_sizes`: per-band results only, the
    quantities the engine's occupancy accounting, plan check and band
    histograms need, with no per-coefficient or per-column plane kept.
    """

    config: ArchitectureConfig
    #: Per-parity NBits, shape ``(T, 2, W)``, uint8 (a field is at most 32).
    nbits: np.ndarray
    #: Significant (non-zero) coefficients per band, shape ``(T,)``.
    significant_counts: np.ndarray
    #: Payload bits plus management bits of the ``W - N`` ring slots per
    #: band, shape ``(T,)``.
    band_totals: np.ndarray
    #: Occupancy peak of each traversal (:func:`occupancy_peaks`), shape
    #: ``(T,)``.
    band_peaks: np.ndarray
    #: Payload-only occupancy peak of each aligned group of
    #: ``rows_per_group`` band rows, shape ``(T, G)``; ``None`` when no
    #: group size was asked for.
    group_peaks: np.ndarray | None

    @property
    def management_bits_per_column(self) -> int:
        """NBits fields plus bitmap bits per column (same for every band)."""
        return 2 * self.config.nbits_field_width + self.config.window_size

    @classmethod
    def empty(
        cls, config: ArchitectureConfig, traversals: int, groups: int | None
    ) -> "BandStackSizes":
        """Unfilled results of ``traversals`` bands (``groups`` per band)."""
        return cls(
            config,
            np.empty((traversals, 2, config.image_width), dtype=np.uint8),
            np.empty(traversals, dtype=np.int64),
            np.empty(traversals, dtype=np.int64),
            np.empty(traversals, dtype=np.int64),
            None if groups is None else np.empty((traversals, groups), dtype=np.int64),
        )

    def chunk(self, start: int, stop: int) -> "BandStackSizes":
        """Views of traversals ``start .. stop - 1`` (writes go through)."""
        window = slice(start, stop)
        return BandStackSizes(
            self.config,
            self.nbits[window],
            self.significant_counts[window],
            self.band_totals[window],
            self.band_peaks[window],
            None if self.group_peaks is None else self.group_peaks[window],
        )


def occupancy_peaks(
    cols: np.ndarray,
    window_size: int,
    management_bits_per_column: int,
    prev_last: np.ndarray | None = None,
) -> np.ndarray:
    """Per-traversal maximum of :func:`sliding_occupancy`, in closed form.

    ``cols`` is a ``(C, ..., W)`` stack of consecutive traversals' column
    sizes; each traversal references the previous one's, ``prev_last``
    (shape ``cols.shape[1:]``) carries the traversal before the stack, and
    without it the first traversal references itself.  Position ``x``
    holds the previous band's first ``W - N`` columns with its first
    ``k`` replaced by the current band's, ``k = 0 .. W - N``, so the peak
    is that total plus the best prefix of ``cur - prev``.  Returns shape
    ``cols.shape[:-1]``.
    """
    span = cols.shape[-1] - window_size
    head = cols[..., :span].astype(np.int64, copy=False)
    carry = head[:1] if prev_last is None else prev_last[None, ..., :span]
    prev = np.concatenate([carry, head[:-1]], axis=0)
    gain = np.cumsum(head - prev, axis=-1)
    return (
        prev.sum(axis=-1)
        + gain.max(axis=-1, initial=0)
        + management_bits_per_column * span
    )


#: Group-column values per chunk of :func:`band_stack_sizes`'s group
#: peaks on the NumPy route (8 MB of int64): a 512x512 frame with two
#: groups is one chunk, and a 2048x2048 frame's plan check stays small at
#: any group count.
GROUP_CHUNK_VALUES = 1 << 20


def _group_peaks(
    config: ArchitectureConfig,
    nbits: np.ndarray,
    bitmap: np.ndarray,
    rows_per_group: int,
) -> np.ndarray:
    """``(T, G)`` payload-only occupancy peaks of aligned row groups.

    Group ``g`` of band ``t`` holds band rows ``g*r .. (g+1)*r - 1``; its
    column sizes are the group's significant coefficients per row parity
    times that parity's band NBits (:attr:`BandAccounting.widths` summed
    over the group rows without building them).  Row ``j`` of band ``t``
    is row ``j % B`` of the ``B = 2**L``-row block ``t + B * (j // B)``
    in ``bitmap``.  Traversals come in chunks of at most
    :data:`GROUP_CHUNK_VALUES` group-column values, which bounds the
    working set whatever the group count; the occupancy carry crosses
    every chunk boundary.
    """
    n, w = config.window_size, config.image_width
    groups = n // rows_per_group
    block = bitmap.shape[1]
    flags = bitmap.view(np.uint8)
    # Per-parity counts reach ceil(r/2), and NBits fit a byte.
    count_dtype = np.min_scalar_type(rows_per_group)
    bits_dtype = np.min_scalar_type(64 * rows_per_group)
    t_total = nbits.shape[0]
    peaks = np.empty((t_total, groups), dtype=np.int64)
    prev_last: np.ndarray | None = None
    step = max(1, GROUP_CHUNK_VALUES // (groups * w))
    for t0 in range(0, t_total, step):
        c = min(step, t_total - t0)
        chunk_nbits = nbits[t0 : t0 + c].transpose(1, 0, 2)
        cols = np.empty((c, groups, w), dtype=np.int64)
        for g in range(groups):
            counts = np.zeros((2, c, w), dtype=count_dtype)
            for j in range(g * rows_per_group, (g + 1) * rows_per_group):
                k = t0 + block * (j // block)  # band row j's block
                counts[j % 2] += flags[k : k + c, j % block]
            bits = np.multiply(chunk_nbits, counts, dtype=bits_dtype)
            np.add(bits[0], bits[1], out=cols[:, g])
        peaks[t0 : t0 + c] = occupancy_peaks(cols, n, 0, prev_last)
        prev_last = cols[-1]
    return peaks


def band_stack_sizes(
    config: ArchitectureConfig,
    image: np.ndarray,
    *,
    rows_per_group: int | None = None,
    probe: Probe | None = None,
    codec: str = "numpy",
) -> BandStackSizes:
    """Compressed sizes of every traversal band in shared-block dataflow.

    Adjacent bands overlap in ``N - 1`` rows, and an ``L``-level in-place
    pyramid, the horizontal LL DPCM and the residual-LL threshold lattice
    only ever combine rows inside an aligned ``B = 2**L``-row block: band
    ``t`` is the blocks starting at rows ``t, t+B, .., t+N-B``, each
    transformed on its own.  So instead of transforming a ``(T, N, W)``
    stack (``~N/B`` redundant copies of every block), transform each of
    the ``H - B + 1`` sliding blocks once — an O(B·H·W) pass — threshold
    and size them with the tier's
    :func:`~repro.core.packing.packer.threshold_and_size`, then reduce
    per-band NBits (max) and significance counts (sum) over the ``N/B``
    blocks of each band, and take each band's total and occupancy peak
    (:func:`occupancy_peaks`).  Bit-identical to reducing
    :func:`analyze_band` over the band stack (property-tested).  Blocks
    transform in chunks of at most :data:`BLOCK_CHUNK_VALUES`
    coefficients, one chunk for frames up to 512x512.  With
    ``rows_per_group`` (a memory plan's payload group height), the
    result also carries each aligned row group's payload peaks.

    ``probe`` times the ``transform`` / ``threshold`` / ``pack`` stages
    (one span per chunk pass) and the ``fifo`` accounting.  ``codec``
    selects the kernel implementation — ``"numpy"`` (default) or the
    compiled ``"native"`` tier, a *resolved* name from
    :func:`repro.core.packing.tiers.resolve_codec`; both produce
    bit-identical results (property-tested).  The native tier runs the
    single-level case as one fused streaming pass,
    :func:`repro.core.packing.native.band_sizes`, timed as one ``size``
    span; it keeps per-band results only and reads 8- or 16-bit pixels
    as they are (a wider integer image must hold pixels in ``[0,
    pixel_max]`` and is narrowed to ``config.pixel_dtype`` first).
    """
    prb = probe if probe is not None else NULL_PROBE
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ConfigError(f"image must be 2D, got shape {arr.shape}")
    n = config.window_size
    h, w = arr.shape
    if h < n:
        raise ConfigError(f"image height {h} shorter than one {n}-band")
    if rows_per_group is not None and (rows_per_group < 1 or n % rows_per_group):
        raise ConfigError(
            f"rows_per_group {rows_per_group} does not divide a {n}-row band"
        )
    groups = None if rows_per_group is None else n // rows_per_group
    mgmt = 2 * config.nbits_field_width + n
    levels = config.decomposition_levels
    exempt_mod = ll_exempt_mod(config)
    if codec == "native" and levels == 1:  # one fused streaming pass
        pixels = arr
        if arr.dtype not in native_codec.PIXEL_DTYPES:
            config.check_pixels(arr)
            pixels = arr.astype(config.pixel_dtype)
        with prb.span("size"):
            nbits, counts, totals, peaks, group_peaks = native_codec.band_sizes(
                np.ascontiguousarray(pixels),
                n,
                threshold=config.threshold,
                exempt_ll=bool(exempt_mod),
                ll_dpcm=config.ll_dpcm,
                wrap_bits=config.wrap_bits,
                management_bits_per_column=mgmt,
                groups=groups,
            )
        return BandStackSizes(config, nbits, counts, totals, peaks, group_peaks)
    block = 1 << levels
    blocks = sliding_band_stack(arr, block)  # (H-B+1, B, W) zero-copy
    n_blocks = blocks.shape[0]
    # Per-block NBits and significant counts per row parity both fit a
    # byte; the flags are kept only for a plan's group peaks.
    block_nbits = np.empty((n_blocks, 2, w), dtype=np.uint8)
    block_counts = np.empty((n_blocks, 2, w), dtype=np.uint8)
    keep_flags = groups is not None and groups > 1
    bitmap = np.empty((n_blocks, block, w), dtype=bool) if keep_flags else None
    step = max(1, BLOCK_CHUNK_VALUES // (block * w))
    for b0 in range(0, n_blocks, step):
        chunk = slice(b0, b0 + step)
        with prb.span("transform"):
            plane = forward_inplace(
                blocks[chunk], levels, wrap_bits=config.wrap_bits
            )
            if config.ll_dpcm:
                plane = ll_dpcm_forward(plane, levels)
        _, block_nbits[chunk], flags = threshold_and_size(
            plane, config.threshold, exempt_mod=exempt_mod, codec=codec, probe=prb
        )
        if bitmap is not None:
            bitmap[chunk] = flags
        np.add.reduce(
            flags.reshape(-1, block // 2, 2, w),
            axis=1,
            dtype=np.uint8,
            out=block_counts[chunk],
        )
    with prb.span("pack"):
        t_total = h - n + 1
        # Band t reduces blocks t, t+B, .., t+N-B: N/B contiguous slices.
        nbits = block_nbits[:t_total].copy()
        counts = block_counts[:t_total].astype(np.min_scalar_type(n))
        for start in range(block, n, block):
            np.maximum(nbits, block_nbits[start : start + t_total], out=nbits)
            counts += block_counts[start : start + t_total]
        # Every element of a band row packs its parity's band NBits when
        # significant; summing a column is counts x NBits per parity.
        cols = np.multiply(counts[:, 0], nbits[:, 0], dtype=np.int64)
        cols += np.multiply(counts[:, 1], nbits[:, 1], dtype=np.int64)
        signif_totals = counts.sum(axis=(1, 2), dtype=np.int64)
    with prb.span("fifo"):
        span = w - n
        totals = cols.sum(axis=1) + mgmt * span
        peaks = occupancy_peaks(cols, n, mgmt)
        if groups is None:
            group_peaks = None
        elif bitmap is None:  # one group holds the band's columns
            group_peaks = (peaks - mgmt * span)[:, None]
        else:
            group_peaks = _group_peaks(config, nbits, bitmap, n // groups)
    return BandStackSizes(config, nbits, signif_totals, totals, peaks, group_peaks)


#: Coefficients per :func:`band_stack_sizes` transform chunk (16 MB of
#: int32): a 512x512 frame is one chunk at every level, and a 2048x2048
#: frame's deeper pyramids stay within a bounded working set.
BLOCK_CHUNK_VALUES = 1 << 22


def sliding_band_stack(image: np.ndarray, window_size: int) -> np.ndarray:
    """Zero-copy ``(T, N, W)`` view of every traversal band of ``image``.

    Band ``t`` is rows ``t .. t+N-1`` — exactly the band the compressed
    engine compresses on traversal ``y = t + N - 1``.  Built with
    ``sliding_window_view``, so no pixel data is duplicated.
    """
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ConfigError(f"image must be 2D, got shape {arr.shape}")
    if not 1 <= window_size <= arr.shape[0]:
        raise ConfigError(
            f"window {window_size} exceeds image height {arr.shape[0]}"
        )
    # (H-N+1, W, N) view -> (T, N, W) without copying.
    view = np.lib.stride_tricks.sliding_window_view(arr, window_size, axis=0)
    return view.transpose(0, 2, 1)


#: Band values per :func:`aligned_band_chunks` chunk (512 KB of int64
#: pixels): the design-time sweeps stay cache-sized at any width, and a
#: band larger than this is a chunk of its own.
BAND_CHUNK_VALUES = 1 << 16


def aligned_band_chunks(
    config: ArchitectureConfig, image: np.ndarray
) -> Iterator[np.ndarray]:
    """Yield ``(C, N, W)`` views of the non-overlapping N-row bands.

    Band ``k`` is rows ``k*N .. k*N + N - 1``, the sampling the paper's
    sweeps use; bands come ``C`` at a time, about
    :data:`BAND_CHUNK_VALUES` values per chunk (one band when a band
    alone is larger), in order.  Rows below the last full band are not
    covered.
    """
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ConfigError(f"image must be 2D, got shape {arr.shape}")
    n = config.window_size
    h, w = arr.shape
    if h < n:
        raise ConfigError(f"image height {h} shorter than one {n}-band")
    bands = arr[: h - h % n].reshape(-1, n, w)
    step = max(1, BAND_CHUNK_VALUES // (n * w))
    for b0 in range(0, bands.shape[0], step):
        yield bands[b0 : b0 + step]


def sliding_occupancy(
    prev_sizes: np.ndarray,
    cur_sizes: np.ndarray,
    window_size: int,
    management_bits_per_column: int,
) -> np.ndarray:
    """Buffered bits at every horizontal position of one traversal.

    The line buffers form a ring of exactly ``W - N`` column slots.  At
    position ``x`` the resident set is the *previous* band's columns
    ``x-N+1 .. W-N-1`` (not yet replaced) plus the *current* band's
    columns ``0 .. x-N`` (already compressed and stored) — always
    ``W - N`` slots in total.  Management bits are a constant per slot.

    The column axis is the last one; leading axes are batch dimensions,
    so a whole frame's ``(T, W)`` size stacks resolve in one call (the
    engine fast path relies on this).
    """
    prev = np.asarray(prev_sizes, dtype=np.int64)
    cur = np.asarray(cur_sizes, dtype=np.int64)
    if prev.shape != cur.shape or prev.ndim < 1:
        raise ConfigError(
            f"size arrays must be equal-shape (..., W), "
            f"got {prev.shape} vs {cur.shape}"
        )
    w = prev.shape[-1]
    n = window_size
    zero = np.zeros(prev.shape[:-1] + (1,), dtype=np.int64)
    prefix_prev = np.concatenate([zero, np.cumsum(prev, axis=-1)], axis=-1)
    prefix_cur = np.concatenate([zero, np.cumsum(cur, axis=-1)], axis=-1)
    # prev columns 0 .. W-N-1 (kept as (..., 1) so the batch case broadcasts)
    total_prev = prefix_prev[..., w - n : w - n + 1]
    x = np.arange(w)
    limit = np.clip(x - n + 1, 0, w - n)
    prev_part = total_prev - prefix_prev[..., limit]
    cur_part = prefix_cur[..., limit]
    return prev_part + cur_part + management_bits_per_column * (w - n)


@dataclass(frozen=True, slots=True)
class ImageCompressionReport:
    """Design-time sizing of one image under one configuration."""

    config: ArchitectureConfig
    #: Peak buffered bits across the aligned bands (Fig 13's footprint).
    peak_buffer_bits: int
    #: Worst packed bits of each band row over the aligned bands (length
    #: N): the BRAM mapping input.
    row_bits_worst: np.ndarray

    @property
    def traditional_bits(self) -> int:
        """Raw buffering cost of the traditional architecture."""
        return self.config.traditional_buffer_bits

    @property
    def memory_saving_percent(self) -> float:
        """Eq. (5) applied to the peak buffered footprint."""
        if self.traditional_bits == 0:
            return 0.0
        return (1.0 - self.peak_buffer_bits / self.traditional_bits) * 100.0


def analyze_image(
    config: ArchitectureConfig, image: np.ndarray
) -> ImageCompressionReport:
    """Size the aligned bands of ``image``: peak buffer and worst rows.

    One :func:`analyze_band` stack per :func:`aligned_band_chunks`
    chunk.  Each band's occupancy peak (:func:`occupancy_peaks`)
    references the aligned band before it, the first band itself.
    """
    n = config.window_size
    row_worst = np.zeros(n, dtype=np.int64)
    peak = 0
    prev_last: np.ndarray | None = None
    for bands in aligned_band_chunks(config, image):
        analysis = analyze_band(config, bands)
        cols = analysis.payload_bits_per_column
        np.maximum(row_worst, analysis.payload_bits_per_row.max(axis=0), out=row_worst)
        peaks = occupancy_peaks(
            cols, n, analysis.management_bits_per_column, prev_last
        )
        peak = max(peak, int(peaks.max()))
        prev_last = cols[-1]
    row_worst.flags.writeable = False  # reports are shared by the suite memo
    return ImageCompressionReport(
        config=config, peak_buffer_bits=peak, row_bits_worst=row_worst
    )
