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
    SUBBAND_PARITIES,
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

    The slimmed-down product of :func:`band_stack_sizes`: just the
    quantities the engine's occupancy accounting and plan check need,
    without materialising per-coefficient planes for every traversal.
    """

    config: ArchitectureConfig
    #: Packed payload bits per plane column, shape ``(T, W)``.
    payload_bits_per_column: np.ndarray
    #: Per-parity NBits, shape ``(T, 2, W)``, uint8 (a field is at most 32).
    nbits: np.ndarray
    #: Significant (non-zero) coefficients per band, shape ``(T,)``.
    significant_counts: np.ndarray
    #: Significance flags of every sliding ``2**L``-row block, shape
    #: ``(H - 2**L + 1, 2**L, W)``: row ``j`` of band ``t`` is row ``j %
    #: 2**L`` of block ``t + 2**L * (j // 2**L)``.
    bitmap: np.ndarray

    @property
    def management_bits_per_column(self) -> int:
        """NBits fields plus bitmap bits per column (same for every band)."""
        return 2 * self.config.nbits_field_width + self.config.window_size

    def group_payload_columns(
        self, rows_per_group: int
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Payload bits per plane column of each aligned row group.

        Yields ``(t0, cols)`` in traversal order, where ``cols[c, g]`` is
        the ``(W,)`` column sizes of band rows ``g*rows_per_group ..
        (g+1)*rows_per_group - 1`` on traversal ``t0 + c``: the group's
        significant coefficients per row parity times that parity's band
        NBits, i.e. :attr:`BandAccounting.widths` summed over the group
        rows without building them.  Traversals come in chunks of at most
        :data:`GROUP_CHUNK_VALUES` group-column values, which bounds the
        working set whatever the group count.
        """
        n, w = self.config.window_size, self.config.image_width
        groups = n // rows_per_group
        if groups == 1:  # one group holds every row: the band's columns
            yield 0, self.payload_bits_per_column[:, None]
            return
        block = self.bitmap.shape[1]
        flags = self.bitmap.view(np.uint8)
        # Per-parity counts reach ceil(r/2), and NBits fit a byte.
        count_dtype = np.min_scalar_type(rows_per_group)
        bits_dtype = np.min_scalar_type(64 * rows_per_group)
        t_total = self.nbits.shape[0]
        step = max(1, GROUP_CHUNK_VALUES // (groups * w))
        for t0 in range(0, t_total, step):
            c = min(step, t_total - t0)
            nbits = self.nbits[t0 : t0 + c]
            # Group-major storage keeps each group's (C, W) slice contiguous.
            out = np.empty((groups, c, w), dtype=np.int64)
            for g in range(groups):
                counts = np.zeros((2, c, w), dtype=count_dtype)
                for j in range(g * rows_per_group, (g + 1) * rows_per_group):
                    k = t0 + block * (j // block)  # band row j's block
                    counts[j % 2] += flags[k : k + c, j % block]
                bits = np.multiply(nbits.transpose(1, 0, 2), counts, dtype=bits_dtype)
                np.add(bits[0], bits[1], out=out[g])
            yield t0, out.transpose(1, 0, 2)


#: Group-column values per :meth:`BandStackSizes.group_payload_columns`
#: chunk (8 MB of int64): a 512x512 frame with two groups is one chunk,
#: and a 2048x2048 frame's plan check stays small at any group count.
GROUP_CHUNK_VALUES = 1 << 20


def band_stack_sizes(
    config: ArchitectureConfig,
    image: np.ndarray,
    *,
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
    blocks of each band.  Bit-identical to reducing :func:`analyze_band`
    over the band stack (property-tested).  The block significance flags
    stay on the result for
    :meth:`BandStackSizes.group_payload_columns`.  Blocks transform in
    chunks of at most :data:`BLOCK_CHUNK_VALUES` coefficients, one chunk
    for frames up to 512x512.

    ``probe`` times the ``transform`` / ``threshold`` / ``pack`` stages
    (one span per chunk pass).  ``codec`` selects the kernel
    implementation — ``"numpy"`` (default) or the compiled ``"native"``
    tier, a *resolved* name from
    :func:`repro.core.packing.tiers.resolve_codec`; both produce
    bit-identical sizes (property-tested).  The native tier runs the
    single-level case as fused pair-transform and pair-reduce kernels.
    """
    prb = probe if probe is not None else NULL_PROBE
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ConfigError(f"image must be 2D, got shape {arr.shape}")
    n = config.window_size
    h, w = arr.shape
    if h < n:
        raise ConfigError(f"image height {h} shorter than one {n}-band")
    levels = config.decomposition_levels
    exempt_mod = ll_exempt_mod(config)
    if codec == "native" and levels == 1:  # fused pair kernels
        with prb.span("transform"):
            plane = native_codec.pair_transform(
                arr, ll_dpcm=config.ll_dpcm, wrap_bits=config.wrap_bits
            )
        with prb.span("threshold"):
            native_codec.threshold_inplace(
                plane, config.threshold, exempt_mod=exempt_mod
            )
        with prb.span("pack"):
            nbits, cols, counts, bitmap = native_codec.pair_reduce(plane, n)
        return BandStackSizes(config, cols, nbits, counts, bitmap)
    block = 1 << levels
    blocks = sliding_band_stack(arr, block)  # (H-B+1, B, W) zero-copy
    n_blocks = blocks.shape[0]
    # Per-block NBits and significant counts per row parity both fit a
    # byte; the flags are kept for the group columns.
    block_nbits = np.empty((n_blocks, 2, w), dtype=np.uint8)
    block_counts = np.empty((n_blocks, 2, w), dtype=np.uint8)
    bitmap = np.empty((n_blocks, block, w), dtype=bool)
    step = max(1, BLOCK_CHUNK_VALUES // (block * w))
    for b0 in range(0, n_blocks, step):
        chunk = slice(b0, b0 + step)
        with prb.span("transform"):
            plane = forward_inplace(
                blocks[chunk], levels, wrap_bits=config.wrap_bits
            )
            if config.ll_dpcm:
                plane = ll_dpcm_forward(plane, levels)
        _, block_nbits[chunk], bitmap[chunk] = threshold_and_size(
            plane, config.threshold, exempt_mod=exempt_mod, codec=codec, probe=prb
        )
        np.add.reduce(
            bitmap[chunk].reshape(-1, block // 2, 2, w),
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
    return BandStackSizes(config, cols, nbits, signif_totals, bitmap)


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


def iter_bands(
    config: ArchitectureConfig,
    image: np.ndarray,
    *,
    row_stride: int | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(bottom_row, band)`` slices of the image.

    ``row_stride`` defaults to the window size (non-overlapping bands),
    which is the sampling the sweep experiments use; pass 1 for every
    traversal position.
    """
    n = config.window_size
    h = np.asarray(image).shape[0]
    stride = row_stride if row_stride is not None else n
    if stride < 1:
        raise ConfigError(f"row_stride must be >= 1, got {stride}")
    for y in range(n - 1, h, stride):
        yield y, image[y - n + 1 : y + 1]


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
    """Whole-image compression summary (one image, one configuration)."""

    config: ArchitectureConfig
    #: Mean over sampled bands of payload bits (all W columns).
    mean_band_payload_bits: float
    #: Worst sampled band payload bits.
    max_band_payload_bits: int
    #: Peak buffered bits across all sampled traversals (Fig 3's ceiling).
    peak_buffer_bits: int
    #: Worst per-row packed bits over all sampled bands (BRAM mapping input).
    worst_row_bits: int
    #: Per-row worst sizes, aligned groups of rows use this (length N).
    row_bits_worst: np.ndarray
    #: Mean payload per sub-band.
    subband_mean_bits: dict[str, float]
    bands_sampled: int

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
    config: ArchitectureConfig,
    image: np.ndarray,
    *,
    row_stride: int | None = None,
) -> ImageCompressionReport:
    """Sweep the sampled bands of ``image`` and aggregate the accounting."""
    arr = np.asarray(image)
    payloads: list[int] = []
    row_worst = np.zeros(config.window_size, dtype=np.int64)
    subband_sums: dict[str, float] = {k: 0.0 for k in SUBBAND_PARITIES}
    peak = 0
    prev_cols: np.ndarray | None = None
    count = 0
    mgmt = 0
    for _, band in iter_bands(config, arr, row_stride=row_stride):
        analysis = analyze_band(config, band)
        mgmt = analysis.management_bits_per_column
        cols = analysis.payload_bits_per_column
        payloads.append(analysis.payload_bits)
        row_worst = np.maximum(row_worst, analysis.payload_bits_per_row)
        for k, v in analysis.subband_payload_bits().items():
            subband_sums[k] += v
        reference = cols if prev_cols is None else prev_cols
        occ = sliding_occupancy(reference, cols, config.window_size, mgmt)
        peak = max(peak, int(occ.max()))
        prev_cols = cols
        count += 1
    if count == 0:
        raise ConfigError("image shorter than one window band")
    return ImageCompressionReport(
        config=config,
        mean_band_payload_bits=float(np.mean(payloads)),
        max_band_payload_bits=int(np.max(payloads)),
        peak_buffer_bits=peak,
        worst_row_bits=int(row_worst.max()),
        row_bits_worst=row_worst,
        subband_mean_bits={k: v / count for k, v in subband_sums.items()},
        bands_sampled=count,
    )
