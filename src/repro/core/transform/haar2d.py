"""Separable single-level and multi-level 2D integer Haar transforms.

The architecture applies the 2D transform to 2x2 pixel blocks formed from
two adjacent image columns (Fig 5): stage one transforms each *vertical*
pair inside a column, stage two combines the two columns *horizontally*.
The separable equivalent used here — rows first, then columns, with the
mirrored inverse order — is bit-exact against the gate-level block model in
:mod:`repro.core.transform.hwmodel` (property-tested).

Sub-band naming follows the paper:

========  =============================  =========================
Sub-band  Filtering (horizontal, vert.)  Content
========  =============================  =========================
LL        low, low                       approximation
LH        low, high                      vertical detail
HL        high, low                      horizontal detail
HH        high, high                     diagonal detail
========  =============================  =========================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...errors import ConfigError
from .haar1d import COEFF_DTYPE, forward_1d, inverse_1d


@dataclass(frozen=True, slots=True)
class Subbands:
    """The four sub-band coefficient planes of one decomposition level.

    Each plane has half the parent resolution along both axes.  Planes are
    ``COEFF_DTYPE`` arrays; ``ll`` of the final level carries the residual
    approximation.  Planes may carry leading batch axes (the last two axes
    are always the spatial ones) — a ``(T, N, W)`` band stack transforms
    in one shot, which is what the frame-at-once engine fast path uses.
    """

    ll: np.ndarray
    lh: np.ndarray
    hl: np.ndarray
    hh: np.ndarray

    def __post_init__(self) -> None:
        shapes = {self.ll.shape, self.lh.shape, self.hl.shape, self.hh.shape}
        if len(shapes) != 1:
            raise ConfigError(f"sub-band shapes disagree: {shapes}")

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of each individual sub-band plane."""
        return self.ll.shape

    def as_dict(self) -> dict[str, np.ndarray]:
        """Return the planes keyed by their conventional names."""
        return {"LL": self.ll, "LH": self.lh, "HL": self.hl, "HH": self.hh}

    def stacked(self) -> np.ndarray:
        """Stack the planes into a ``(4, h, w)`` array (LL, LH, HL, HH)."""
        return np.stack([self.ll, self.lh, self.hl, self.hh])

    def interleaved(self) -> np.ndarray:
        """Re-interleave sub-bands into the in-place 2x2 block layout.

        Element ``(2i, 2j)`` holds LL, ``(2i, 2j+1)`` HL, ``(2i+1, 2j)`` LH
        and ``(2i+1, 2j+1)`` HH of block ``(i, j)`` — the layout a streaming
        datapath naturally produces.
        """
        h, w = self.ll.shape[-2:]
        out = np.empty(self.ll.shape[:-2] + (2 * h, 2 * w), dtype=COEFF_DTYPE)
        out[..., 0::2, 0::2] = self.ll
        out[..., 0::2, 1::2] = self.hl
        out[..., 1::2, 0::2] = self.lh
        out[..., 1::2, 1::2] = self.hh
        return out

    @classmethod
    def from_interleaved(cls, plane: np.ndarray) -> "Subbands":
        """Inverse of :meth:`interleaved`."""
        arr = np.asarray(plane)
        if arr.ndim < 2 or arr.shape[-2] % 2 or arr.shape[-1] % 2:
            raise ConfigError(
                f"interleaved plane must be >= 2D with even sides, got {arr.shape}"
            )
        return cls(
            ll=arr[..., 0::2, 0::2].astype(COEFF_DTYPE),
            hl=arr[..., 0::2, 1::2].astype(COEFF_DTYPE),
            lh=arr[..., 1::2, 0::2].astype(COEFF_DTYPE),
            hh=arr[..., 1::2, 1::2].astype(COEFF_DTYPE),
        )


def forward_2d(
    image: np.ndarray,
    *,
    wrap_bits: int | None = None,
) -> Subbands:
    """Single-level 2D integer Haar transform of an even-sided image.

    Rows are transformed first (horizontal low/high split), then columns,
    matching the hardware block wiring of Fig 5 up to butterfly ordering
    (the composition is identical; see the block-model equivalence test).
    Leading axes (anything before the last two) are treated as batch
    dimensions and transformed independently.
    """
    arr = np.asarray(image)
    if arr.ndim < 2:
        raise ConfigError(f"expected a >= 2D image, got shape {arr.shape}")
    if arr.shape[-2] % 2 or arr.shape[-1] % 2:
        raise ConfigError(f"image sides must be even, got {arr.shape}")
    low_h, high_h = forward_1d(arr, axis=-1, wrap_bits=wrap_bits)
    ll, lh = forward_1d(low_h, axis=-2, wrap_bits=wrap_bits)
    hl, hh = forward_1d(high_h, axis=-2, wrap_bits=wrap_bits)
    return Subbands(ll=ll, lh=lh, hl=hl, hh=hh)


def inverse_2d(
    bands: Subbands,
    *,
    wrap_bits: int | None = None,
) -> np.ndarray:
    """Exact inverse of :func:`forward_2d`."""
    low_h = inverse_1d(bands.ll, bands.lh, axis=-2, wrap_bits=wrap_bits)
    high_h = inverse_1d(bands.hl, bands.hh, axis=-2, wrap_bits=wrap_bits)
    return inverse_1d(low_h, high_h, axis=-1, wrap_bits=wrap_bits)


def forward_column_pair(
    columns: np.ndarray,
    *,
    wrap_bits: int | None = None,
) -> Subbands:
    """Transform one ``(N, 2)`` column pair as the streaming IWT module does.

    The IWT module (Section V.A) reads the right-most active-window column
    every cycle; a full 2x2 decomposition completes every second cycle when
    both columns of a pair are available.  Each call returns ``N/2``-long
    sub-band column vectors (shape ``(N/2, 1)`` planes).
    """
    arr = np.asarray(columns)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigError(f"expected an (N, 2) column pair, got {arr.shape}")
    if arr.shape[0] % 2:
        raise ConfigError(f"column height must be even, got {arr.shape[0]}")
    return forward_2d(arr, wrap_bits=wrap_bits)


def inverse_column_pair(
    bands: Subbands,
    *,
    wrap_bits: int | None = None,
) -> np.ndarray:
    """Reconstruct the ``(N, 2)`` column pair from its sub-band vectors."""
    return inverse_2d(bands, wrap_bits=wrap_bits)


def forward_multilevel(
    image: np.ndarray,
    levels: int,
    *,
    wrap_bits: int | None = None,
) -> list[Subbands]:
    """Multi-level decomposition (each level recurses on the previous LL).

    The paper evaluated 2 and 3 levels and found the extra compression did
    not justify the hardware (Section IV.C); the ablation bench quantifies
    that trade-off.  Returns one :class:`Subbands` per level, coarsest last.
    """
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, got {levels}")
    arr = np.asarray(image)
    out: list[Subbands] = []
    current = arr
    for level in range(levels):
        if current.shape[-2] % 2 or current.shape[-1] % 2:
            raise ConfigError(
                f"level {level} input sides must be even, got {current.shape}"
            )
        bands = forward_2d(current, wrap_bits=wrap_bits)
        out.append(bands)
        current = bands.ll
    return out


def inverse_multilevel(
    pyramid: list[Subbands],
    *,
    wrap_bits: int | None = None,
) -> np.ndarray:
    """Exact inverse of :func:`forward_multilevel`."""
    if not pyramid:
        raise ConfigError("pyramid must contain at least one level")
    current = pyramid[-1].ll
    for bands in reversed(pyramid):
        merged = Subbands(ll=current, lh=bands.lh, hl=bands.hl, hh=bands.hh)
        current = inverse_2d(merged, wrap_bits=wrap_bits)
    return current


def forward_inplace(
    image: np.ndarray,
    levels: int = 1,
    *,
    wrap_bits: int | None = None,
) -> np.ndarray:
    """Multi-level transform in the in-place (interleaved Mallat) layout.

    Level 1 fills the whole plane with the 2x2 block layout of
    :meth:`Subbands.interleaved`; each deeper level re-decomposes the LL
    positions (stride ``2**level``) in place.  The layout keeps every
    coefficient at a fixed image position, so the streaming architecture's
    per-column packing applies unchanged — this is what the
    ``decomposition_levels`` configuration knob feeds on.

    Accepts leading batch axes: a ``(T, N, W)`` stack of bands transforms
    every band independently in one vectorised pass.
    """
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, got {levels}")
    arr = np.asarray(image)
    if arr.ndim < 2:
        raise ConfigError(f"expected a >= 2D image, got shape {arr.shape}")
    if arr.shape[-2] % (1 << levels) or arr.shape[-1] % (1 << levels):
        raise ConfigError(
            f"sides must be divisible by 2^levels = {1 << levels}, "
            f"got {arr.shape}"
        )
    plane = np.array(arr, dtype=COEFF_DTYPE, order="C")
    for level in range(levels):
        stride = 1 << level
        view = plane[..., ::stride, ::stride]
        view[...] = forward_2d(view, wrap_bits=wrap_bits).interleaved()
    return plane


def inverse_inplace(
    plane: np.ndarray,
    levels: int = 1,
    *,
    wrap_bits: int | None = None,
) -> np.ndarray:
    """Exact inverse of :func:`forward_inplace` (batch axes supported)."""
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, got {levels}")
    arr = np.asarray(plane).astype(COEFF_DTYPE).copy()
    if arr.ndim < 2 or arr.shape[-2] % (1 << levels) or arr.shape[-1] % (1 << levels):
        raise ConfigError(
            f"plane sides must be divisible by 2^levels = {1 << levels}, "
            f"got {arr.shape}"
        )
    for level in reversed(range(levels)):
        stride = 1 << level
        view = arr[..., ::stride, ::stride]
        view[...] = inverse_2d(
            Subbands.from_interleaved(view.copy()), wrap_bits=wrap_bits
        )
    return arr


def ll_dpcm_forward(plane: np.ndarray, levels: int) -> np.ndarray:
    """Horizontal DPCM on the residual LL positions (extension).

    Natural-image LL samples are large (~the local mean) but vary slowly
    along a row; storing each as the difference from its left neighbour
    (one subtractor in hardware) shrinks its NBits dramatically.  The
    first LL sample of each row stays absolute so decoding is
    self-contained.  Exactly invertible; see :func:`ll_dpcm_inverse`.

    This is an extension beyond the paper (flagged by the
    ``ll_dpcm`` configuration option), motivated by LL dominating the
    compressed footprint — see docs/architecture.md §3.  Leading batch
    axes are supported (each band of a stack DPCMs independently).
    """
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, got {levels}")
    out = np.asarray(plane).astype(COEFF_DTYPE).copy()
    stride = 1 << levels
    view = out[..., ::stride, ::stride]
    view[..., 1:] = np.diff(view, axis=-1)
    return out


def ll_dpcm_inverse(plane: np.ndarray, levels: int) -> np.ndarray:
    """Exact inverse of :func:`ll_dpcm_forward`."""
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, got {levels}")
    out = np.asarray(plane).astype(COEFF_DTYPE).copy()
    stride = 1 << levels
    view = out[..., ::stride, ::stride]
    view[...] = np.cumsum(view, axis=-1)
    return out


def ll_mask_inplace(shape: tuple[int, int], levels: int) -> np.ndarray:
    """Positions holding the *residual* LL band in the in-place layout."""
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, got {levels}")
    stride = 1 << levels
    rows = np.arange(shape[0])[:, None]
    cols = np.arange(shape[1])[None, :]
    return (rows % stride == 0) & (cols % stride == 0)
