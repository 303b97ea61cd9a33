"""The integer Haar transform: one in-place 2x2 butterfly pass per level.

The paper's Equations (1)-(4) contain sign typos (as printed they are not
mutually inverse).  The transform actually implemented by the cited integer
Haar literature — and the one whose worked example in the paper's Fig 2
round-trips — is the classic S-transform butterfly:

.. math::

    H = X_0 - X_1 \\qquad L = X_1 + \\lfloor H / 2 \\rfloor

with the exact integer inverse

.. math::

    X_1 = L - \\lfloor H / 2 \\rfloor \\qquad X_0 = H + X_1

Floor division makes the pair perfectly reversible for *any* integers, which
is the property the lossless mode of the architecture depends on.

The architecture applies it to 2x2 pixel blocks (Fig 5): stage one runs a
butterfly on each row of the block, stage two combines the two row lows and
the two row highs vertically; the inverse mirrors that order (Fig 10).
:func:`forward_inplace` runs each stage as one vectorised butterfly over the
four strided quadrant views of the plane and writes the coefficients back
in place (the interleaved Mallat layout), bit-exact against the scalar
block models in :mod:`repro.core.transform.hwmodel` (property-tested):

========  ==============  =============================  ===================
Sub-band  Block position  Filtering (horizontal, vert.)  Content
========  ==============  =============================  ===================
LL        ``(0, 0)``      low, low                       approximation
HL        ``(0, 1)``      high, low                      horizontal detail
LH        ``(1, 0)``      low, high                      vertical detail
HH        ``(1, 1)``      high, high                     diagonal detail
========  ==============  =============================  ===================

Hardware datapaths have fixed width; ``wrap_bits`` reduces every butterfly
output modulo ``2**wrap_bits`` in two's complement.  Because wrap-around
addition is a group operation, the inverse with the same ``wrap_bits``
still reconstructs the original samples exactly whenever they were
themselves representable in ``wrap_bits`` bits — this models the paper's
8-bit RTL design point.
"""

from __future__ import annotations

import numpy as np

from ...errors import ConfigError

#: NumPy dtype used for all coefficient arithmetic.  int32 comfortably holds
#: multi-level transforms of 16-bit pixels without overflow.
COEFF_DTYPE = np.int32


def _wrap(values: np.ndarray, wrap_bits: int | None) -> np.ndarray:
    """Reduce ``values`` in place into the two's-complement range of ``wrap_bits``.

    ``None`` disables wrapping.  A 32-bit wrap is :data:`COEFF_DTYPE`'s own
    wraparound, so it needs no masking (and ``2**31`` fits no int32 operand).
    """
    if wrap_bits is not None and wrap_bits < 32:
        half = 1 << (wrap_bits - 1)
        values += half
        values &= 2 * half - 1
        values -= half
    return values


def _butterfly(x0: np.ndarray, x1: np.ndarray, wrap_bits: int | None) -> None:
    """Fig 5 1D block in place: ``(x0, x1)`` become ``(L, H)``.

    One subtraction, one arithmetic shift (floor division by 2 in two's
    complement) and one addition.
    """
    high = _wrap(x0 - x1, wrap_bits)
    np.right_shift(high, 1, out=x0)
    x0 += x1
    _wrap(x0, wrap_bits)
    x1[...] = high


def _inverse_butterfly(
    low: np.ndarray, high: np.ndarray, wrap_bits: int | None
) -> None:
    """Fig 10 1D block in place: ``(L, H)`` become ``(x0, x1)``."""
    x1 = _wrap(low - (high >> 1), wrap_bits)
    np.add(high, x1, out=low)
    _wrap(low, wrap_bits)
    high[...] = x1


def _coeff_plane(data: np.ndarray, levels: int) -> np.ndarray:
    """Validate a transform input; return a fresh C-ordered COEFF_DTYPE copy."""
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, got {levels}")
    arr = np.asarray(data)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ConfigError(
            f"integer wavelet transform requires integer input, got {arr.dtype}"
        )
    block = 1 << levels
    if arr.ndim < 2 or arr.shape[-2] % block or arr.shape[-1] % block:
        raise ConfigError(
            f"expected a >= 2D plane with sides divisible by 2^levels = "
            f"{block}, got shape {arr.shape}"
        )
    return np.array(arr, dtype=COEFF_DTYPE, order="C")


def _quadrants(
    plane: np.ndarray, level: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``(0,0), (0,1), (1,0), (1,1)`` block positions at ``level``'s stride."""
    view = plane[..., :: 1 << level, :: 1 << level]
    return (
        view[..., 0::2, 0::2],
        view[..., 0::2, 1::2],
        view[..., 1::2, 0::2],
        view[..., 1::2, 1::2],
    )


def forward_inplace(
    image: np.ndarray,
    levels: int = 1,
    *,
    wrap_bits: int | None = None,
) -> np.ndarray:
    """Multi-level integer Haar transform in the in-place (interleaved) layout.

    Level 1 turns every 2x2 block into its ``LL, HL / LH, HH`` coefficients
    at the same positions; each deeper level re-decomposes the LL positions
    (stride ``2**level``) in place.  The layout keeps every coefficient at a
    fixed image position, so the streaming architecture's per-column packing
    applies unchanged — this is what the ``decomposition_levels``
    configuration knob feeds on.

    The last two axes are the spatial ones and their sides must be
    divisible by ``2**levels``; leading batch axes transform independently,
    so a ``(T, N, W)`` stack of bands (or one ``(N, 2)`` column pair) goes
    through in one vectorised pass.  Non-integer input raises
    :class:`~repro.errors.ConfigError`.
    """
    plane = _coeff_plane(image, levels)
    for level in range(levels):
        x00, x01, x10, x11 = _quadrants(plane, level)
        _butterfly(x00, x01, wrap_bits)  # stage 1: rows
        _butterfly(x10, x11, wrap_bits)
        _butterfly(x00, x10, wrap_bits)  # stage 2: lows -> LL, LH
        _butterfly(x01, x11, wrap_bits)  # highs -> HL, HH
    return plane


def inverse_inplace(
    plane: np.ndarray,
    levels: int = 1,
    *,
    wrap_bits: int | None = None,
) -> np.ndarray:
    """Exact inverse of :func:`forward_inplace` (batch axes supported)."""
    out = _coeff_plane(plane, levels)
    for level in reversed(range(levels)):
        ll, hl, lh, hh = _quadrants(out, level)
        _inverse_butterfly(ll, lh, wrap_bits)  # stage 1: columns
        _inverse_butterfly(hl, hh, wrap_bits)
        _inverse_butterfly(ll, hl, wrap_bits)  # stage 2: rows
        _inverse_butterfly(lh, hh, wrap_bits)
    return out


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
