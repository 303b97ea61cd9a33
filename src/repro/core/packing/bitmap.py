"""Thresholding and significance bitmaps (Section IV.B).

A coefficient whose magnitude is below the threshold T is *insignificant*:
it is replaced by zero and contributes only its single BitMap bit to the
compressed stream.  T = 0 zeroes nothing (lossless); exact zeros still pack
as bitmap-only entries, which is where much of the lossless gain in flat
image regions comes from.
"""

from __future__ import annotations

import numpy as np

from ...errors import ConfigError


def apply_threshold(
    coefficients: np.ndarray,
    threshold: int,
    *,
    exempt_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Zero every coefficient with ``abs(c) < threshold``.

    Parameters
    ----------
    coefficients:
        Integer coefficient array (any shape); not modified.
    threshold:
        The paper's T parameter; must be non-negative.
    exempt_mask:
        Optional boolean array (broadcastable) marking positions the
        threshold must not touch — used by the ``threshold_bands="details"``
        policy to exempt the LL sub-band.

    Returns
    -------
    A new array of the same dtype with insignificant coefficients zeroed.
    """
    if threshold < 0:
        raise ConfigError(f"threshold must be >= 0, got {threshold}")
    arr = np.asarray(coefficients)
    if threshold == 0:
        return arr.copy()
    kill = np.abs(arr) < threshold
    if exempt_mask is not None:
        kill &= ~np.asarray(exempt_mask, dtype=bool)
    return np.where(kill, 0, arr)


def significance_bitmap(coefficients: np.ndarray) -> np.ndarray:
    """BitMap flags: True (1) for non-zero coefficients, False (0) otherwise.

    One bit per coefficient is stored in the management stream so the
    unpacker can tell bitmap-only zeros apart from packed values.
    """
    return np.asarray(coefficients) != 0


def ll_exempt_mask_interleaved(shape: tuple[int, int]) -> np.ndarray:
    """Exemption mask for the LL sub-band in the interleaved block layout.

    In the in-place 2x2 layout produced by
    :func:`repro.core.transform.haar2d.forward_inplace`, LL occupies
    positions with even row *and* even column.
    """
    rows = np.arange(shape[0])[:, None]
    cols = np.arange(shape[1])[None, :]
    return (rows % 2 == 0) & (cols % 2 == 0)
