"""The band compressor (Section IV.B): one threshold-and-size step and the codecs on it.

The hardware compresses the active window's exiting column every cycle; a
whole row-band of the image therefore passes through the compressor exactly
once per buffer generation.  :func:`threshold_and_size` is that
compressor's arithmetic on an interleaved ``(..., N, W)`` coefficient plane
— one band, a stack of bands or a single ``(N, 1)`` column — and
:class:`BandAccounting` turns its NBits and BitMap into the bit accounting
(per row, per column, per sub-band) that the BRAM-sizing experiments
consume.  :func:`pack_interleaved_column` and :class:`BandCodec` add the
payload bits on top; :func:`repro.core.stats.analyze_band` sizes without
them.

Layout: the codec operates on the *interleaved* coefficient plane (see
:func:`repro.core.transform.haar2d.forward_inplace`), where the
sub-band of element ``(i, j)`` follows from the parities
(:data:`SUBBAND_PARITIES`).  Each plane column ``j`` carries two sub-bands
(even rows and odd rows) and therefore two NBits fields, matching Section
V.E's "each column in the decomposed image has two sub-bands".
"""

from __future__ import annotations

from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ...config import ArchitectureConfig
from ...errors import BitstreamError, ConfigError
from ..transform.haar2d import (
    forward_inplace,
    inverse_inplace,
    ll_dpcm_forward,
    ll_dpcm_inverse,
    ll_mask_inplace,
)
from . import native
from .bitmap import apply_threshold
from .bitstream import bits_to_values, values_to_bits
from .nbits import min_bits_signed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...observability.probe import Probe

#: (row parity, column parity) of each sub-band in the interleaved plane.
SUBBAND_PARITIES: dict[str, tuple[int, int]] = {
    "LL": (0, 0),
    "HL": (0, 1),
    "LH": (1, 0),
    "HH": (1, 1),
}


def subband_of(row: int, col: int) -> str:
    """Sub-band name of interleaved-plane element ``(row, col)``."""
    return tuple(SUBBAND_PARITIES)[(row % 2) * 2 + (col % 2)]


def ll_exempt_mod(config: ArchitectureConfig) -> int:
    """Lattice step of the threshold-exempt residual LL (0: none exempt).

    The ``threshold_bands="details"`` policy and LL DPCM keep the residual
    LL coefficients, which sit where ``row % 2**L == col % 2**L == 0``.
    """
    if config.threshold_bands == "details" or config.ll_dpcm:
        return 1 << config.decomposition_levels
    return 0


def _stage(name: str, probe: "Probe | None" = None) -> AbstractContextManager[object]:
    return nullcontext() if probe is None else probe.span(name)


def threshold_and_size(
    plane: np.ndarray,
    threshold: int,
    *,
    exempt_mod: int = 0,
    codec: str = "numpy",
    probe: "Probe | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Threshold an interleaved ``(..., N, W)`` plane, then size it.

    Zeroes every ``|c| < threshold`` except where ``row % exempt_mod ==
    col % exempt_mod == 0`` (see :func:`ll_exempt_mod`), then takes each
    column's per-parity NBits and the BitMap.  Returns ``(plane, nbits,
    bitmap)`` with shapes ``(..., N, W)``, ``(..., 2, W)`` and ``(..., N,
    W)``.  ``codec`` is a *resolved* tier name: the compiled ``"native"``
    tier (bit-identical) needs a contiguous int32 plane and thresholds it
    in place.  ``probe`` times the ``threshold`` and ``pack`` stages.
    """
    with _stage("threshold", probe):
        if codec == "native":
            plane = native.threshold_inplace(plane, threshold, exempt_mod=exempt_mod)
        elif threshold:  # T=0 thresholding is the identity; skip the copy
            exempt = None
            if exempt_mod:  # 2**L: the level-L residual-LL lattice
                levels = exempt_mod.bit_length() - 1
                exempt = ll_mask_inplace(plane.shape[-2:], levels)
            plane = apply_threshold(plane, threshold, exempt_mask=exempt)
    with _stage("pack", probe):
        if codec == "native":
            *lead, n, w = plane.shape
            nbits = native.stack_nbits(plane.reshape(-1, n, w))
            nbits = nbits.reshape(*lead, 2, w)
        else:
            nbits = np.stack(
                [
                    min_bits_signed(plane[..., 0::2, :], axis=-2),
                    min_bits_signed(plane[..., 1::2, :], axis=-2),
                ],
                axis=-2,
            )
        bitmap = plane != 0
    return plane, nbits, bitmap


def band_widths(nbits: np.ndarray, bitmap: np.ndarray) -> np.ndarray:
    """Per-coefficient packed widths ``(..., N, W)``.

    A significant coefficient packs its parity's NBits; a zero packs
    nothing beyond its BitMap bit.
    """
    parity = np.arange(bitmap.shape[-2]) % 2
    return np.multiply(nbits[..., parity, :], bitmap)


def _total(bits: np.ndarray) -> "int | np.ndarray":
    """A Python int for one band, the per-band array for a stack."""
    return int(bits) if bits.ndim == 0 else bits


@dataclass(frozen=True)
class BandAccounting:
    """Compressed-size accounting of one ``(N, W)`` band or a stack.

    Every array carries the same leading axes as the bands it describes
    (none for one band, ``(T,)`` for a traversal stack); band totals are
    Python ints for one band and per-band arrays for a stack.
    """

    config: ArchitectureConfig
    #: Per-parity NBits, shape ``(..., 2, W)``: ``[..., 0, j]`` / ``[...,
    #: 1, j]`` size the even-row / odd-row sub-band of plane column ``j``.
    nbits: np.ndarray
    #: Significance flags, shape ``(..., N, W)``.
    bitmap: np.ndarray

    @cached_property
    def widths(self) -> np.ndarray:
        """Per-coefficient packed widths, shape ``(..., N, W)``."""
        return band_widths(self.nbits, self.bitmap)

    @property
    def payload_bits_per_row(self) -> np.ndarray:
        """Packed payload bits in each of the N row streams."""
        return self.widths.sum(axis=-1)

    @property
    def payload_bits_per_column(self) -> np.ndarray:
        """Packed payload bits contributed by each plane column."""
        return self.widths.sum(axis=-2)

    @property
    def payload_bits(self) -> "int | np.ndarray":
        """Total packed payload bits of the band."""
        return _total(self.widths.sum(axis=(-2, -1)))

    @property
    def significant_counts(self) -> "int | np.ndarray":
        """Significant (non-zero) coefficients of the band."""
        return _total(np.asarray(np.count_nonzero(self.bitmap, axis=(-2, -1))))

    @property
    def management_bits_per_column(self) -> int:
        """Management bits per column: two NBits fields plus N bitmap bits."""
        return 2 * self.config.nbits_field_width + self.bitmap.shape[-2]

    @property
    def management_bits(self) -> int:
        """Total management bits of the band."""
        return self.management_bits_per_column * self.bitmap.shape[-1]

    @property
    def total_bits(self) -> "int | np.ndarray":
        """Payload plus management bits of the band."""
        return self.payload_bits + self.management_bits

    def subband_payload_bits(self) -> "dict[str, int | np.ndarray]":
        """Packed payload bits split by sub-band (Fig 3's four series)."""
        return {
            name: _total(self.widths[..., rp::2, cp::2].sum(axis=(-2, -1)))
            for name, (rp, cp) in SUBBAND_PARITIES.items()
        }

    def subband_payload_bits_per_column(self) -> dict[str, np.ndarray]:
        """Per plane-column payload split by sub-band.

        Sub-bands present only on the other column parity contribute zeros
        there, so the four arrays sum to :attr:`payload_bits_per_column`.
        """
        widths = self.widths
        out: dict[str, np.ndarray] = {}
        for name, (rp, cp) in SUBBAND_PARITIES.items():
            per_col = np.zeros(widths.shape[:-2] + widths.shape[-1:], dtype=np.int64)
            per_col[..., cp::2] = widths[..., rp::2, cp::2].sum(axis=-2)
            out[name] = per_col
        return out


@dataclass(frozen=True, slots=True)
class PackedColumn:
    """One compressed interleaved-plane column.

    Attributes
    ----------
    nbits_even, nbits_odd:
        NBits of the even-row sub-band (LL or HL) and odd-row sub-band
        (LH or HH) of this column.
    bitmap:
        Boolean significance flags, one per coefficient, top to bottom.
    payload:
        LSB-first bit array holding the packed non-zero coefficients in
        row order.
    """

    nbits_even: int
    nbits_odd: int
    bitmap: np.ndarray
    payload: np.ndarray

    @property
    def n_coefficients(self) -> int:
        """Coefficients covered by this column record."""
        return int(self.bitmap.size)

    @property
    def payload_bits(self) -> int:
        """Packed data bits (excludes management)."""
        return int(self.payload.size)

    def management_bits(self, nbits_field_width: int) -> int:
        """Management bits: two NBits fields plus one bitmap bit each."""
        return 2 * nbits_field_width + self.n_coefficients

    def total_bits(self, nbits_field_width: int) -> int:
        """Payload plus management bits."""
        return self.payload_bits + self.management_bits(nbits_field_width)

    def widths(self) -> np.ndarray:
        """Per-coefficient packed widths implied by bitmap and NBits."""
        nbits = np.array([[self.nbits_even], [self.nbits_odd]], dtype=np.int64)
        return band_widths(nbits, self.bitmap[:, None])[:, 0]


def pack_interleaved_column(
    column: np.ndarray,
    *,
    threshold: int = 0,
    exempt_even: bool = False,
) -> PackedColumn:
    """Compress one interleaved coefficient column (Section IV.B).

    The :func:`threshold_and_size` step on an ``(N, 1)`` plane, then the
    column's payload bits — the reference for the compiled
    :func:`repro.core.packing.native.pack_column`.

    Parameters
    ----------
    column:
        1D integer array of N coefficients; even indices belong to one
        sub-band, odd indices to the other.
    threshold:
        Coefficients with ``abs(c) < threshold`` are zeroed first.
    exempt_even:
        Exempt the even-row sub-band from thresholding (used for LL columns
        under the ``threshold_bands="details"`` policy).
    """
    col = np.asarray(column)
    if col.ndim != 1 or col.size % 2:
        raise ConfigError(f"expected an even-length 1D column, got shape {col.shape}")
    plane, nbits, bitmap = threshold_and_size(
        col[:, None], threshold, exempt_mod=2 if exempt_even else 0
    )
    widths = band_widths(nbits, bitmap)[:, 0]
    return PackedColumn(
        nbits_even=int(nbits[0, 0]),
        nbits_odd=int(nbits[1, 0]),
        bitmap=bitmap[:, 0],
        payload=values_to_bits(plane[:, 0], widths),
    )


@dataclass(frozen=True)
class EncodedBand(BandAccounting):
    """A fully compressed ``(N, W)`` image band.

    The accounting of :class:`BandAccounting` plus the packed payload,
    organised *per coefficient row* (``row_payloads[i]``) exactly as the N
    per-row Bit Packing blocks of the hardware would fill their FIFOs.
    """

    row_payloads: tuple[np.ndarray, ...]


class BandCodec:
    """Forward/backward compression of N-row image bands.

    The functional equivalent of the hardware loop IWT -> threshold ->
    NBits -> pack (and its inverse), applied to a whole band at once.
    ``decode_band(encode_band(band)) == band`` exactly when
    ``config.lossless`` (property-tested), and encoding is idempotent in
    steady state: ``encode(decode(encode(x)))`` produces identical bits.
    """

    def __init__(self, config: ArchitectureConfig) -> None:
        self.config = config

    def encode_band(self, band: np.ndarray) -> EncodedBand:
        """Compress one ``(N, W)`` pixel band into an :class:`EncodedBand`."""
        cfg = self.config
        plane = forward_inplace(
            self._validate_band(band),
            cfg.decomposition_levels,
            wrap_bits=cfg.wrap_bits,
        )
        if cfg.ll_dpcm:
            plane = ll_dpcm_forward(plane, cfg.decomposition_levels)
        plane, nbits, bitmap = threshold_and_size(
            plane, cfg.threshold, exempt_mod=ll_exempt_mod(cfg)
        )
        widths = band_widths(nbits, bitmap)
        row_payloads = tuple(
            values_to_bits(plane[i], widths[i]) for i in range(plane.shape[0])
        )
        return EncodedBand(
            config=cfg, nbits=nbits, bitmap=bitmap, row_payloads=row_payloads
        )

    def decode_band(self, encoded: EncodedBand, *, clip: bool = True) -> np.ndarray:
        """Reconstruct the pixel band from its compressed representation.

        With ``clip=True`` (default) reconstructed pixels are mapped back to
        the pixel range: saturating for the wide-coefficient datapath,
        modulo for a wrap-around datapath (whose arithmetic is exact mod
        ``2**pixel_bits`` by construction).  Pass ``clip=False`` for the raw
        integer reconstruction (used by the steady-state idempotence
        analysis).
        """
        return self.reconstruct(self.decode_plane(encoded), clip=clip)

    def reconstruct(self, plane: np.ndarray, *, clip: bool = True) -> np.ndarray:
        """Inverse-transform a thresholded coefficient plane to pixels.

        ``clip`` as in :meth:`decode_band`.
        """
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

    def decode_plane(self, encoded: EncodedBand) -> np.ndarray:
        """Reconstruct the thresholded coefficient plane from packed bits."""
        widths = encoded.widths
        n_rows, n_cols = widths.shape
        plane = np.zeros((n_rows, n_cols), dtype=np.int64)
        for i in range(n_rows):
            expected = int(widths[i].sum())
            if encoded.row_payloads[i].size != expected:
                raise BitstreamError(
                    f"row {i} payload has {encoded.row_payloads[i].size} bits, "
                    f"management implies {expected}"
                )
            plane[i] = bits_to_values(encoded.row_payloads[i], widths[i], signed=True)
        return plane

    # ------------------------------------------------------------------

    def _validate_band(self, band: np.ndarray) -> np.ndarray:
        arr = np.asarray(band)
        if arr.ndim != 2:
            raise ConfigError(f"band must be 2D, got shape {arr.shape}")
        if arr.shape[0] % 2 or arr.shape[1] % 2:
            raise ConfigError(f"band sides must be even, got {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ConfigError(f"band must be integer pixels, got {arr.dtype}")
        self.config.check_pixels(arr)
        return arr
