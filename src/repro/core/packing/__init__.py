"""Bit Packing / Bit Unpacking subsystem (Sections IV.B, IV.C, V.B, V.C).

Layers, from primitive to composite:

- :mod:`repro.core.packing.bitstream` — LSB-first bit streams backed by
  NumPy arrays, with vectorised bulk pack/unpack of variable-width fields.
- :mod:`repro.core.packing.nbits` — the minimum two's-complement bit width
  computation, both arithmetic (vectorised) and as the Fig 7 XOR/OR gate
  model.
- :mod:`repro.core.packing.bitmap` — thresholding and significance bitmaps.
- :mod:`repro.core.packing.packer` — the band compressor: the one
  threshold-and-size step on ``(..., N, W)`` planes, the size accounting
  built on it, and the per-column and whole-band bit-stream codecs;
  :mod:`repro.core.packing.unpacker` inverts the per-column codec.
- :mod:`repro.core.packing.hw_pack` / :mod:`repro.core.packing.hw_unpack` —
  register-level models of the Fig 6 / Fig 8 units, validated bit-exactly
  against the vectorised codec.
"""

from .bitstream import BitReader, BitWriter, sign_extend, values_to_bits, bits_to_values
from .nbits import min_bits_signed, min_bits_signed_scalar, NBitsGateModel
from .bitmap import apply_threshold, significance_bitmap
from .packer import (
    BandAccounting,
    BandCodec,
    EncodedBand,
    PackedColumn,
    pack_interleaved_column,
    threshold_and_size,
)
from .unpacker import unpack_interleaved_column
from .hw_pack import BitPackingUnit, PackedWord
from .hw_unpack import BitUnpackingUnit

__all__ = [
    "BitReader",
    "BitWriter",
    "sign_extend",
    "values_to_bits",
    "bits_to_values",
    "min_bits_signed",
    "min_bits_signed_scalar",
    "NBitsGateModel",
    "apply_threshold",
    "significance_bitmap",
    "threshold_and_size",
    "BandAccounting",
    "PackedColumn",
    "pack_interleaved_column",
    "unpack_interleaved_column",
    "BandCodec",
    "EncodedBand",
    "BitPackingUnit",
    "PackedWord",
    "BitUnpackingUnit",
]
