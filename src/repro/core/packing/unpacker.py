"""Functional Bit Unpacking (Section IV.C) for single packed columns.

The whole-band decode path lives in
:meth:`repro.core.packing.packer.BandCodec.decode_band`; this module holds
the single-column inverse of
:func:`repro.core.packing.packer.pack_interleaved_column`, used by the
column round-trip property tests.
"""

from __future__ import annotations

import numpy as np

from ...errors import BitstreamError
from .bitstream import bits_to_values
from .packer import PackedColumn


def unpack_interleaved_column(packed: PackedColumn) -> np.ndarray:
    """Reconstruct the interleaved coefficient column from its packed form.

    Bitmap zeros decode to 0; significant coefficients are read back with
    their sub-band's NBits width and sign-extended.  Raises
    :class:`~repro.errors.BitstreamError` if the payload length disagrees
    with what the management bits imply.
    """
    widths = packed.widths()
    expected = int(widths.sum())
    if packed.payload.size != expected:
        raise BitstreamError(
            f"payload has {packed.payload.size} bits, management implies {expected}"
        )
    return bits_to_values(packed.payload, widths, signed=True).astype(np.int64)
