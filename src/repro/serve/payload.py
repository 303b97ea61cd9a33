"""Frame-job payload encoding shared by the gateway and its clients.

Pixels cross the wire as base64 of the raw little-endian array bytes —
``int64`` row-major for input frames (narrowed to the configured pixel
width once they pass the range check), the ring's output dtype for
results.  Base64-in-JSON costs 33% over raw but keeps the protocol one
``curl``-able JSON object; the expensive hop (driver to workers) still
moves pixels through shared memory, never through this codec.

Both directions live here so the load generator verifies responses with
the *same* codec the gateway rendered them with — a byte-order or dtype
drift cannot cancel itself out.
"""

from __future__ import annotations

import base64
import binascii

import numpy as np

from ..config import ArchitectureConfig
from ..errors import ConfigError
from .http import HttpError


def encode_array(array: np.ndarray) -> str:
    """Base64 of the array's raw C-order little-endian bytes."""
    data = np.ascontiguousarray(array)
    if data.dtype.byteorder == ">":  # pragma: no cover - big-endian hosts
        data = data.astype(data.dtype.newbyteorder("<"))
    return base64.b64encode(data.tobytes()).decode("ascii")


def decode_frame(payload: object, config: ArchitectureConfig) -> np.ndarray:
    """Decode a request's ``frame_b64`` field (``<i8`` pixels) into a
    frame of ``config.pixel_dtype``, the ring's input width.

    Raises :class:`~repro.serve.http.HttpError` (status 400) on any
    malformed payload: wrong type, broken base64, a byte count that does
    not match ``config``'s geometry, or a pixel outside ``config``'s
    range (:meth:`~repro.config.ArchitectureConfig.check_pixels`, the
    engines' own check, run on the int64 view before narrowing) — so a
    bad frame never reaches the ring.
    """
    if not isinstance(payload, str):
        raise HttpError(400, "frame_b64 must be a base64 string")
    try:
        raw = base64.b64decode(payload, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise HttpError(400, f"frame_b64 is not valid base64: {exc}") from exc
    shape = (config.image_height, config.image_width)
    expected = shape[0] * shape[1] * np.dtype(np.int64).itemsize
    if len(raw) != expected:
        raise HttpError(
            400,
            f"frame_b64 decodes to {len(raw)} bytes; geometry "
            f"{shape[0]}x{shape[1]} int64 needs {expected}",
        )
    frame = np.frombuffer(raw, dtype="<i8").reshape(shape)
    try:
        config.check_pixels(frame)
    except ConfigError as exc:
        raise HttpError(400, str(exc)) from exc
    return frame.astype(config.pixel_dtype)
