"""Hostile ``frame_b64`` payloads: every input decodes to a frame the
engines accept, or is refused with a 4xx :class:`HttpError`."""

from __future__ import annotations

import base64

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro import ArchitectureConfig
from repro.serve.gateway import decode_frame
from repro.serve.http import HttpError
from repro.serve.payload import encode_array

CONFIG = ArchitectureConfig(image_width=8, image_height=6, window_size=4)
SHAPE = (CONFIG.image_height, CONFIG.image_width)

int64_frames = npst.arrays(
    np.int64, SHAPE, elements=st.integers(-(2**63), 2**63 - 1)
)
valid_frames = npst.arrays(
    np.int64, SHAPE, elements=st.integers(0, CONFIG.pixel_max)
)

payloads = st.one_of(
    st.none(),
    st.integers(),
    st.text(),
    st.binary().map(lambda raw: base64.b64encode(raw).decode("ascii")),
    int64_frames.map(encode_array),
    valid_frames.map(encode_array),
)


@given(payloads)
def test_any_payload_yields_a_valid_frame_or_4xx(payload):
    try:
        frame = decode_frame(payload, CONFIG)
    except HttpError as exc:
        assert 400 <= exc.status < 500
        return
    assert frame.shape == SHAPE
    assert frame.dtype == CONFIG.pixel_dtype
    assert 0 <= frame.min() and frame.max() <= CONFIG.pixel_max


@given(valid_frames)
def test_in_range_frame_round_trips(frame):
    assert np.array_equal(decode_frame(encode_array(frame), CONFIG), frame)
