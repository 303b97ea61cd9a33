"""Gate-level Fig 5 / Fig 10 block models vs the vectorised transform."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transform.haar2d import forward_inplace, inverse_inplace
from repro.core.transform.hwmodel import Haar2DBlock, InverseHaar2DBlock

from helpers import scalar_forward_inplace, scalar_inverse_inplace

pixels = st.integers(0, 255)


class TestForwardBlock:
    @given(pixels, pixels, pixels, pixels)
    @settings(max_examples=200, deadline=None)
    def test_matches_vectorised_transform(self, x00, x01, x10, x11):
        block = Haar2DBlock()
        ll, lh, hl, hh = block.forward(x00, x01, x10, x11)
        plane = forward_inplace(np.array([[x00, x01], [x10, x11]]))
        assert plane.tolist() == [[ll, hl], [lh, hh]]

    def test_operation_counts_per_block(self):
        """One 2D block = four butterflies = 4 adds, 4 subs, 4 shifts."""
        block = Haar2DBlock()
        block.forward(1, 2, 3, 4)
        assert block.ops.adds == 4
        assert block.ops.subs == 4
        assert block.ops.shifts == 4
        assert block.ops.total == 12

    def test_counter_reset(self):
        block = Haar2DBlock()
        block.forward(1, 2, 3, 4)
        block.ops.reset()
        assert block.ops.total == 0

    def test_constant_block(self):
        ll, lh, hl, hh = Haar2DBlock().forward(9, 9, 9, 9)
        assert (ll, lh, hl, hh) == (9, 0, 0, 0)


class TestInverseBlock:
    @given(pixels, pixels, pixels, pixels)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, x00, x01, x10, x11):
        fwd = Haar2DBlock()
        inv = InverseHaar2DBlock()
        coeffs = fwd.forward(x00, x01, x10, x11)
        assert inv.inverse(*coeffs) == (x00, x01, x10, x11)

    @given(pixels, pixels, pixels, pixels)
    @settings(max_examples=100, deadline=None)
    def test_wrapped_roundtrip(self, x00, x01, x10, x11):
        fwd = Haar2DBlock(wrap_bits=8)
        inv = InverseHaar2DBlock(wrap_bits=8)
        coeffs = fwd.forward(x00, x01, x10, x11)
        out = inv.inverse(*coeffs)
        assert tuple(v & 0xFF for v in out) == (x00, x01, x10, x11)

    def test_inverse_op_counts(self):
        inv = InverseHaar2DBlock()
        inv.inverse(10, 0, 0, 0)
        assert inv.ops.total == 12


class TestBlockGridEquivalence:
    def test_block_grid_equals_whole_image_transform(self):
        """Tiling Fig 5 blocks over an image equals the separable transform."""
        rng = np.random.default_rng(11)
        img = rng.integers(0, 256, size=(8, 10))
        block = Haar2DBlock()
        plane = np.zeros_like(img)
        for i in range(0, 8, 2):
            for j in range(0, 10, 2):
                ll, lh, hl, hh = block.forward(
                    int(img[i, j]), int(img[i, j + 1]),
                    int(img[i + 1, j]), int(img[i + 1, j + 1]),
                )
                plane[i, j], plane[i, j + 1] = ll, hl
                plane[i + 1, j], plane[i + 1, j + 1] = lh, hh
        assert np.array_equal(plane, forward_inplace(img))


class TestInplaceAgainstBlocks:
    """Every 2x2 block at every level's stride, batch axes included, is the
    scalar Fig 5 / Fig 10 block's answer."""

    #: Input magnitude per datapath: the 32-bit wrap spans all of int32.
    SPAN = {None: 4096, 8: 128, 10: 512, 32: 2**31}

    @pytest.mark.parametrize("wrap_bits", [None, 8, 10, 32])
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_forward(self, rng, levels, wrap_bits):
        span = self.SPAN[wrap_bits]
        img = rng.integers(-span, span, size=(2, 16, 32))
        assert np.array_equal(
            forward_inplace(img, levels, wrap_bits=wrap_bits),
            scalar_forward_inplace(img, levels, wrap_bits),
        )

    @pytest.mark.parametrize("wrap_bits", [None, 8, 10, 32])
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_inverse(self, rng, levels, wrap_bits):
        span = self.SPAN[wrap_bits]
        plane = rng.integers(-span, span, size=(2, 16, 32))
        assert np.array_equal(
            inverse_inplace(plane, levels, wrap_bits=wrap_bits),
            scalar_inverse_inplace(plane, levels, wrap_bits),
        )
