"""Tests for the generic integer lifting framework (Haar, 5/3, 9/7)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.transform.haar2d import forward_inplace
from repro.core.transform.lifting import (
    WAVELETS,
    LiftingStep,
    cdf97_int_wavelet,
    haar_wavelet,
    legall53_wavelet,
)
from repro.errors import ConfigError

signals = hnp.arrays(
    dtype=np.int32,
    shape=st.integers(1, 32).map(lambda n: 2 * n),
    elements=st.integers(-1000, 1000),
)

images = hnp.arrays(
    dtype=np.int32,
    shape=st.tuples(
        st.integers(1, 6).map(lambda n: 2 * n), st.integers(1, 6).map(lambda n: 2 * n)
    ),
    elements=st.integers(0, 255),
)


class TestLiftingStepValidation:
    def test_bad_target(self):
        with pytest.raises(ConfigError):
            LiftingStep(target="x", num=1, den=2, bias=0, offset=1)

    def test_bad_denominator(self):
        with pytest.raises(ConfigError):
            LiftingStep(target="d", num=1, den=0, bias=0, offset=1)

    def test_bad_offset(self):
        with pytest.raises(ConfigError):
            LiftingStep(target="d", num=1, den=2, bias=0, offset=3)


@pytest.mark.parametrize("name", sorted(WAVELETS))
class TestAllWavelets:
    @given(data=signals)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_1d(self, name, data):
        w = WAVELETS[name]
        low, high = w.forward(data)
        assert np.array_equal(w.inverse(low, high), data)

    @given(img=images)
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_2d(self, name, img):
        w = WAVELETS[name]
        ll, lh, hl, hh = w.forward_2d(img)
        assert np.array_equal(w.inverse_2d(ll, lh, hl, hh), img)

    def test_constant_signal_zero_details(self, name):
        w = WAVELETS[name]
        _, high = w.forward(np.full(32, 100, dtype=np.int32))
        # Rounding biases may leave |detail| <= 1 for 9/7; Haar/5/3 are 0.
        assert np.all(np.abs(high) <= 1)

    def test_does_not_mutate_input(self, name):
        w = WAVELETS[name]
        data = np.arange(16, dtype=np.int32)
        copy = data.copy()
        w.forward(data)
        assert np.array_equal(data, copy)


class TestHaarLifting:
    @given(data=signals)
    @settings(max_examples=60, deadline=None)
    def test_detail_magnitude_matches_s_transform(self, data):
        """Lifting Haar's detail equals the S-transform detail up to sign."""
        # A signal repeated on two rows: its S-transform details are HL.
        s_high = forward_inplace(np.stack([data, data]))[0, 1::2]
        l_low, l_high = haar_wavelet().forward(data)
        assert np.array_equal(np.abs(l_high), np.abs(s_high))

    def test_adder_cost_ordering(self):
        assert (
            haar_wavelet().adders_per_butterfly
            < legall53_wavelet().adders_per_butterfly
            < cdf97_int_wavelet().adders_per_butterfly
        )


class TestLegall53:
    def test_linear_ramp_details_are_zero(self):
        """5/3 annihilates linear signals (vanishing moment), Haar does not."""
        ramp = np.arange(0, 64, 2, dtype=np.int32)
        _, high53 = legall53_wavelet().forward(ramp)
        # Interior details vanish (boundary may carry rounding residue).
        assert np.all(np.abs(high53[:-1]) <= 1)
        _, high_haar = haar_wavelet().forward(ramp)
        assert np.all(high_haar != 0)


class TestValidation:
    def test_odd_length_rejected(self):
        with pytest.raises(ConfigError):
            haar_wavelet().forward(np.arange(7, dtype=np.int32))

    def test_inverse_shape_mismatch(self):
        with pytest.raises(ConfigError):
            haar_wavelet().inverse(
                np.zeros(4, dtype=np.int32), np.zeros(5, dtype=np.int32)
            )

    def test_forward_2d_rejects_odd(self):
        with pytest.raises(ConfigError):
            haar_wavelet().forward_2d(np.zeros((5, 4), dtype=np.int32))
