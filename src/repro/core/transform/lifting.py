"""Generic integer lifting framework with Haar, LeGall 5/3 and CDF 9/7.

The paper (Section IV.C) justifies choosing the Haar transform over the 5/3
and 9/7 wavelets on hardware-cost grounds while conceding they compress
slightly better.  The ablation bench quantifies exactly that trade-off, so
this module implements all three as *integer* lifting schemes with perfect
reconstruction.

A lifting wavelet is a sequence of steps.  Each step adds, to one polyphase
channel, a rounded rational combination of that sample's two neighbours in
the *other* channel:

.. math::

    t_i \\mathrel{+}= \\left\\lfloor
        \\frac{p (u_{i-1+o} + u_{i+o}) + r}{q} \\right\\rfloor

Because each step only reads the channel it does not modify, the inverse is
the same sequence run backwards with subtraction — exact for any integers.
Boundaries use whole-sample symmetric extension (the JPEG 2000 convention).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...errors import ConfigError
from .haar2d import COEFF_DTYPE


@dataclass(frozen=True, slots=True)
class LiftingStep:
    """One integer lifting step.

    Attributes
    ----------
    target:
        ``"d"`` modifies the detail (odd) channel from the approximation
        channel, ``"s"`` the reverse.
    num, den:
        Rational filter tap applied to the sum of the two neighbours.
    bias:
        Added before the floor division (``den // 2`` gives round-to-nearest
        behaviour, ``0`` plain floor).
    offset:
        Neighbour alignment: for a ``d`` step the neighbours of ``d_i`` are
        ``s_{i}`` and ``s_{i+1}`` when ``offset == 1`` (causal pairing),
        ``s_{i-1}`` and ``s_i`` when ``offset == 0``, or ``s_i`` counted
        twice when ``offset == 2`` (self pairing, used by Haar); symmetric
        for ``s`` steps.
    """

    target: str
    num: int
    den: int
    bias: int
    offset: int

    def __post_init__(self) -> None:
        if self.target not in ("s", "d"):
            raise ConfigError(f"step target must be 's' or 'd', got {self.target!r}")
        if self.den <= 0:
            raise ConfigError(f"step denominator must be positive, got {self.den}")
        if self.offset not in (0, 1, 2):
            raise ConfigError(f"step offset must be 0, 1 or 2, got {self.offset}")


def _neighbour_sum(other: np.ndarray, offset: int) -> np.ndarray:
    """Sum of the two symmetric-extended neighbours for every position.

    ``offset == 1`` pairs index ``i`` with ``other[i]`` and ``other[i+1]``;
    ``offset == 0`` with ``other[i-1]`` and ``other[i]``; ``offset == 2``
    pairs ``other[i]`` with itself (sum is ``2 * other[i]``).
    """
    if offset == 2:
        return other + other
    if offset == 1:
        right = np.concatenate([other[..., 1:], other[..., -1:]], axis=-1)
        return other + right
    left = np.concatenate([other[..., :1], other[..., :-1]], axis=-1)
    return other + left


@dataclass(frozen=True, slots=True)
class LiftingWavelet:
    """An integer wavelet defined by a lifting-step sequence.

    Instances are immutable and reusable across arrays; the forward and
    inverse transforms operate along the last axis of even-length arrays.
    """

    name: str
    steps: tuple[LiftingStep, ...]
    #: Rough hardware cost in adder-equivalents per butterfly, used by the
    #: resource-model ablation (Haar = 2, 5/3 = 4, 9/7 = 8).
    adders_per_butterfly: int

    def forward(self, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split ``data`` (even length, last axis) into (low, high) channels."""
        arr = np.asarray(data)
        if arr.shape[-1] % 2:
            raise ConfigError(f"last axis must be even, got {arr.shape[-1]}")
        s = arr[..., 0::2].astype(COEFF_DTYPE)
        d = arr[..., 1::2].astype(COEFF_DTYPE)
        for step in self.steps:
            if step.target == "d":
                d += (step.num * _neighbour_sum(s, step.offset) + step.bias) // step.den
            else:
                s += (step.num * _neighbour_sum(d, step.offset) + step.bias) // step.den
        return s, d

    def inverse(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """Exact inverse of :meth:`forward`; returns the interleaved signal."""
        s = np.asarray(low).astype(COEFF_DTYPE)
        d = np.asarray(high).astype(COEFF_DTYPE)
        if s.shape != d.shape:
            raise ConfigError(f"channel shapes differ: {s.shape} vs {d.shape}")
        for step in reversed(self.steps):
            if step.target == "d":
                d -= (step.num * _neighbour_sum(s, step.offset) + step.bias) // step.den
            else:
                s -= (step.num * _neighbour_sum(d, step.offset) + step.bias) // step.den
        out = np.empty(s.shape[:-1] + (2 * s.shape[-1],), dtype=COEFF_DTYPE)
        out[..., 0::2] = s
        out[..., 1::2] = d
        return out

    def forward_2d(self, image: np.ndarray) -> "tuple[np.ndarray, ...]":
        """Separable 2D forward transform; returns (LL, LH, HL, HH)."""
        arr = np.asarray(image)
        if arr.ndim != 2 or arr.shape[0] % 2 or arr.shape[1] % 2:
            raise ConfigError(f"need a 2D even-sided image, got {arr.shape}")
        low_h, high_h = self.forward(arr)
        llt, lht = self.forward(np.swapaxes(low_h, 0, 1))
        hlt, hht = self.forward(np.swapaxes(high_h, 0, 1))
        return (
            np.swapaxes(llt, 0, 1),
            np.swapaxes(lht, 0, 1),
            np.swapaxes(hlt, 0, 1),
            np.swapaxes(hht, 0, 1),
        )

    def inverse_2d(
        self,
        ll: np.ndarray,
        lh: np.ndarray,
        hl: np.ndarray,
        hh: np.ndarray,
    ) -> np.ndarray:
        """Exact inverse of :meth:`forward_2d`."""
        low_h = np.swapaxes(
            self.inverse(np.swapaxes(ll, 0, 1), np.swapaxes(lh, 0, 1)), 0, 1
        )
        high_h = np.swapaxes(
            self.inverse(np.swapaxes(hl, 0, 1), np.swapaxes(hh, 0, 1)), 0, 1
        )
        return self.inverse(low_h, high_h)


def haar_wavelet() -> LiftingWavelet:
    """The Haar S-transform expressed as two lifting steps.

    ``d -= s`` then ``s += floor(d / 2)`` — one subtractor, one adder and a
    shift, the cheapest possible integer wavelet.
    """
    return LiftingWavelet(
        name="haar",
        steps=(
            # d_i -= floor(2 * s_i / 2) == d_i -= s_i
            LiftingStep(target="d", num=-1, den=2, bias=0, offset=2),
            # s_i += floor(2 * d_i / 4) == s_i += floor(d_i / 2)
            LiftingStep(target="s", num=1, den=4, bias=0, offset=2),
        ),
        adders_per_butterfly=2,
    )


def legall53_wavelet() -> LiftingWavelet:
    """The LeGall 5/3 integer wavelet (JPEG 2000 reversible filter).

    ``d_i -= floor((s_i + s_{i+1}) / 2)`` then
    ``s_i += floor((d_{i-1} + d_i + 2) / 4)``.
    """
    return LiftingWavelet(
        name="legall53",
        steps=(
            LiftingStep(target="d", num=-1, den=2, bias=0, offset=1),
            LiftingStep(target="s", num=1, den=4, bias=2, offset=0),
        ),
        adders_per_butterfly=4,
    )


def cdf97_int_wavelet() -> LiftingWavelet:
    """Integer-rounded CDF 9/7 lifting (four steps, scaling omitted).

    The irrational lifting coefficients (alpha=-1.586..., beta=-0.053...,
    gamma=0.883..., delta=0.444...) are approximated by the standard
    fixed-point rationals over 4096.  The final K scaling of the float 9/7
    is a pure gain and is omitted — compression behaviour, which is what the
    ablation measures, is unaffected, and integer reversibility is exact.
    """
    return LiftingWavelet(
        name="cdf97int",
        steps=(
            LiftingStep(target="d", num=-6497, den=4096, bias=2048, offset=1),
            LiftingStep(target="s", num=-217, den=4096, bias=2048, offset=0),
            LiftingStep(target="d", num=3616, den=4096, bias=2048, offset=1),
            LiftingStep(target="s", num=1817, den=4096, bias=2048, offset=0),
        ),
        adders_per_butterfly=8,
    )


#: Registry used by the ablation bench and the CLI.
WAVELETS: dict[str, LiftingWavelet] = {
    w.name: w for w in (haar_wavelet(), legall53_wavelet(), cdf97_int_wavelet())
}
