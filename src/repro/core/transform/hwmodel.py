"""Gate-level scalar models of the paper's Fig 5 / Fig 10 2x2 blocks.

These classes mirror the described RTL structure operation-by-operation:
each 1D butterfly is one subtractor, one arithmetic right shift and one
adder, and the 2D block wires four 1D blocks in two stages (stage-1 low
outputs feed the top stage-2 block, stage-1 high outputs the bottom one).

They are deliberately *scalar* and instrumented with operation counters —
the point is validation (bit-exact equivalence against the vectorised
:func:`repro.core.transform.haar2d.forward_inplace`, property-tested) and feeding
the analytical resource model, not speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _wrap_scalar(value: int, wrap_bits: int | None) -> int:
    """Two's-complement wrap of a Python int to ``wrap_bits`` bits."""
    if wrap_bits is None:
        return value
    modulus = 1 << wrap_bits
    half = modulus >> 1
    return ((value + half) & (modulus - 1)) - half


@dataclass(slots=True)
class OpCounter:
    """Running tally of datapath operations performed by a block model."""

    adds: int = 0
    subs: int = 0
    shifts: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.adds = self.subs = self.shifts = 0

    @property
    def total(self) -> int:
        """Total arithmetic operations (adds + subs + shifts)."""
        return self.adds + self.subs + self.shifts


@dataclass(slots=True)
class Haar2DBlock:
    """Forward 2D Haar block: four pixels in, (LL, LH, HL, HH) out (Fig 5).

    Input naming follows the image layout: ``x00`` is the top-left pixel of
    the 2x2 block, ``x01`` top-right, ``x10`` bottom-left, ``x11``
    bottom-right.
    """

    wrap_bits: int | None = None
    ops: OpCounter = field(default_factory=OpCounter)

    def _butterfly(self, x0: int, x1: int) -> tuple[int, int]:
        """One 1D block: ``H = x0 - x1``; ``L = x1 + (H >> 1)``."""
        h = _wrap_scalar(x0 - x1, self.wrap_bits)
        self.ops.subs += 1
        shifted = h >> 1
        self.ops.shifts += 1
        low = _wrap_scalar(x1 + shifted, self.wrap_bits)
        self.ops.adds += 1
        return low, h

    def forward(self, x00: int, x01: int, x10: int, x11: int) -> tuple[int, int, int, int]:
        """Transform one 2x2 pixel block; returns ``(LL, LH, HL, HH)``."""
        # Stage 1: horizontal butterflies on each row.
        l_top, h_top = self._butterfly(x00, x01)
        l_bot, h_bot = self._butterfly(x10, x11)
        # Stage 2: vertical butterflies; lows feed the top block, highs the
        # bottom block, exactly as Fig 5 wires them.
        ll, lh = self._butterfly(l_top, l_bot)
        hl, hh = self._butterfly(h_top, h_bot)
        return ll, lh, hl, hh


@dataclass(slots=True)
class InverseHaar2DBlock:
    """Inverse 2D Haar block: (LL, LH, HL, HH) in, four pixels out (Fig 10)."""

    wrap_bits: int | None = None
    ops: OpCounter = field(default_factory=OpCounter)

    def _inverse_butterfly(self, low: int, high: int) -> tuple[int, int]:
        """Undo one 1D block: ``x1 = L - (H >> 1)``; ``x0 = H + x1``."""
        shifted = high >> 1
        self.ops.shifts += 1
        x1 = _wrap_scalar(low - shifted, self.wrap_bits)
        self.ops.subs += 1
        x0 = _wrap_scalar(high + x1, self.wrap_bits)
        self.ops.adds += 1
        return x0, x1

    def inverse(self, ll: int, lh: int, hl: int, hh: int) -> tuple[int, int, int, int]:
        """Reconstruct the 2x2 block; returns ``(x00, x01, x10, x11)``."""
        # Stage 1 (mirror of forward stage 2): vertical reconstruction.
        l_top, l_bot = self._inverse_butterfly(ll, lh)
        h_top, h_bot = self._inverse_butterfly(hl, hh)
        # Stage 2: horizontal reconstruction of each row.
        x00, x01 = self._inverse_butterfly(l_top, h_top)
        x10, x11 = self._inverse_butterfly(l_bot, h_bot)
        return x00, x01, x10, x11
