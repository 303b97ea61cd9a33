"""Analytical LUT / register / Fmax estimator (Tables VI-X substitute).

The paper's synthesis numbers scale linearly with window size, which its
own structural argument predicts: every block replicates a per-row slice
(one IWT butterfly pair, one Bit Packing unit, ...) N times plus a small
fixed controller.  This module therefore models each block as

.. code::

    LUTs(N) = a_l * N + b_l        registers(N) = a_r * N + b_r

with the coefficients least-squares fitted to the paper's published
anchors.  At the five evaluated window sizes the model reproduces the
anchors (within the paper's own rounding scatter — worst case about 2 %);
between and beyond them it extrapolates the structural trend.  Fmax is a
per-block constant in the paper (placement-bound, not size-bound) and is
modelled as such.

The ablation hook :meth:`ResourceModel.wavelet_scaled` rescales the
transform-block datapath by the lifting scheme's adders-per-butterfly so
the Haar-vs-5/3-vs-9/7 hardware-cost argument of Section IV.C can be
quantified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .device import FPGADevice, XC7Z020

#: Published post-synthesis anchors: module -> {N: (LUTs, registers)}.
BLOCK_ANCHORS: dict[str, dict[int, tuple[int, int]]] = {
    "iwt": {
        8: (386, 166),
        16: (770, 326),
        32: (1538, 646),
        64: (3074, 1276),
        128: (6146, 2566),
    },
    "bit_packing": {
        8: (1061, 200),
        16: (2083, 400),
        32: (4047, 801),
        64: (8598, 1856),
        128: (17179, 3712),
    },
    "bit_unpacking": {
        8: (2130, 203),
        16: (4246, 387),
        32: (8039, 817),
        64: (15660, 1637),
        128: (31660, 3237),
    },
    "iiwt": {
        8: (386, 130),
        16: (770, 258),
        32: (1538, 529),
        64: (3074, 1055),
        128: (6146, 2108),
    },
    "overall": {
        8: (4994, 1643),
        16: (9432, 2792),
        32: (17773, 5091),
        64: (35751, 9680),
    },
}

#: Per-block maximum operating frequency (MHz) from Tables VI-X.
BLOCK_FMAX: dict[str, float] = {
    "iwt": 592.1,
    "bit_packing": 538.6,
    "bit_unpacking": 343.1,
    "iiwt": 592.1,
    "overall": 230.3,
}

#: Blocks whose datapath is dominated by the wavelet butterflies; the
#: ablation rescales these by adders-per-butterfly relative to Haar's 2.
_TRANSFORM_BLOCKS = ("iwt", "iiwt")

@dataclass(frozen=True, slots=True)
class ResourceEstimate:
    """Estimated resources of one block (or the whole architecture)."""

    module: str
    window_size: int
    luts: int
    registers: int
    fmax_mhz: float
    #: True when the value comes straight from a published anchor.
    anchored: bool

    def fits(self, device: FPGADevice) -> bool:
        """True when the LUT and register demand fit ``device``."""
        return device.accommodates(
            {"luts": self.luts, "registers": self.registers}
        )

    def utilisation(self, device: FPGADevice) -> dict[str, float]:
        """Percent utilisation on ``device``."""
        return device.utilisation(
            {"luts": self.luts, "registers": self.registers}
        )


class ResourceModel:
    """Least-squares linear model over the published anchors."""

    def __init__(self, device: FPGADevice = XC7Z020, *, use_anchors: bool = True) -> None:
        self.device = device
        self.use_anchors = use_anchors
        self._fits: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for module, anchors in BLOCK_ANCHORS.items():
            sizes = np.array(sorted(anchors), dtype=np.float64)
            luts = np.array([anchors[int(n)][0] for n in sizes], dtype=np.float64)
            regs = np.array([anchors[int(n)][1] for n in sizes], dtype=np.float64)
            self._fits[module] = (
                np.polyfit(sizes, luts, 1),
                np.polyfit(sizes, regs, 1),
            )

    @property
    def modules(self) -> tuple[str, ...]:
        """Names of the modelled blocks."""
        return tuple(BLOCK_ANCHORS)

    def estimate(self, module: str, window_size: int) -> ResourceEstimate:
        """Resource estimate for ``module`` at window size ``window_size``."""
        if module not in self._fits:
            raise ConfigError(
                f"unknown module {module!r}; expected one of {sorted(self._fits)}"
            )
        if window_size < 2:
            raise ConfigError(f"window_size must be >= 2, got {window_size}")
        anchors = BLOCK_ANCHORS[module]
        if self.use_anchors and window_size in anchors:
            luts, regs = anchors[window_size]
            anchored = True
        else:
            lut_fit, reg_fit = self._fits[module]
            luts = int(round(max(0.0, np.polyval(lut_fit, window_size))))
            regs = int(round(max(0.0, np.polyval(reg_fit, window_size))))
            anchored = False
        return ResourceEstimate(
            module=module,
            window_size=window_size,
            luts=luts,
            registers=regs,
            fmax_mhz=BLOCK_FMAX[module],
            anchored=anchored,
        )

    def overall(self, window_size: int) -> ResourceEstimate:
        """Whole-architecture estimate (Table X)."""
        return self.estimate("overall", window_size)

    def block_sum(self, window_size: int) -> ResourceEstimate:
        """Sum of the four datapath blocks (excludes window registers/glue).

        The paper's overall figures exceed this sum by the active-window
        shift registers and control logic; comparing the two quantifies
        that overhead.
        """
        luts = regs = 0
        for module in ("iwt", "bit_packing", "bit_unpacking", "iiwt"):
            est = self.estimate(module, window_size)
            luts += est.luts
            regs += est.registers
        return ResourceEstimate(
            module="block_sum",
            window_size=window_size,
            luts=luts,
            registers=regs,
            fmax_mhz=min(
                BLOCK_FMAX[m] for m in ("iwt", "bit_packing", "bit_unpacking", "iiwt")
            ),
            anchored=False,
        )

    def wavelet_scaled(
        self, module: str, window_size: int, adders_per_butterfly: int
    ) -> ResourceEstimate:
        """Transform-block estimate under a different lifting wavelet.

        Haar uses 2 adder-equivalents per butterfly; LeGall 5/3 uses 4 and
        the integer 9/7 uses 8 (see
        :mod:`repro.core.transform.lifting`).  Only the size-dependent
        datapath term scales; the fixed controller term does not.
        """
        if module not in _TRANSFORM_BLOCKS:
            raise ConfigError(
                f"wavelet scaling applies to {_TRANSFORM_BLOCKS}, got {module!r}"
            )
        if adders_per_butterfly < 1:
            raise ConfigError(
                f"adders_per_butterfly must be >= 1, got {adders_per_butterfly}"
            )
        base = self.estimate(module, window_size)
        lut_fit, reg_fit = self._fits[module]
        scale = adders_per_butterfly / 2.0
        slope_luts = float(lut_fit[0]) * window_size
        slope_regs = float(reg_fit[0]) * window_size
        return ResourceEstimate(
            module=f"{module}[{adders_per_butterfly}add]",
            window_size=window_size,
            luts=int(round(base.luts + (scale - 1.0) * slope_luts)),
            registers=int(round(base.registers + (scale - 1.0) * slope_regs)),
            fmax_mhz=base.fmax_mhz,
            anchored=False,
        )

    def max_window_for_device(self, device: FPGADevice | None = None) -> int:
        """Largest even window whose overall estimate fits ``device``.

        Reproduces Table X's observation that window 128 exceeds the
        XC7Z020 (its row is dashed out in the paper).
        """
        dev = device or self.device
        n = 2
        best = 0
        while n <= 4096:
            if self.overall(n).fits(dev):
                best = n
            else:
                break
            n += 2
        return best
