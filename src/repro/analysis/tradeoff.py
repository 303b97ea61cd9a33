"""BRAM-vs-LUT trade-off analysis (the paper's concluding argument).

Section VII: the architecture "can be used ... to reduce BRAMs at the
expense of introducing more LUTs resources."  This module quantifies that
exchange rate per window size: how many 18 Kb BRAMs the compression saves
(Tables I-V arithmetic on the benchmark suite) against how many LUTs the
compression blocks cost (Tables VI-X model), plus whether the whole
design still fits the target device.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ArchitectureConfig
from ..hardware.device import FPGADevice, XC7Z020
from ..hardware.planner import plan_placement
from ..hardware.resources import ResourceModel
from .experiments import suite_worst_row_bits
from .tables import render_table


@dataclass(frozen=True, slots=True)
class TradeoffPoint:
    """One window size's position in the BRAM/LUT exchange."""

    window: int
    brams_saved: int
    luts_spent: int
    fits_device: bool

    @property
    def luts_per_bram_saved(self) -> float:
        """Exchange rate: LUTs paid per 18 Kb BRAM reclaimed."""
        if self.brams_saved <= 0:
            return float("inf")
        return self.luts_spent / self.brams_saved


@dataclass(frozen=True)
class TradeoffResult:
    """The full sweep."""

    width: int
    threshold: int
    device: FPGADevice
    points: tuple[TradeoffPoint, ...]

    def render(self) -> str:
        """Render the result as an aligned text table."""
        rows = []
        for p in self.points:
            rows.append(
                [
                    p.window,
                    p.brams_saved,
                    p.luts_spent,
                    p.luts_per_bram_saved,
                    "yes" if p.fits_device else "NO",
                ]
            )
        return render_table(
            [
                "window",
                "BRAMs saved",
                "LUTs spent",
                "LUTs / BRAM saved",
                f"fits {self.device.name}",
            ],
            rows,
            title=(
                f"BRAM-for-LUT exchange, {self.width}x{self.width}, "
                f"T={self.threshold}"
            ),
        )


def bram_lut_tradeoff(
    *,
    width: int = 512,
    threshold: int = 6,
    windows: tuple[int, ...] = (8, 16, 32, 64, 128),
    n_images: int = 3,
    device: FPGADevice = XC7Z020,
) -> TradeoffResult:
    """Sweep window sizes and measure the BRAM/LUT exchange rate."""
    model = ResourceModel(device)
    points: list[TradeoffPoint] = []
    for n in windows:
        config = ArchitectureConfig(
            image_width=width, image_height=width, window_size=n, threshold=threshold
        )
        worst = suite_worst_row_bits(
            width, n, threshold, n_images=n_images, processes=1
        )
        plan = plan_placement(config, worst)
        saved = plan.traditional_brams - plan.total_brams
        est = model.overall(n)
        points.append(
            TradeoffPoint(
                window=n,
                brams_saved=saved,
                luts_spent=est.luts,
                fits_device=device.accommodates(
                    {"luts": est.luts, "bram18": plan.total_brams}
                ),
            )
        )
    return TradeoffResult(
        width=width, threshold=threshold, device=device, points=tuple(points)
    )
