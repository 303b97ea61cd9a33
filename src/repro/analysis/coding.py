"""Coding-efficiency analysis: NBits packing vs entropy vs JPEG-LS.

Section II argues that standard codecs (JPEG-LS) compress better but cost
too much hardware, and that the proposed NBits/BitMap packing is "simple
[yet] shows good compression ratios".  This module quantifies the whole
ladder for a given image:

- raw bits (8/pixel),
- the paper's scheme (payload + management),
- the pooled first-order empirical entropy of the thresholded wavelet
  coefficients — a lower bound for *memoryless* coefficient coders; the
  per-column-adaptive NBits packing can legitimately land below it,
- LOCO-lite (simplified JPEG-LS) on the pixel domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.jpegls import LocoLiteCodec
from ..config import ArchitectureConfig
from ..core.stats import aligned_band_chunks, analyze_band
from .tables import render_table


def rice_payload_bits(plane: np.ndarray) -> int:
    """Per-column optimal Golomb-Rice cost of an interleaved plane.

    A natural "what if" extension of the architecture: replace the fixed
    per-column NBits with a per-column Rice parameter (folded-sign
    mapping, optimal k chosen per column and row parity, parameter stored
    in the same 4-bit management field).  Rice decoding is serial in the
    unary prefix, which is why the paper's constant-width packing wins on
    hardware — this function quantifies the compression it forgoes.
    """
    arr = np.asarray(plane, dtype=np.int64)
    folded = np.where(arr >= 0, 2 * arr, -2 * arr - 1)
    total = 0
    for parity in (0, 1):
        rows = folded[parity::2, :]
        # Cost of coding every element of a column with parameter k:
        # sum(v >> k) + len + k * len; evaluate all k in one shot.
        for col in rows.T:
            best = None
            for k in range(0, 16):
                cost = int((col >> k).sum()) + col.size + k * col.size
                if best is None or cost < best:
                    best = cost
            total += int(best)
    return total


def empirical_entropy_bits(values: np.ndarray) -> float:
    """Total first-order entropy (bits) of an integer sample array."""
    arr = np.asarray(values).ravel()
    if arr.size == 0:
        return 0.0
    _, counts = np.unique(arr, return_counts=True)
    p = counts / arr.size
    return float(-(p * np.log2(p)).sum() * arr.size)


@dataclass(frozen=True, slots=True)
class CodingEfficiencyReport:
    """Bits/pixel of every rung of the coding ladder for one image."""

    config: ArchitectureConfig
    raw_bpp: float
    nbits_payload_bpp: float
    nbits_total_bpp: float
    rice_payload_bpp: float
    coefficient_entropy_bpp: float
    loco_bpp: float

    def render(self) -> str:
        """Render the result as an aligned text table."""
        rows = [
            ["raw pixels", self.raw_bpp, 0.0],
            [
                "NBits packing (payload only)",
                self.nbits_payload_bpp,
                (1 - self.nbits_payload_bpp / self.raw_bpp) * 100,
            ],
            [
                "NBits packing (+ management)",
                self.nbits_total_bpp,
                (1 - self.nbits_total_bpp / self.raw_bpp) * 100,
            ],
            [
                "per-column Rice payload (what-if)",
                self.rice_payload_bpp,
                (1 - self.rice_payload_bpp / self.raw_bpp) * 100,
            ],
            [
                "coefficient entropy bound",
                self.coefficient_entropy_bpp,
                (1 - self.coefficient_entropy_bpp / self.raw_bpp) * 100,
            ],
            [
                "LOCO-lite (simplified JPEG-LS)",
                self.loco_bpp,
                (1 - self.loco_bpp / self.raw_bpp) * 100,
            ],
        ]
        return render_table(
            ["coder", "bits/pixel", "saving %"],
            rows,
            title=f"Coding efficiency — {self.config.describe()}",
        )

    @property
    def nbits_overhead_vs_entropy(self) -> float:
        """How far NBits payload coding sits above the entropy bound (x)."""
        if self.coefficient_entropy_bpp == 0:
            return float("inf")
        return self.nbits_payload_bpp / self.coefficient_entropy_bpp


def coding_efficiency(
    config: ArchitectureConfig, image: np.ndarray
) -> CodingEfficiencyReport:
    """Measure the coding ladder on ``image``'s aligned bands under ``config``.

    Entropy and Rice costs are taken band by band, as a band is coded.
    """
    arr = np.asarray(image).astype(np.int64)
    payload = 0
    mgmt = 0
    entropy = 0.0
    rice = 0
    pixels = 0
    for bands in aligned_band_chunks(config, arr):
        analysis = analyze_band(config, bands)
        payload += int(analysis.payload_bits.sum())
        mgmt += analysis.management_bits * len(bands)
        for plane in analysis.plane:
            entropy += empirical_entropy_bits(plane)
            rice += rice_payload_bits(plane)
        pixels += bands.size
    loco_bits = LocoLiteCodec(config.pixel_bits).encode_bits(arr)
    return CodingEfficiencyReport(
        config=config,
        raw_bpp=float(config.pixel_bits),
        nbits_payload_bpp=payload / pixels,
        nbits_total_bpp=(payload + mgmt) / pixels,
        rice_payload_bpp=rice / pixels,
        coefficient_entropy_bpp=entropy / pixels,
        loco_bpp=loco_bits / arr.size,
    )
