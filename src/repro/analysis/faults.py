"""Soft-error fault-injection campaign over the protected memory path.

Sweeps upset rate x protection scheme x threshold through the compressed
engine with a seeded :class:`~repro.resilience.injector.FaultInjector`
strapped to the storage streams, and reports the damage each combination
lets through: corrupted output pixels, output MSE against a fault-free run
of the same configuration, the silent-corruption rate (bands corrupted
with no detection — the worst failure class) and the measured storage
overhead the protection costs.

The campaign is the quantitative argument for the protected memory path:
SECDED turns every single-bit upset per word into a corrected word at a
12.5 % storage premium, while the unprotected baseline leaks the same
upsets straight into the output map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ArchitectureConfig
from ..core.packing.packer import BandCodec
from ..core.stats import aligned_band_chunks
from ..core.window.compressed import CompressedEngine
from ..errors import ConfigError
from ..imaging.synthetic import generate_scene
from ..kernels import BoxFilterKernel
from ..resilience.injector import FaultInjector
from ..resilience.protection import resolve_policy
from .tables import render_table

#: Protection levels the default campaign compares.
DEFAULT_SCHEMES: tuple[str, ...] = ("none", "parity", "tmr-nbits", "secded")


@dataclass(frozen=True, slots=True)
class FaultCampaignPoint:
    """One (scheme, injection intensity, threshold) combination's outcome."""

    scheme: str
    threshold: int
    #: Bernoulli per-bit upset probability (None in exactly-k mode).
    upset_rate: float | None
    #: Exact flips per stored word (None in rate mode).
    flips_per_word: int | None
    bands: int
    flips_injected: int
    corrected_words: int
    uncorrectable_words: int
    resync_events: int
    corrupted_pixels: int
    silent_bands: int
    output_mse: float
    #: Measured stored-bits overhead vs the unprotected streams (percent).
    storage_overhead_percent: float

    @property
    def silent_corruption_rate(self) -> float:
        """Fraction of processed bands corrupted without detection."""
        if self.bands == 0:
            return 0.0
        return self.silent_bands / self.bands

    @property
    def intensity(self) -> str:
        """Human-readable injection intensity."""
        if self.flips_per_word is not None:
            return f"{self.flips_per_word}/word"
        return f"{self.upset_rate:.0e}" if self.upset_rate else "0"


@dataclass(frozen=True)
class FaultCampaignResult:
    """Full campaign sweep."""

    resolution: int
    window: int
    seed: int
    points: tuple[FaultCampaignPoint, ...]
    #: Target FPGA part the campaign's storage accounting describes.
    device: str = "XC7Z020"

    def render(self) -> str:
        """Render the campaign as an aligned text table."""
        rows = []
        for p in self.points:
            rows.append(
                [
                    p.scheme,
                    p.intensity,
                    p.threshold,
                    p.flips_injected,
                    p.corrected_words,
                    p.uncorrectable_words,
                    p.resync_events,
                    p.corrupted_pixels,
                    f"{p.output_mse:.3f}",
                    f"{100.0 * p.silent_corruption_rate:.1f}%",
                    f"{p.storage_overhead_percent:.1f}%",
                ]
            )
        return render_table(
            [
                "scheme",
                "upsets",
                "T",
                "flips",
                "corrected",
                "uncorr",
                "resyncs",
                "bad px",
                "MSE",
                "silent",
                "stored +",
            ],
            rows,
            title=(
                f"SEU campaign, {self.resolution}x{self.resolution}, "
                f"N={self.window}, seed={self.seed}, {self.device}"
            ),
        )


def measured_storage_overhead(
    config: ArchitectureConfig, image: np.ndarray, protection: object | None
) -> float:
    """Amortised stored-bits overhead of ``protection`` on ``image`` (%).

    Walks the image's aligned bands, totals the three raw stream sizes and scales
    each by its scheme's code expansion — the per-stream weighting makes
    this a *measured* figure (TMR on the tiny NBits stream costs far less
    than its naive 200 % would suggest).
    """
    policy = resolve_policy(protection)
    codec = BandCodec(config)
    fw = config.nbits_field_width
    raw = {"payload": 0, "nbits": 0, "bitmap": 0}
    for bands in aligned_band_chunks(config, image):
        for band in bands:
            encoded = codec.encode_band(band)
            raw["payload"] += int(sum(r.size for r in encoded.row_payloads))
            raw["nbits"] += int(encoded.nbits.size) * fw
            raw["bitmap"] += int(encoded.bitmap.size)
    total_raw = sum(raw.values())
    if total_raw == 0:
        return 0.0
    stored = sum(
        bits * policy.scheme_for(stream).expansion for stream, bits in raw.items()
    )
    return (stored / total_raw - 1.0) * 100.0


def fault_campaign(
    *,
    resolution: int = 96,
    window: int = 8,
    schemes: tuple[str, ...] = DEFAULT_SCHEMES,
    upset_rates: tuple[float, ...] = (1e-4, 1e-3),
    thresholds: tuple[int, ...] = (0,),
    flips_per_word: int | None = None,
    seed: int = 0,
    fault_policy: str = "degrade",
    codec: str = "auto",
    device: str = "XC7Z020",
) -> FaultCampaignResult:
    """Run the soft-error campaign and return every sweep point.

    ``flips_per_word`` switches the injector from Bernoulli rate mode to
    exactly-k-flips-per-stored-word mode (the acceptance experiment: k=1
    must be fully corrected by SECDED, k=2 must degrade gracefully); the
    ``upset_rates`` axis then collapses to a single entry.  ``codec``
    picks the pack/size tier of every engine in the sweep (all tiers are
    bit-identical, so campaign numbers are tier-independent).  ``device``
    names the part the storage-overhead accounting describes; the
    injection behaviour itself is device-independent.
    """
    from ..hardware.device import DEVICES

    if device not in DEVICES:
        raise ConfigError(
            f"unknown device {device!r}; choose from {sorted(DEVICES)}"
        )
    kernel = BoxFilterKernel(window)
    image = generate_scene(seed=seed + 1, resolution=resolution)
    intensities: tuple[float | None, ...] = (
        (None,) if flips_per_word is not None else upset_rates
    )

    points: list[FaultCampaignPoint] = []
    for threshold in thresholds:
        config = ArchitectureConfig(
            image_width=resolution,
            image_height=resolution,
            window_size=window,
            threshold=threshold,
        )
        clean = CompressedEngine(config, kernel, codec=codec).run(image)
        overheads = {
            scheme: measured_storage_overhead(config, image, scheme)
            for scheme in schemes
        }
        for scheme in schemes:
            for rate in intensities:
                injector = FaultInjector(
                    upset_rate=rate or 0.0,
                    flips_per_word=flips_per_word,
                    seed=seed,
                )
                engine = CompressedEngine(
                    config,
                    kernel,
                    protection=scheme,
                    injector=injector,
                    fault_policy=fault_policy,
                    codec=codec,
                )
                run = engine.run(image)
                summary = run.faults
                mse = float(
                    np.mean(
                        (run.outputs.astype(np.float64) - clean.outputs) ** 2
                    )
                )
                points.append(
                    FaultCampaignPoint(
                        scheme=scheme,
                        threshold=threshold,
                        upset_rate=rate,
                        flips_per_word=flips_per_word,
                        bands=summary.bands,
                        flips_injected=summary.flips_injected,
                        corrected_words=summary.corrected_words,
                        uncorrectable_words=summary.uncorrectable_words,
                        resync_events=summary.resync_events,
                        corrupted_pixels=summary.corrupted_pixels,
                        silent_bands=summary.silent_bands,
                        output_mse=mse,
                        storage_overhead_percent=overheads[scheme],
                    )
                )
    return FaultCampaignResult(
        resolution=resolution,
        window=window,
        seed=seed,
        points=tuple(points),
        device=device,
    )
