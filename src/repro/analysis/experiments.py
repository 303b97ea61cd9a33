"""Experiments: one entry point per paper artifact.

Every table and figure of the paper's evaluation (and each ablation the
text argues qualitatively) has a function here returning a structured
result object with a ``render()`` method.  The artifact registry
(:mod:`repro.analysis.artifacts`) pairs each with its golden geometry;
EXPERIMENTS.md records the paper-vs-measured comparison they produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import (
    PAPER_IMAGE_WIDTHS,
    PAPER_THRESHOLDS,
    PAPER_WINDOW_SIZES,
    ArchitectureConfig,
)
from ..core.stats import (
    ImageCompressionReport,
    aligned_band_chunks,
    analyze_band,
    analyze_image,
    sliding_occupancy,
)
from ..core.transform.lifting import WAVELETS
from ..core.packing.nbits import bit_widths_signed, min_bits_signed
from ..core.packing.packer import band_widths, threshold_and_size
from ..errors import ConfigError
from ..hardware.primitives import BRAM_CAPACITY_BITS
from ..hardware.device import XC7Z020
from ..hardware.planner import PlacementPlan, plan_placement
from ..hardware.resources import BLOCK_ANCHORS, ResourceModel
from ..imaging.dataset import benchmark_dataset
from ..imaging.metrics import mse
from .ci import ConfidenceInterval, mean_confidence_interval
from .sweep import run_parallel
from .tables import render_table

# ----------------------------------------------------------------------
# Shared workers (top level so multiprocessing can pickle them)
# ----------------------------------------------------------------------


def _image_report_worker(
    args: tuple[ArchitectureConfig, np.ndarray],
) -> ImageCompressionReport:
    config, image = args
    return analyze_image(config, image)


#: :func:`suite_reports` results by ``(config, n_images)``.
_SUITE_REPORTS: dict[
    tuple[ArchitectureConfig, int], tuple[ImageCompressionReport, ...]
] = {}


def suite_reports(
    config: ArchitectureConfig,
    *,
    n_images: int,
    processes: int | None = None,
) -> tuple[ImageCompressionReport, ...]:
    """:func:`analyze_image` of each of the first ``n_images`` suite images.

    The suite is rendered at ``config.image_width``.  Memoised per
    ``(config, n_images)`` (``processes`` only decides how a sweep runs),
    so every suite sweep at one geometry — Tables II-V, Fig 13, the
    headline claims, the extensions' baseline rows — sizes the suite once.
    """
    key = (config, n_images)
    reports = _SUITE_REPORTS.get(key)
    if reports is None:
        images = benchmark_dataset(config.image_width, n_images=n_images)
        reports = tuple(
            run_parallel(
                _image_report_worker,
                [(config, img) for img in images],
                processes=processes,
            )
        )
        _SUITE_REPORTS[key] = reports
    return reports


# ----------------------------------------------------------------------
# Fig 3 — buffered memory as the window slides
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Fig3Result:
    """Per-sub-band buffered bits across one traversal (Fig 3)."""

    config: ArchitectureConfig
    positions: np.ndarray
    subband_kbits: dict[str, np.ndarray]
    management_kbits: np.ndarray
    total_kbits: np.ndarray
    traditional_kbits: float

    @property
    def peak_total_kbits(self) -> float:
        """Worst buffered footprint over the traversal."""
        return float(self.total_kbits.max())

    def render(self, *, samples: int = 12) -> str:
        """Table of sampled positions plus the summary line."""
        idx = np.linspace(0, self.positions.size - 1, samples).astype(int)
        rows = [
            [
                int(self.positions[i]),
                float(self.subband_kbits["LL"][i]),
                float(self.subband_kbits["LH"][i]),
                float(self.subband_kbits["HL"][i]),
                float(self.subband_kbits["HH"][i]),
                float(self.management_kbits[i]),
                float(self.total_kbits[i]),
            ]
            for i in idx
        ]
        table = render_table(
            ["x", "LL Kb", "LH Kb", "HL Kb", "HH Kb", "mgmt Kb", "total Kb"],
            rows,
            title=f"Fig 3 — buffered bits, {self.config.describe()}",
        )
        return (
            f"{table}\n"
            f"peak total = {self.peak_total_kbits:.1f} Kbits vs "
            f"traditional {self.traditional_kbits:.1f} Kbits"
        )


def fig3_memory_trace(
    *,
    resolution: int = 512,
    window: int = 64,
    threshold: int = 0,
    traversal_row: int | None = None,
) -> Fig3Result:
    """Reproduce Fig 3: buffered bits per sub-band across one traversal.

    Steady state is modelled by pairing the traversal band with the band
    one row above it (the data still resident in the buffers).
    """
    image = benchmark_dataset(resolution, n_images=1)[0]
    config = ArchitectureConfig(
        image_width=resolution,
        image_height=resolution,
        window_size=window,
        threshold=threshold,
    )
    y = traversal_row if traversal_row is not None else resolution // 2
    if not window <= y < resolution:
        raise ConfigError(f"traversal_row must be in [{window}, {resolution})")
    prev = analyze_band(config, image[y - window : y])
    cur = analyze_band(config, image[y - window + 1 : y + 1])
    prev_cols = prev.subband_payload_bits_per_column()
    cur_cols = cur.subband_payload_bits_per_column()

    positions = np.arange(resolution)
    subband_kbits: dict[str, np.ndarray] = {}
    for name in ("LL", "LH", "HL", "HH"):
        occ = sliding_occupancy(prev_cols[name], cur_cols[name], window, 0)
        subband_kbits[name] = occ / 1024.0
    mgmt = (
        np.full(resolution, cur.management_bits_per_column * (resolution - window))
        / 1024.0
    )
    total = sum(subband_kbits.values()) + mgmt
    return Fig3Result(
        config=config,
        positions=positions,
        subband_kbits=subband_kbits,
        management_kbits=mgmt,
        total_kbits=total,
        traditional_kbits=config.traditional_buffer_bits / 1024.0,
    )


# ----------------------------------------------------------------------
# Fig 13 — memory savings with confidence intervals
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Fig13Result:
    """Savings matrix: window size x threshold, with 90 % CIs."""

    resolution: int
    windows: tuple[int, ...]
    thresholds: tuple[int, ...]
    savings: dict[tuple[int, int], ConfidenceInterval]

    def render(self) -> str:
        """Render the result as an aligned text table."""
        rows = []
        for n in self.windows:
            row: list[object] = [n]
            for t in self.thresholds:
                row.append(str(self.savings[(n, t)]))
            rows.append(row)
        headers = ["window"] + [f"T={t} (%)" for t in self.thresholds]
        return render_table(
            headers,
            rows,
            title=(
                f"Fig 13 — memory saving (mean ± 90% CI), "
                f"{self.resolution}x{self.resolution}"
            ),
        )


def fig13_memory_savings(
    *,
    resolution: int = 2048,
    windows: tuple[int, ...] = PAPER_WINDOW_SIZES,
    thresholds: tuple[int, ...] = PAPER_THRESHOLDS,
    n_images: int = 10,
    processes: int | None = None,
) -> Fig13Result:
    """Reproduce Fig 13's savings sweep over the benchmark suite."""
    savings: dict[tuple[int, int], ConfidenceInterval] = {}
    for n in windows:
        for t in thresholds:
            config = ArchitectureConfig(
                image_width=resolution,
                image_height=resolution,
                window_size=n,
                threshold=t,
            )
            reports = suite_reports(config, n_images=n_images, processes=processes)
            values = np.array([r.memory_saving_percent for r in reports])
            savings[(n, t)] = mean_confidence_interval(values, confidence=0.90)
    return Fig13Result(
        resolution=resolution,
        windows=tuple(windows),
        thresholds=tuple(thresholds),
        savings=savings,
    )


# ----------------------------------------------------------------------
# Table I — traditional BRAM counts
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Table1Result:
    """Traditional architecture BRAM counts (Table I)."""

    widths: tuple[int, ...]
    windows: tuple[int, ...]
    counts: dict[tuple[int, int], int]

    def render(self) -> str:
        """Render the result as an aligned text table."""
        rows = [
            [n] + [self.counts[(n, w)] for w in self.widths] for n in self.windows
        ]
        return render_table(
            ["window"] + [str(w) for w in self.widths],
            rows,
            title="Table I — traditional sliding window, 18Kb BRAMs",
        )


def table1_traditional_brams(
    *,
    widths: tuple[int, ...] = PAPER_IMAGE_WIDTHS,
    windows: tuple[int, ...] = PAPER_WINDOW_SIZES,
) -> Table1Result:
    """Reproduce Table I: the memory plan's line buffers on XC7Z020."""
    counts: dict[tuple[int, int], int] = {}
    for n in windows:
        for w in widths:
            config = ArchitectureConfig(image_width=w, image_height=w, window_size=n)
            plan = plan_placement(config, np.zeros(n, dtype=np.int64))
            counts[(n, w)] = plan.traditional_brams
    return Table1Result(widths=tuple(widths), windows=tuple(windows), counts=counts)


# ----------------------------------------------------------------------
# Tables II-V — compressed architecture BRAM counts
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BramTableResult:
    """One of Tables II-V: packed + management BRAMs for one resolution."""

    width: int
    windows: tuple[int, ...]
    thresholds: tuple[int, ...]
    plans: dict[tuple[int, int], PlacementPlan]

    def render(self) -> str:
        """Render the result as an aligned text table."""
        rows = []
        for n in self.windows:
            row: list[object] = [n]
            for t in self.thresholds:
                plan = self.plans[(n, t)]
                row.append(f"{plan.packed_brams} (r={plan.rows_per_bram})")
            row.append(self.plans[(n, self.thresholds[0])].management_brams)
            row.append(self.plans[(n, self.thresholds[0])].traditional_brams)
            rows.append(row)
        headers = (
            ["window"]
            + [f"T={t}" for t in self.thresholds]
            + ["mgmt", "traditional"]
        )
        return render_table(
            headers,
            rows,
            title=(
                f"Compressed architecture 18Kb BRAMs, "
                f"{self.width}x{self.width} (packed bits per threshold)"
            ),
        )


def suite_worst_row_bits(
    width: int,
    window: int,
    threshold: int,
    *,
    n_images: int,
    processes: int | None = None,
) -> np.ndarray:
    """Worst packed bits of each band row over the benchmark suite.

    The per-row maxima of :func:`analyze_image`'s ``row_bits_worst`` over
    the first ``n_images`` suite images at ``width``, read from the
    :func:`suite_reports` memo.
    """
    config = ArchitectureConfig(
        image_width=width, image_height=width, window_size=window, threshold=threshold
    )
    reports = suite_reports(config, n_images=n_images, processes=processes)
    return np.maximum.reduce([r.row_bits_worst for r in reports])


def bram_table(
    width: int,
    *,
    windows: tuple[int, ...] = PAPER_WINDOW_SIZES,
    thresholds: tuple[int, ...] = PAPER_THRESHOLDS,
    n_images: int = 10,
    processes: int | None = None,
) -> BramTableResult:
    """Reproduce one of Tables II-V for image width ``width``.

    The design-time plan provisions for the worst compressed row sizes
    observed across the whole benchmark suite, exactly as a deployment
    configured for "the worst-case scenario" (Section V.E) would.
    """
    plans: dict[tuple[int, int], PlacementPlan] = {}
    for n in windows:
        for t in thresholds:
            config = ArchitectureConfig(
                image_width=width, image_height=width, window_size=n, threshold=t
            )
            worst = suite_worst_row_bits(
                width, n, t, n_images=n_images, processes=processes
            )
            plans[(n, t)] = plan_placement(config, worst)
    return BramTableResult(
        width=width,
        windows=tuple(windows),
        thresholds=tuple(thresholds),
        plans=plans,
    )


# ----------------------------------------------------------------------
# Tables VI-X — hardware resources
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ResourceTableResult:
    """One of Tables VI-X rendered from the calibrated resource model."""

    module: str
    windows: tuple[int, ...]
    model: ResourceModel = field(repr=False)

    def render(self) -> str:
        """Render the result as an aligned text table."""
        rows = []
        for n in self.windows:
            if self.module == "overall" and n not in BLOCK_ANCHORS["overall"]:
                est = self.model.estimate(self.module, n)
                fits = est.fits(self.model.device)
                rows.append(
                    [n, est.luts, est.registers, est.fmax_mhz, "exceeds device" if not fits else ""]
                )
                continue
            est = self.model.estimate(self.module, n)
            util = est.utilisation(self.model.device)
            rows.append(
                [
                    n,
                    est.luts,
                    est.registers,
                    est.fmax_mhz,
                    f"{util['luts']:.0f}% LUTs",
                ]
            )
        return render_table(
            ["window", "LUTs", "registers", "Fmax MHz", "note"],
            rows,
            title=f"Resources — {self.module} ({self.model.device.name})",
        )


def resource_table(
    module: str,
    *,
    windows: tuple[int, ...] = PAPER_WINDOW_SIZES,
) -> ResourceTableResult:
    """One of Tables VI-X (module in iwt / bit_packing / bit_unpacking /
    iiwt / overall)."""
    model = ResourceModel()
    model.estimate(module, windows[0])  # validates the module name eagerly
    return ResourceTableResult(module=module, windows=tuple(windows), model=model)


# ----------------------------------------------------------------------
# MSE vs threshold (Section VI.A text)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MseResult:
    """MSE sweep over thresholds, single-pass and recirculated."""

    resolution: int
    thresholds: tuple[int, ...]
    single_pass: dict[int, ConfidenceInterval]
    recirculated: dict[int, ConfidenceInterval] | None

    def render(self) -> str:
        """Render the result as an aligned text table."""
        rows = []
        paper = {2: 0.59, 4: 3.2, 6: 4.8}
        for t in self.thresholds:
            row: list[object] = [t, str(self.single_pass[t])]
            row.append(str(self.recirculated[t]) if self.recirculated else "-")
            row.append(paper.get(t, float("nan")))
            rows.append(row)
        return render_table(
            ["threshold", "MSE (single pass)", "MSE (recirculated)", "paper"],
            rows,
            title=f"MSE vs threshold, {self.resolution}x{self.resolution}",
        )


def reconstruct_single_pass(config: ArchitectureConfig, image: np.ndarray) -> np.ndarray:
    """Reconstruction after one aligned compression pass over the image.

    Each :func:`~repro.core.stats.aligned_band_chunks` stack is analysed
    and reconstructed in place; rows below the last full band stay raw.
    This is the measurement convention the paper's MSE figures
    correspond to.
    """
    out = np.asarray(image).astype(np.int64)
    for bands in aligned_band_chunks(config, out):
        bands[...] = analyze_band(config, bands).reconstruct()
    return out


def _mse_worker(args: tuple[ArchitectureConfig, np.ndarray, bool]) -> float:
    """MSE of one image: single pass, or the engine's recirculating loop."""
    from ..core.window.compressed import CompressedEngine
    from ..kernels.convolution import BoxFilterKernel

    config, image, recirculate = args
    if recirculate:
        engine = CompressedEngine(
            config, BoxFilterKernel(config.window_size), recirculate=True
        )
        rec = engine.run(image).reconstruction
    else:
        rec = reconstruct_single_pass(config, image)
    return mse(image, rec)


#: :func:`suite_single_pass_mse` results by ``(width, window, threshold,
#: n_images)``.
_SINGLE_PASS_MSE: dict[tuple[int, int, int, int], tuple[float, ...]] = {}


def suite_single_pass_mse(
    width: int,
    window: int,
    threshold: int,
    *,
    n_images: int,
    processes: int | None = None,
) -> tuple[float, ...]:
    """Single-pass MSE of each of the first ``n_images`` suite images.

    Memoised per geometry like :func:`suite_reports`, so the MSE
    figures and the headline claims' MSE gate share one sweep.
    """
    key = (width, window, threshold, n_images)
    errs = _SINGLE_PASS_MSE.get(key)
    if errs is None:
        config = ArchitectureConfig(
            image_width=width, image_height=width, window_size=window, threshold=threshold
        )
        errs = tuple(
            run_parallel(
                _mse_worker,
                [
                    (config, img, False)
                    for img in benchmark_dataset(width, n_images=n_images)
                ],
                processes=processes,
            )
        )
        _SINGLE_PASS_MSE[key] = errs
    return errs


def mse_vs_threshold(
    *,
    resolution: int = 512,
    window: int = 64,
    thresholds: tuple[int, ...] = (2, 4, 6),
    n_images: int = 10,
    include_recirculated: bool = False,
    processes: int | None = None,
) -> MseResult:
    """Reproduce the Section VI.A MSE figures (0.59 / 3.2 / 4.8)."""
    single: dict[int, ConfidenceInterval] = {}
    recirc: dict[int, ConfidenceInterval] | None = (
        {} if include_recirculated else None
    )
    for t in thresholds:
        vals = suite_single_pass_mse(
            resolution, window, t, n_images=n_images, processes=processes
        )
        single[t] = mean_confidence_interval(np.array(vals))
        if recirc is not None:
            config = ArchitectureConfig(
                image_width=resolution,
                image_height=resolution,
                window_size=window,
                threshold=t,
            )
            imgs = benchmark_dataset(resolution, n_images=n_images)
            vals_r = run_parallel(
                _mse_worker, [(config, img, True) for img in imgs], processes=processes
            )
            recirc[t] = mean_confidence_interval(np.array(vals_r))
    return MseResult(
        resolution=resolution,
        thresholds=tuple(thresholds),
        single_pass=single,
        recirculated=recirc,
    )


# ----------------------------------------------------------------------
# Headline claims (abstract): 25-70 % lossless, up to 84 % lossy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HeadlineResult:
    """The abstract's BRAM-saving claims, reproduced.

    The paper's "25-70 % lossless / up to 84 % lossy" headline is measured
    at the *BRAM count* level (compressed packed + management BRAMs vs the
    traditional architecture's, i.e. Tables II-V compared against Table I):
    e.g. window 128 at 512 x 512, T=6 gives (128 - 21)/128 = 83.6 %.
    """

    #: (width, window, lossless %, best lossy %, at T) rows.
    rows: tuple[tuple[int, int, float, float, int], ...]
    #: Mean single-pass MSE per (width, threshold), for the MSE<=5 gate.
    mse_by_width: dict[tuple[int, int], float]

    @property
    def lossless_range(self) -> tuple[float, float]:
        """(min, max) lossless BRAM saving across all geometries."""
        values = [r[2] for r in self.rows]
        return min(values), max(values)

    @property
    def best_lossy(self) -> float:
        """Largest MSE-gated lossy BRAM saving across all geometries."""
        return max(r[3] for r in self.rows)

    def render(self) -> str:
        """Render the result as an aligned text table."""
        table = render_table(
            ["width", "window", "lossless BRAM %", "best lossy BRAM %", "at T"],
            [list(r) for r in self.rows],
            title="Headline claims — BRAM-level savings (paper: 25-70 % / 84 %)",
        )
        lo, hi = self.lossless_range
        return (
            f"{table}\n"
            f"lossless range: {lo:.1f} - {hi:.1f} % (paper: 25-70 %)\n"
            f"best lossy (MSE<=5): {self.best_lossy:.1f} % (paper: up to 84 %)"
        )


def headline_claims(
    *,
    widths: tuple[int, ...] = PAPER_IMAGE_WIDTHS,
    windows: tuple[int, ...] = PAPER_WINDOW_SIZES,
    thresholds: tuple[int, ...] = PAPER_THRESHOLDS,
    n_images: int = 4,
    mse_limit: float = 5.0,
    processes: int | None = None,
) -> HeadlineResult:
    """Quantify the abstract's BRAM-saving claims across all geometries."""
    rows: list[tuple[int, int, float, float, int]] = []
    mse_by_width: dict[tuple[int, int], float] = {}
    for width in widths:
        # MSE gate per threshold (window choice barely affects single-pass
        # MSE; use the mid-size window 64 as representative).
        admissible: list[int] = []
        for t in thresholds:
            if t == 0:
                admissible.append(t)
                mse_by_width[(width, t)] = 0.0
                continue
            errs = suite_single_pass_mse(
                width, 64, t, n_images=n_images, processes=processes
            )
            mse_by_width[(width, t)] = float(np.mean(errs))
            if mse_by_width[(width, t)] <= mse_limit:
                admissible.append(t)
        for n in windows:
            if n >= width:
                continue
            savings: dict[int, float] = {}
            for t in admissible:
                config = ArchitectureConfig(
                    image_width=width, image_height=width, window_size=n, threshold=t
                )
                worst = suite_worst_row_bits(
                    width, n, t, n_images=n_images, processes=processes
                )
                savings[t] = plan_placement(config, worst).bram_saving_percent
            best_t = max(savings, key=lambda t: savings[t])
            rows.append((width, n, savings[0], savings[best_t], best_t))
    return HeadlineResult(rows=tuple(rows), mse_by_width=mse_by_width)


# ----------------------------------------------------------------------
# Fig 11 — memory mapping options
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Fig11Result:
    """Nominal savings of the rows-per-BRAM options."""

    rows: tuple[tuple[int, float, int], ...]

    def render(self) -> str:
        """Render the result as an aligned text table."""
        return render_table(
            ["rows/BRAM", "nominal saving %", "max row bits to fit"],
            [list(r) for r in self.rows],
            title="Fig 11 — memory mapping options (18Kb BRAM)",
        )


def fig11_mapping_options() -> Fig11Result:
    """The 0 / 50 / 75 / 87.5 % nominal option ladder of Fig 11.

    The options are the XC7Z020 portfolio's payload pooling choices,
    each priced against one RAMB18.
    """
    options = XC7Z020.portfolio.payload_options or ()
    rows = tuple(
        (r, (1.0 - 1.0 / r) * 100.0, BRAM_CAPACITY_BITS // r)
        for r in sorted(options)
    )
    return Fig11Result(rows=rows)


# ----------------------------------------------------------------------
# Ablations (Section IV.C design choices)
# ----------------------------------------------------------------------


def _per_column_payload_bits(plane: np.ndarray, threshold: int) -> int:
    """Payload bits of an interleaved plane under per-column NBits coding."""
    _, nbits, bitmap = threshold_and_size(plane, threshold)
    return int(band_widths(nbits, bitmap).sum())


@dataclass(frozen=True)
class AblationResult:
    """Generic ablation outcome: variant name -> mean bits per pixel."""

    title: str
    rows: tuple[tuple[str, float, float], ...]

    def render(self) -> str:
        """Render the result as an aligned text table."""
        return render_table(
            ["variant", "payload bits/pixel", "saving vs raw %"],
            [list(r) for r in self.rows],
            title=self.title,
        )


def ablation_wavelets(
    *,
    resolution: int = 512,
    window: int = 64,
    threshold: int = 0,
    n_images: int = 4,
) -> AblationResult:
    """Haar vs LeGall 5/3 vs integer 9/7 compression (Section IV.C).

    The paper chose Haar "instead of other transformations like 5/3 and
    7/9" on hardware-cost grounds; this quantifies the compression cost of
    that choice.
    """
    imgs = benchmark_dataset(resolution, n_images=n_images)
    rows: list[tuple[str, float, float]] = []
    config = ArchitectureConfig(
        image_width=resolution, image_height=resolution, window_size=window
    )
    for name, wavelet in WAVELETS.items():
        total_bits = 0
        total_pixels = 0
        for img in imgs:
            for bands in aligned_band_chunks(config, img.astype(np.int64)):
                for band in bands:
                    ll, lh, hl, hh = wavelet.forward_2d(band)
                    plane = np.empty(band.shape, dtype=np.int32)
                    plane[0::2, 0::2], plane[0::2, 1::2] = ll, hl
                    plane[1::2, 0::2], plane[1::2, 1::2] = lh, hh
                    total_bits += _per_column_payload_bits(plane, threshold)
                total_pixels += bands.size
        bpp = total_bits / total_pixels
        rows.append((name, bpp, (1.0 - bpp / 8.0) * 100.0))
    return AblationResult(
        title=f"Ablation — wavelet choice (T={threshold}, {resolution}^2)",
        rows=tuple(rows),
    )


def ablation_levels(
    *,
    resolution: int = 512,
    window: int = 64,
    threshold: int = 0,
    levels: tuple[int, ...] = (1, 2, 3),
    n_images: int = 4,
) -> AblationResult:
    """1 vs 2 vs 3 decomposition levels (the paper found 1 sufficient).

    Uses the real codec path (``decomposition_levels`` configuration), so
    the numbers include the per-column NBits behaviour of the deeper
    in-place layout exactly as the architecture would pack it.
    """
    imgs = benchmark_dataset(resolution, n_images=n_images)
    rows: list[tuple[str, float, float]] = []
    for lv in levels:
        config = ArchitectureConfig(
            image_width=resolution,
            image_height=resolution,
            window_size=window,
            threshold=threshold,
            decomposition_levels=lv,
        )
        total_bits = 0
        total_pixels = 0
        for img in imgs:
            for bands in aligned_band_chunks(config, img.astype(np.int64)):
                total_bits += int(analyze_band(config, bands).payload_bits.sum())
                total_pixels += bands.size
        bpp = total_bits / total_pixels
        rows.append((f"{lv} level(s)", bpp, (1.0 - bpp / 8.0) * 100.0))
    return AblationResult(
        title=f"Ablation — decomposition levels (T={threshold}, {resolution}^2)",
        rows=tuple(rows),
    )


def ablation_nbits_granularity(
    *,
    resolution: int = 512,
    window: int = 64,
    threshold: int = 0,
    n_images: int = 4,
) -> AblationResult:
    """NBits per column (paper) vs per coefficient vs per sub-band.

    Section IV.C: "we find the minimum number of bits for each column in
    each sub-band instead of other options like for each coefficient or
    for each sub-band because there was a tradeoff between the compression
    ratio and the number of management bits."  Bits/pixel here *includes*
    the management cost of each scheme, so the trade-off is visible.
    """
    imgs = benchmark_dataset(resolution, n_images=n_images)
    config = ArchitectureConfig(
        image_width=resolution, image_height=resolution, window_size=window
    )
    field_w = config.nbits_field_width
    totals = {"per-column (paper)": 0, "per-coefficient": 0, "per-sub-band": 0}
    total_pixels = 0
    for img in imgs:
        for bands in aligned_band_chunks(config, img.astype(np.int64)):
            analysis = analyze_band(config.with_threshold(threshold), bands)
            plane = analysis.plane
            c, n, w = plane.shape
            bitmap_bits = bands.size
            # per column: payload + 2 NBits fields per column + bitmap.
            totals["per-column (paper)"] += (
                int(analysis.widths.sum()) + 2 * field_w * w * c + bitmap_bits
            )
            # per coefficient: each significant coefficient stores its own
            # width field plus exactly its own bits.
            sig = plane != 0
            own = bit_widths_signed(plane)
            totals["per-coefficient"] += (
                int(own[sig].sum()) + field_w * int(sig.sum()) + bitmap_bits
            )
            # per sub-band: one NBits per sub-band of each band.
            bits = 0
            for rp in (0, 1):
                for cp in (0, 1):
                    quad = plane[:, rp::2, cp::2].reshape(c, -1)
                    nb = min_bits_signed(quad, axis=1)
                    bits += int((nb * np.count_nonzero(quad, axis=1)).sum())
                    bits += field_w * c
            totals["per-sub-band"] += bits + bitmap_bits
            total_pixels += bands.size
    rows = tuple(
        (name, t / total_pixels, (1.0 - (t / total_pixels) / 8.0) * 100.0)
        for name, t in totals.items()
    )
    return AblationResult(
        title=(
            f"Ablation — NBits granularity incl. management "
            f"(T={threshold}, {resolution}^2)"
        ),
        rows=rows,
    )


# ----------------------------------------------------------------------
# Throughput (Section V's fully-pipelined claim)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ThroughputResult:
    """Cycles-per-output comparison between the two architectures."""

    rows: tuple[tuple[str, int, int, int, float], ...]

    def render(self) -> str:
        """Render the result as an aligned text table."""
        return render_table(
            ["engine", "fill cycles", "process cycles", "outputs", "cycles/output"],
            [list(r) for r in self.rows],
            title="Throughput — both architectures are fully pipelined",
        )


def throughput_experiment(
    *,
    resolution: int = 64,
    window: int = 8,
    threshold: int = 0,
) -> ThroughputResult:
    """Both engines sustain one output per processing cycle.

    The compressed pipeline adds latency (more stages) but no throughput
    loss — the paper's "without any degradation in computing throughput
    performance" claim.
    """
    from ..core.window.compressed import CompressedEngine
    from ..core.window.traditional import TraditionalEngine
    from ..kernels.convolution import BoxFilterKernel

    config = ArchitectureConfig(
        image_width=resolution,
        image_height=resolution,
        window_size=window,
        threshold=threshold,
    )
    image = benchmark_dataset(resolution, n_images=1)[0]
    kernel = BoxFilterKernel(window)
    rows: list[tuple[str, int, int, int, float]] = []
    for name, engine in (
        ("traditional", TraditionalEngine(config, kernel)),
        ("compressed", CompressedEngine(config, kernel)),
    ):
        stats = engine.run(image).stats
        # Both consume one pixel per cycle; outputs stream at one per
        # cycle once the pipeline is primed.
        per_output = (stats.process_cycles) / stats.outputs
        rows.append(
            (name, stats.fill_cycles, stats.process_cycles, stats.outputs, per_output)
        )
    return ThroughputResult(rows=tuple(rows))
