"""The artifact registry: every deterministic paper table and figure, once.

:data:`ARTIFACTS` maps each artifact name to one :class:`Artifact`: the
experiment that computes it, its one golden geometry and the renderer
that prints it, paper reference lines included.  Three readers share
the table, so an artifact cannot drift between them:

- ``benchmarks/bench_artifacts.py`` regenerates every entry at its
  golden geometry and compares the text with the committed
  ``benchmarks/out/<name>.txt``;
- ``repro artifact NAME`` prints one entry, at its golden geometry
  unless a flag says otherwise;
- ``repro report`` prints every entry in registry order.

A geometry's keys are the only flags its entry takes
(:data:`FLAGS`); :meth:`Artifact.run` refuses any other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping

import numpy as np

from ..config import PAPER_WINDOW_SIZES, ArchitectureConfig
from ..errors import ConfigError
from ..imaging.dataset import benchmark_dataset, dataset_images
from . import experiments as ex
from .coding import coding_efficiency
from .faults import fault_campaign
from .sensitivity import sensitivity_sweep
from .tables import render_table
from .tradeoff import bram_lut_tradeoff

#: Every flag an entry may take, as its experiment's keyword; the CLI
#: spells ``n_images`` as ``--images``.
FLAGS = ("resolution", "window", "threshold", "n_images", "processes")

#: The paper's Tables II-V: packed BRAMs at T = 0/2/4/6 and management
#: BRAMs, per image width and window size.
PAPER_BRAM_TABLES: dict[int, dict[str, dict[int, Any]]] = {
    512: {
        "packed": {
            8: (2, 2, 2, 1),
            16: (4, 4, 2, 2),
            32: (8, 8, 4, 4),
            64: (16, 16, 16, 8),
            128: (32, 32, 32, 16),
        },
        "mgmt": {8: 2, 16: 2, 32: 2, 64: 3, 128: 5},
    },
    1024: {
        "packed": {
            8: (4, 4, 2, 2),
            16: (8, 8, 4, 4),
            32: (16, 16, 8, 8),
            64: (32, 32, 16, 16),
            128: (64, 64, 32, 32),
        },
        "mgmt": {8: 2, 16: 2, 32: 3, 64: 5, 128: 9},
    },
    2048: {
        "packed": {
            8: (4, 4, 4, 4),
            16: (8, 8, 8, 8),
            32: (16, 16, 16, 16),
            64: (32, 32, 32, 32),
            128: (64, 64, 64, 64),
        },
        "mgmt": {8: 2, 16: 3, 32: 5, 64: 9, 128: 16},
    },
    3840: {
        "packed": {
            8: (8, 8, 8, 8),
            16: (16, 16, 16, 16),
            32: (32, 32, 32, 32),
            64: (64, 64, 64, 64),
            128: (128, 128, 128, 128),
        },
        "mgmt": {8: 4, 16: 6, 32: 9, 64: 16, 128: 28},
    },
}


def _flag(name: str) -> str:
    """The CLI spelling of an experiment keyword."""
    return "--images" if name == "n_images" else "--" + name.replace("_", "-")


def _render(result: Any) -> str:
    """The default renderer: the result's own ``render()``."""
    text: str = result.render()
    return text


@dataclass(frozen=True, slots=True)
class Artifact:
    """One paper artifact: how it is computed, at what size, how it prints."""

    #: ``**geometry -> result``.
    experiment: Callable[..., Any]
    #: The golden geometry.  Its keys are the only flags the entry takes.
    geometry: Mapping[str, int | None] = field(default_factory=dict)
    #: Appended to the rendering: the paper's own numbers, for comparison.
    reference: str = ""
    render: Callable[[Any], str] = _render

    def run(self, **flags: int | None) -> Any:
        """The experiment at the golden geometry, overridden by the given flags.

        ``None`` means "not given"; a flag outside the geometry is a
        :class:`ConfigError`.
        """
        given = {k: v for k, v in flags.items() if v is not None}
        refused = sorted(set(given) - set(self.geometry))
        if refused:
            takes = ", ".join(_flag(k) for k in self.geometry) or "no flags"
            raise ConfigError(
                f"takes no {', '.join(_flag(k) for k in refused)} (it takes {takes})"
            )
        return self.experiment(**{**self.geometry, **given})

    def text(self, result: Any) -> str:
        """The rendered artifact: table plus paper reference lines."""
        return self.render(result) + self.reference


@dataclass(frozen=True)
class TableResult:
    """An artifact that is one table of rows."""

    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]

    def render(self) -> str:
        """Render the rows as an aligned text table."""
        return render_table(self.headers, self.rows, title=self.title)


# ----------------------------------------------------------------------
# Experiments whose only home is their artifact
# ----------------------------------------------------------------------


def dataset_statistics(*, resolution: int, n_images: int) -> TableResult:
    """Fig 12: per-image statistics of the benchmark suite."""
    rows = tuple(
        (name, float(img.mean()), float(img.std()), int(img.min()), int(img.max()))
        for name, img in dataset_images(resolution, n_images=n_images)
    )
    return TableResult(
        title="Fig 12 — benchmark suite (render it as PGM: repro dataset --out DIR)",
        headers=("image", "mean", "std", "min", "max"),
        rows=rows,
    )


def latency_sweep(*, resolution: int) -> TableResult:
    """First-output cycle of both architectures per window (Section V)."""
    from ..hardware.latency import (
        compressed_latency,
        latency_overhead_percent,
        traditional_latency,
    )

    rows = []
    for window in PAPER_WINDOW_SIZES:
        cfg = ArchitectureConfig(
            image_width=resolution, image_height=resolution, window_size=window
        )
        comp = compressed_latency(cfg)
        rows.append(
            (
                window,
                traditional_latency(cfg).first_output_cycle,
                comp.first_output_cycle,
                comp.latency_overhead_cycles,
                f"{latency_overhead_percent(cfg):.4f}%",
            )
        )
    return TableResult(
        title=f"Pipeline latency at {resolution}x{resolution}",
        headers=(
            "window",
            "traditional first-output cycle",
            "compressed first-output cycle",
            "extra cycles",
            "overhead",
        ),
        rows=tuple(rows),
    )


#: The datapath extensions beyond the paper, as configuration overrides.
EXTENSIONS: dict[str, dict[str, Any]] = {
    "paper baseline (1 level)": {},
    "LL-DPCM": {"ll_dpcm": True},
    "2 levels": {"decomposition_levels": 2},
    "2 levels + LL-DPCM": {"decomposition_levels": 2, "ll_dpcm": True},
}


def extension_savings(*, resolution: int, window: int, n_images: int) -> TableResult:
    """Mean lossless and lossy saving of each datapath extension.

    Every variant sizes the suite through
    :func:`~repro.analysis.experiments.suite_reports`, so the baseline
    rows reuse the Table II-V sweep at this geometry.
    """
    rows = []
    for name, extra in EXTENSIONS.items():
        for t in (0, 6):
            config = ArchitectureConfig(
                image_width=resolution,
                image_height=resolution,
                window_size=window,
                threshold=t,
                **extra,
            )
            savings = [
                r.memory_saving_percent
                for r in ex.suite_reports(config, n_images=n_images)
            ]
            rows.append((name, t, float(np.mean(savings))))
    return TableResult(
        title=f"Extensions beyond the paper, {resolution}x{resolution}, N={window}",
        headers=("variant", "T", "mean saving %"),
        rows=tuple(rows),
    )


def buffering_tradeoffs(*, resolution: int, window: int, threshold: int) -> TableResult:
    """On-chip bits vs off-chip reads of the four buffering schemes (Section II)."""
    from ..baselines.blockbuffer import BlockBufferingArchitecture
    from ..baselines.segmentation import SegmentedArchitecture
    from ..core.window.compressed import CompressedEngine
    from ..kernels import BoxFilterKernel

    config = ArchitectureConfig(
        image_width=resolution,
        image_height=resolution,
        window_size=window,
        threshold=threshold,
    )
    image = benchmark_dataset(resolution, n_images=1)[0].astype(np.int64)
    kernel = BoxFilterKernel(window)
    comp = CompressedEngine(config, kernel).run(image)
    rows: list[tuple[Any, ...]] = [
        ("traditional line buffers", config.traditional_buffer_bits, 1.0, "yes"),
        ("compressed line buffers (paper)", comp.stats.buffer_bits_peak, 1.0, "yes"),
    ]
    for b in (window, 2 * window, 4 * window):
        _, block = BlockBufferingArchitecture(config, kernel, b).run(image)
        rows.append(
            (
                f"block buffering [5,6] B={b}",
                block.onchip_bits,
                round(block.reads_per_output, 2),
                "no",
            )
        )
    for s in (2 * window, 4 * window):
        _, seg = SegmentedArchitecture(config, kernel, s).run(image)
        rows.append(
            (f"segmented [7] S={s}", seg.onchip_bits, round(seg.reads_per_output, 2), "no")
        )
    return TableResult(
        title=(
            f"Buffering trade-offs, {resolution}x{resolution}, "
            f"N={window}, T={threshold}"
        ),
        headers=(
            "architecture",
            "on-chip bits",
            "off-chip reads/output",
            "camera streaming",
        ),
        rows=tuple(rows),
    )


def _coding(*, resolution: int, window: int, threshold: int) -> Any:
    """The coding ladder on the suite's first image."""
    config = ArchitectureConfig(
        image_width=resolution,
        image_height=resolution,
        window_size=window,
        threshold=threshold,
    )
    image = benchmark_dataset(resolution, n_images=1)[0].astype(np.int64)
    return coding_efficiency(config, image)


def _bram_table(*, resolution: int, **geometry: Any) -> ex.BramTableResult:
    """One of Tables II-V at image width ``resolution``."""
    return ex.bram_table(resolution, **geometry)


def _tradeoff(*, resolution: int, threshold: int, n_images: int) -> Any:
    """The BRAM-for-LUT exchange at image width ``resolution``."""
    return bram_lut_tradeoff(width=resolution, threshold=threshold, n_images=n_images)


def _wavelet_costs(result: ex.AblationResult) -> str:
    """The wavelet ablation beside each wavelet's IWT LUT cost at N=64."""
    from ..core.transform.lifting import WAVELETS
    from ..hardware.resources import ResourceModel

    model = ResourceModel()
    bpp = {name: v for name, v, _ in result.rows}
    rows = [
        (name, bpp[name], model.wavelet_scaled("iwt", 64, w.adders_per_butterfly).luts)
        for name, w in WAVELETS.items()
    ]
    cost = render_table(
        ["wavelet", "payload bits/pixel", "IWT LUTs (N=64)"],
        rows,
        title="Ablation — compression vs hardware cost",
    )
    return f"{result.render()}\n\n{cost}"


def _bram_render(result: ex.BramTableResult) -> str:
    """A Table II-V, followed by the paper's cells when it has that width."""
    ref = PAPER_BRAM_TABLES.get(result.width)
    if ref is None:
        return result.render()
    lines = [result.render(), "", "paper reference (packed T=0/2/4/6 | mgmt):"]
    lines += [
        f"  window {n:>3}: {ref['packed'][n]} | {ref['mgmt'][n]}"
        for n in result.windows
    ]
    return "\n".join(lines)


def _bram_entry(width: int) -> Artifact:
    """A Table II-V entry: the suite's worst rows planned at ``width``."""
    return Artifact(
        _bram_table,
        {"resolution": width, "n_images": 4, "processes": None},
        render=_bram_render,
    )


def _resource_entry(module: str) -> Artifact:
    """A Table VI-X entry: the calibrated resource model of one block."""
    return Artifact(partial(ex.resource_table, module))


#: Name -> artifact, in the paper's order, then the extensions.
ARTIFACTS: dict[str, Artifact] = {
    "table1": Artifact(
        ex.table1_traditional_brams,
        reference="\nexact match against the paper: asserted",
    ),
    "table2": _bram_entry(512),
    "table3": _bram_entry(1024),
    "table4": _bram_entry(2048),
    "table5": _bram_entry(3840),
    "table6": _resource_entry("iwt"),
    "table7": _resource_entry("bit_packing"),
    "table8": _resource_entry("bit_unpacking"),
    "table9": _resource_entry("iiwt"),
    "table10": _resource_entry("overall"),
    "fig3": Artifact(
        ex.fig3_memory_trace,
        {"resolution": 512, "window": 64, "threshold": 0},
        reference=(
            "\npaper reference: total ~217 Kbits vs traditional 230 Kbits; "
            "LL roughly 2x each detail band"
        ),
    ),
    "fig11": Artifact(ex.fig11_mapping_options),
    "fig12": Artifact(dataset_statistics, {"resolution": 512, "n_images": 10}),
    "fig13": Artifact(
        ex.fig13_memory_savings,
        {"resolution": 2048, "n_images": 4, "processes": None},
        reference="\npaper reference: T=0 saves 26-34 %; T=6 saves 41-54 %",
    ),
    "mse": Artifact(
        partial(ex.mse_vs_threshold, thresholds=(2, 4, 6), include_recirculated=True),
        {"resolution": 512, "window": 64, "n_images": 4, "processes": None},
    ),
    "headline": Artifact(ex.headline_claims, {"n_images": 4, "processes": None}),
    "throughput": Artifact(
        ex.throughput_experiment, {"resolution": 128, "window": 8, "threshold": 0}
    ),
    "tradeoff": Artifact(_tradeoff, {"resolution": 512, "threshold": 6, "n_images": 2}),
    "latency": Artifact(latency_sweep, {"resolution": 2048}),
    "extensions": Artifact(
        extension_savings, {"resolution": 512, "window": 64, "n_images": 4}
    ),
    "ablation_wavelets": Artifact(
        ex.ablation_wavelets,
        {"resolution": 512, "window": 64, "threshold": 0, "n_images": 2},
        render=_wavelet_costs,
    ),
    "ablation_levels": Artifact(
        ex.ablation_levels,
        {"resolution": 512, "window": 64, "threshold": 0, "n_images": 2},
    ),
    "ablation_nbits": Artifact(
        ex.ablation_nbits_granularity,
        {"resolution": 512, "window": 64, "threshold": 0, "n_images": 2},
    ),
    "sensitivity_noise": Artifact(
        partial(sensitivity_sweep, "sensor_noise", seeds=(1, 2)),
        {"resolution": 256, "window": 16},
    ),
    "sensitivity_texture": Artifact(
        partial(sensitivity_sweep, "texture_amplitude", seeds=(1, 2)),
        {"resolution": 256, "window": 16},
    ),
    "sensitivity_luminance": Artifact(
        partial(sensitivity_sweep, "base_luminance", seeds=(1, 2)),
        {"resolution": 256, "window": 16},
    ),
    "related_work_buffering": Artifact(
        buffering_tradeoffs, {"resolution": 256, "window": 16, "threshold": 6}
    ),
    "coding_efficiency": Artifact(
        _coding, {"resolution": 256, "window": 32, "threshold": 0}
    ),
    "fault_campaign": Artifact(
        partial(
            fault_campaign, upset_rates=(1e-4, 1e-3), thresholds=(0, 6), seed=0
        ),
        {"resolution": 96, "window": 8},
    ),
    "fault_campaign_1perword": Artifact(
        partial(fault_campaign, schemes=("none", "secded"), flips_per_word=1, seed=0),
        {"resolution": 96, "window": 8},
    ),
}


def render_artifact(name: str, **flags: int | None) -> str:
    """Run artifact ``name`` (golden geometry unless flags say otherwise) and render it."""
    entry = ARTIFACTS.get(name)
    if entry is None:
        raise ConfigError(f"unknown artifact {name!r}; choose from {list(ARTIFACTS)}")
    return entry.text(entry.run(**flags))
