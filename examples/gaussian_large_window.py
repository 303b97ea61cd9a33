"""Large-support Gaussian smoothing: the 5-sigma window rule in practice.

Section I: "for a Gaussian smoothing filter, the size of the window should
be at least 5 times its standard deviation".  This example sweeps sigma,
sizes the window by that rule, and shows where the traditional
architecture runs out of LUT/BRAM headroom on the paper's XC7Z020 while
the compressed one still fits.

Run:  python examples/gaussian_large_window.py
"""

from __future__ import annotations

import numpy as np

from repro import ArchitectureConfig, CompressedEngine, TraditionalEngine, analyze_image
from repro.analysis.tables import render_table
from repro.hardware.device import XC7Z020
from repro.hardware.planner import plan_placement
from repro.hardware.resources import ResourceModel
from repro.imaging import generate_scene
from repro.kernels import GaussianKernel, gaussian_taps


def main() -> None:
    resolution = 512
    image = generate_scene(seed=17, resolution=resolution).astype(np.int64)
    model = ResourceModel()

    rows = []
    for sigma in (1.6, 3.2, 6.4, 12.8, 25.0):
        taps = gaussian_taps(sigma)  # five-sigma rule, rounded to even
        window = taps.shape[0]
        cfg = ArchitectureConfig(
            image_width=resolution,
            image_height=resolution,
            window_size=window,
            threshold=4,
        )
        report = analyze_image(cfg, image)
        plan = plan_placement(cfg, report.row_bits_worst)
        luts = model.overall(window).luts
        trad_brams = plan.traditional_brams
        fits = XC7Z020.accommodates({"luts": luts, "bram18": plan.total_brams})
        rows.append(
            [
                f"{sigma:g}",
                window,
                trad_brams,
                plan.total_brams,
                luts,
                "yes" if fits else "NO",
            ]
        )
    print(
        render_table(
            [
                "sigma",
                "window (5-sigma)",
                "traditional BRAMs",
                "compressed BRAMs",
                "overall LUTs",
                "fits XC7Z020",
            ],
            rows,
            title="Gaussian support vs resources (T=4, 512x512)",
        )
    )

    # Verify output quality of the lossy path against the exact filter.
    window = 32
    cfg = ArchitectureConfig(
        image_width=resolution, image_height=resolution, window_size=window, threshold=4
    )
    kernel = GaussianKernel(sigma=window / 5.0, window_size=window)
    lossy = CompressedEngine(cfg, kernel).run(image)
    exact = TraditionalEngine(cfg, kernel).run(image)
    err = np.abs(lossy.outputs - exact.outputs)
    print(
        f"\nlossy (T=4) Gaussian vs exact: max |error| = {err.max():.3f} grey "
        f"levels, mean = {err.mean():.4f} — smoothing masks the compression loss."
    )


if __name__ == "__main__":
    main()
