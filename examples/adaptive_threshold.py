"""Adaptive runtime threshold — the paper's future-work extension.

Section VII: "our future work will investigate making this automatically
adjustable at runtime based on the previous frame compression ratio."
This example feeds a video-like sequence whose complexity spikes halfway
(a busy frame), and shows the controller walking the threshold up to keep
the compressed footprint inside the provisioned memory, then relaxing.
Each frame's footprint is the engine's own ``stats.buffer_bits_peak``,
measured by the run at the threshold the controller chose.

Run:  python examples/adaptive_threshold.py
"""

from __future__ import annotations

import numpy as np

from repro import AdaptiveThresholdController, ArchitectureConfig, EngineSpec
from repro.analysis.tables import render_table
from repro.core.threshold import THRESHOLD_LADDER
from repro.imaging import generate_scene
from repro.imaging.synthetic import SceneParams
from repro.kernels import BoxFilterKernel


def make_frames(resolution: int) -> list[tuple[str, np.ndarray]]:
    """A calm -> busy -> calm frame sequence."""
    calm = SceneParams(texture_amplitude=4.0)
    busy = SceneParams(texture_amplitude=28.0, n_structures=24, sensor_noise=4.0)
    frames = []
    for i in range(4):
        frames.append((f"calm{i}", generate_scene(100 + i, resolution, calm)))
    for i in range(4):
        frames.append((f"busy{i}", generate_scene(200 + i, resolution, busy)))
    for i in range(4):
        frames.append((f"calm{i + 4}", generate_scene(300 + i, resolution, calm)))
    return frames


def main() -> None:
    resolution, window = 256, 16
    config = ArchitectureConfig(
        image_width=resolution, image_height=resolution, window_size=window
    )
    frames = make_frames(resolution)
    spec = EngineSpec(config=config, kernel=BoxFilterKernel(window))
    engines = {t: spec.replace(threshold=t).build() for t in THRESHOLD_LADDER}

    # Provision the memory unit for a typical calm frame at T=2, with a
    # little headroom — the busy burst will overflow that budget.
    baseline = engines[2].run(frames[0][1]).stats.buffer_bits_peak
    budget = int(baseline * 1.05)
    controller = AdaptiveThresholdController(budget_bits=budget, downshift_margin=0.8)

    rows = []
    for name, frame in frames:
        t = controller.threshold
        bits = engines[t].run(frame).stats.buffer_bits_peak
        controller.observe(bits)
        rows.append(
            [name, t, bits, "ok" if bits <= budget else "OVERFLOW", controller.threshold]
        )
    print(
        render_table(
            ["frame", "T used", "buffered bits", "vs budget", "next T"],
            rows,
            title=f"Adaptive threshold, budget = {budget} bits",
        )
    )
    print(
        "\nThe fixed design-time threshold of the paper would either waste "
        "memory on calm frames or overflow on busy ones; the controller "
        "steps the threshold up one level per over-budget frame and relaxes "
        "once a frame's footprint falls below 80% of the budget."
    )


if __name__ == "__main__":
    main()
