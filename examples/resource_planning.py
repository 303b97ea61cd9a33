"""Size a deployment: from requirements to a validated BRAM plan.

The workflow a designer would follow with this library:

1. pick the geometry the application needs (resolution, window, quality);
2. provision the memory unit for the worst case over representative
   frames (Section V.E: "the memory unit will be configured to the
   worst-case scenario");
3. check the whole design fits the target device (BRAMs *and* LUTs);
4. validate the plan by streaming frames through the capacity-enforcing
   engine — including a hostile frame to see the failure mode.

Run:  python examples/resource_planning.py
"""

from __future__ import annotations

import numpy as np

from repro import ArchitectureConfig, CompressedEngine, analyze_image
from repro.analysis.tables import render_table
from repro.errors import CapacityError
from repro.hardware.device import DEVICES
from repro.hardware.mapping import plan_memory_mapping, traditional_bram_count
from repro.hardware.resources import ResourceModel
from repro.imaging import benchmark_dataset
from repro.kernels import GaussianKernel


def main() -> None:
    # 1. Requirements: 512x512 stream, 64x64 Gaussian, near-lossless.
    config = ArchitectureConfig(
        image_width=512, image_height=512, window_size=64, threshold=2
    )
    kernel = GaussianKernel(sigma=12.8, window_size=64)
    frames = [img.astype(np.int64) for img in benchmark_dataset(512, n_images=4)]

    # 2. Worst-case provisioning over representative content.
    worst_rows = np.maximum.reduce(
        [analyze_image(config, f).row_bits_worst for f in frames]
    )
    plan = plan_memory_mapping(config, worst_rows)
    print(plan.describe())
    print(
        f"BRAM saving vs traditional ({traditional_bram_count(config)} BRAMs): "
        f"{plan.bram_saving_percent:.1f}%\n"
    )

    # 3. Device fit across the catalog.
    model = ResourceModel()
    est = model.overall(config.window_size)
    rows = []
    for name, device in DEVICES.items():
        usage = {"luts": est.luts, "bram18": plan.total_brams}
        fits = device.accommodates(usage)
        util = device.utilisation(usage)
        rows.append(
            [name, f"{util['luts']:.0f}%", f"{util['bram18']:.0f}%",
             "yes" if fits else "NO"]
        )
    print(
        render_table(
            ["device", "LUT util", "BRAM util", "fits"],
            rows,
            title=f"Device fit for window 64 ({est.luts} LUTs, "
            f"{plan.total_brams} BRAMs)",
        )
    )

    # 4. Validate the plan against real traffic.
    engine = CompressedEngine(config, kernel, memory_plan=plan)
    for i, frame in enumerate(frames):
        engine.run(frame)
    print(f"\nall {len(frames)} provisioning frames fit the plan")

    hostile = np.random.default_rng(0).integers(0, 256, size=(512, 512))
    try:
        CompressedEngine(config, kernel, memory_plan=plan).run(hostile)
        print("hostile noise frame unexpectedly fit")
    except CapacityError as exc:
        print(f"hostile noise frame rejected as designed: {exc}")


if __name__ == "__main__":
    main()
