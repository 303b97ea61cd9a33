"""Video stream processing against a design-time memory plan.

Section V.E's limitation in action: the memory unit is provisioned at
design time from calm frames, a scene change makes frames compress
worse, and a frame that no longer fits overflows the plan's BRAM groups.
The frames run on the streaming runtime with the plan in their
:class:`~repro.spec.EngineSpec`, so every worker's engine checks every
traversal against it:

1. ``overflow="error"`` — the hardware's behaviour: an overflowing frame
   is delivered as ``FrameFailure(reason="capacity")`` and counted as a
   drop; the stream carries on.
2. ``overflow="tighten"`` — the overflowing frame is re-run at the next
   thresholds of the ladder until it fits.
3. The adaptive controller (Section VII future work) picks each frame's
   threshold from the previous frame's buffered bits
   (``stats.buffer_bits_peak``), with ``tighten`` still catching a frame
   it has not adapted to yet.

Run:  python examples/video_stream.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    AdaptiveThresholdController,
    ArchitectureConfig,
    EngineSpec,
    StreamingProcessor,
    analyze_image,
    make_engine,
)
from repro.analysis.tables import render_table
from repro.hardware.planner import plan_placement
from repro.imaging import generate_scene
from repro.imaging.synthetic import SceneParams
from repro.kernels import BoxFilterKernel
from repro.runtime import FrameFailure


def make_stream(resolution: int) -> list[np.ndarray]:
    calm = SceneParams(texture_amplitude=4.0)
    busy = SceneParams(texture_amplitude=26.0, sensor_noise=4.0, n_structures=22)
    frames = [generate_scene(700 + i, resolution, calm) for i in range(3)]
    frames += [generate_scene(800 + i, resolution, busy) for i in range(3)]
    frames += [generate_scene(900 + i, resolution, calm) for i in range(3)]
    return frames


def status(outcome) -> list[object]:
    """One table row's outcome columns: threshold, bits, headroom, status."""
    if isinstance(outcome, FrameFailure):
        return ["-", "-", "-", f"dropped ({outcome.reason})"]
    stats = outcome.stats
    return [stats.threshold, stats.buffer_bits_peak, stats.plan_headroom_bits, "ok"]


def main() -> None:
    resolution, window = 512, 16
    config = ArchitectureConfig(
        image_width=resolution, image_height=resolution, window_size=window
    )
    frames = make_stream(resolution)

    # Provision the memory unit for the calm opening frames.
    worst_rows = np.maximum.reduce(
        [analyze_image(config, f).row_bits_worst for f in frames[:3]]
    )
    plan = plan_placement(config, worst_rows)
    print(f"memory unit provisioned as {plan.payload.describe()}\n")
    spec = EngineSpec(
        config=config, kernel=BoxFilterKernel(window), memory_plan=plan
    )
    columns = ["frame", "T", "buffered bits", "plan headroom", "status"]

    with StreamingProcessor(spec, workers=2) as proc:
        # 1. The unprotected hardware: overflowing frames are dropped.
        outcomes = list(proc.map(frames))
        drops = sum(isinstance(o, FrameFailure) for o in outcomes)
        first = next(o for o in outcomes if isinstance(o, FrameFailure))
        print(f"overflow=error: dropped {drops} of {len(frames)} frames")
        print(f"  frame {first.index}: {first.error}\n")

    # 2. Tighten within the frame: walk the ladder until it fits.
    with StreamingProcessor(spec.replace(overflow="tighten"), workers=2) as proc:
        rows = [[o.index, *status(o)] for o in proc.map(frames)]
    print(render_table(columns, rows, title="overflow=tighten"))

    # 3. The adaptive controller sets each frame's starting threshold,
    #    aiming at a calm frame's buffered bits at T=2.
    calm_t2 = make_engine(spec.replace(threshold=2)).run(frames[0])
    budget = int(calm_t2.stats.buffer_bits_peak * 1.05)
    controller = AdaptiveThresholdController(budget_bits=budget, downshift_margin=0.8)
    tighten = spec.replace(overflow="tighten")
    level_specs = {t: tighten.replace(threshold=t) for t in controller.levels}
    rows = []
    with StreamingProcessor(tighten, workers=1) as proc:
        for index, frame in enumerate(frames):
            asked = controller.threshold
            proc.submit(frame, spec=level_specs[asked])
            (outcome,) = proc.results()
            rows.append([index, asked, *status(outcome)])
            if not isinstance(outcome, FrameFailure):
                controller.observe(outcome.stats.buffer_bits_peak)
    print()
    print(
        render_table(
            ["frame", "T asked", *columns[1:]],
            rows,
            title=f"adaptive controller, budget {budget} buffered bits",
        )
    )
    print(
        "\nthe controller raises the threshold after the scene change; "
        "tighten covers the frame it has not adapted to yet."
    )


if __name__ == "__main__":
    main()
