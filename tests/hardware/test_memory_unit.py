"""The Memory Unit's capacity rule (Section V.E, Fig 11).

The packed payload rows of the Memory Unit are pooled ``rows_per_group``
to a group, and each group holds at most its placed capacity.  The one
memory plan (``plan_placement``) sizes every group;
``CompressedEngine(memory_plan=...)`` enforces it, charging each column's
group bits at their stored (protection-expanded) size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ArchitectureConfig, CompressedEngine
from repro.core.stats import analyze_image
from repro.errors import CapacityError, ConfigError
from repro.hardware.planner import plan_placement
from repro.kernels import BoxFilterKernel

from helpers import exact_capacity_plan, group_peaks, random_image


def cfg(width=64, height=48, window=8):
    return ArchitectureConfig(
        image_width=width, image_height=height, window_size=window
    )


def run_paths(config, frame, plan):
    """Sequential and fast runs of one frame under ``plan``."""
    return [
        CompressedEngine(
            config, BoxFilterKernel(8), memory_plan=plan, fast_path=fast_path
        ).run(frame)
        for fast_path in (False, True)
    ]


class TestMemoryUnit:
    def test_capacity_enforced(self, rng):
        """2000-bit rows pool 8 to one RAMB18; noise rows overflow it."""
        config = cfg(width=320, height=16)
        plan = plan_placement(config, np.full(8, 2000))
        assert plan.rows_per_bram == 8
        assert plan.payload.group_capacity_list() == (18432,)
        noise = random_image(rng, 16, 320)
        with pytest.raises(CapacityError, match="BRAM group 0"):
            CompressedEngine(config, BoxFilterKernel(8), memory_plan=plan).run(
                noise
            )

    def test_fill_to_plan_capacity_passes(self, rng):
        """Every group filled to exactly its capacity fits, on both paths."""
        config = cfg()
        frame = random_image(rng, 48, 64)
        plan = exact_capacity_plan(config, group_peaks(config, frame, 2))
        seq_run, fast_run = run_paths(config, frame, plan)
        assert np.array_equal(seq_run.outputs, fast_run.outputs)
        assert seq_run.stats == fast_run.stats

    def test_group_folding(self, rng):
        """Rows fold by ``rows_per_group``; each group has its own limit."""
        config = cfg()
        frame = random_image(rng, 48, 64)
        peaks = group_peaks(config, frame, 2)
        assert peaks.shape == (4,)
        for g in range(4):
            tight = peaks.copy()
            tight[g] -= 1
            plan = exact_capacity_plan(config, tight)
            messages = []
            for fast_path in (False, True):
                engine = CompressedEngine(
                    config,
                    BoxFilterKernel(8),
                    memory_plan=plan,
                    fast_path=fast_path,
                )
                with pytest.raises(CapacityError) as err:
                    engine.run(frame)
                messages.append(str(err.value))
            assert messages[0] == messages[1]
            assert messages[0].startswith(
                f"BRAM group {g} holds {peaks[g]} stored bits"
            )

    def test_streaming_real_band_fits_plan(self, rng):
        """A SECDED plan from a frame's own rows holds its SECDED run."""
        config = cfg(height=64)
        frame = random_image(rng, 64, 64)
        worst = analyze_image(config, frame).row_bits_worst
        plan = plan_placement(config, worst, protection="secded")
        assert plan.protection == "secded"
        CompressedEngine(
            config, BoxFilterKernel(8), memory_plan=plan, protection="secded"
        ).run(frame)

    def test_wrong_row_count_rejected(self):
        """A plan sized for another window cannot be enforced."""
        plan = plan_placement(cfg(window=4), np.zeros(4))
        with pytest.raises(ConfigError, match="window"):
            CompressedEngine(cfg(), BoxFilterKernel(8), memory_plan=plan)
