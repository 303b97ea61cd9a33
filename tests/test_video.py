"""A video stream against a design-time memory plan (Sections V.E, VII).

The engine's plan check is the one overflow rule.  A stream of frames
runs it in its workers through :class:`~repro.spec.EngineSpec`: under
``overflow="error"`` an overflowing frame is delivered as a
``FrameFailure(reason="capacity")`` (a dropped frame) and the stream
carries on; under ``overflow="tighten"`` the frame is re-run up the
threshold ladder.  An in-process caller catches the engine's
:class:`~repro.errors.CapacityError`.  Soft errors on the protected
memory path are read from the engine's ``fault_summary``; the adaptive
controller picks each frame's threshold from the previous frame's stats.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AdaptiveThresholdController,
    ArchitectureConfig,
    CompressedEngine,
    EngineSpec,
    StreamingProcessor,
    make_engine,
)
from repro.core.threshold import THRESHOLD_LADDER
from repro.errors import BitstreamError, CapacityError, ConfigError
from repro.imaging import generate_scene
from repro.imaging.synthetic import SceneParams
from repro.kernels import BoxFilterKernel
from repro.resilience import FaultInjector
from repro.runtime import FrameFailure, StreamResult

from helpers import enforced_peak, exact_capacity_plan, random_image

RES, WINDOW = 64, 8


def make_config(threshold: int = 0) -> ArchitectureConfig:
    return ArchitectureConfig(
        image_width=RES, image_height=RES, window_size=WINDOW, threshold=threshold
    )


def calm_frame(i: int) -> np.ndarray:
    return generate_scene(400 + i, RES, SceneParams(texture_amplitude=4.0))


def busy_frame(i: int) -> np.ndarray:
    return generate_scene(
        500 + i, RES, SceneParams(texture_amplitude=30.0, sensor_noise=5.0)
    )


@pytest.fixture(scope="module")
def calm_capacity() -> int:
    """A plan group sized for the calm frames at T=0."""
    return max(enforced_peak(make_config(), calm_frame(i)) for i in range(2))


def planned_spec(capacity: int, **changes) -> EngineSpec:
    config = make_config()
    return EngineSpec(
        config=config,
        kernel=BoxFilterKernel(WINDOW),
        memory_plan=exact_capacity_plan(config, [capacity, capacity]),
        **changes,
    )


def stream(spec: EngineSpec, frames) -> list[StreamResult | FrameFailure]:
    with StreamingProcessor(spec, workers=1) as proc:
        outcomes = list(proc.map(frames))
        assert proc.supervisor_stats.retries == 0
        assert proc.supervisor_stats.degraded == 0
        assert proc.drain(timeout=5.0) == proc.slots
    return outcomes


class TestPolicies:
    def test_raise_policy(self, calm_capacity):
        """In process, the default engine raises the plan overflow."""
        with pytest.raises(CapacityError, match="exceeds the design-time plan"):
            make_engine(planned_spec(calm_capacity)).run(busy_frame(0))

    def test_drop_policy_records_drop(self, calm_capacity):
        """On a stream the overflowing frame is a delivered failure (a
        drop) and the frames around it are served."""
        outcomes = stream(
            planned_spec(calm_capacity), [calm_frame(0), busy_frame(0), calm_frame(1)]
        )
        assert isinstance(outcomes[0], StreamResult)
        assert isinstance(outcomes[2], StreamResult)
        dropped = outcomes[1]
        assert isinstance(dropped, FrameFailure)
        assert (dropped.index, dropped.reason, dropped.attempts) == (1, "capacity", 1)
        drop_rate = sum(isinstance(o, FrameFailure) for o in outcomes) / 3
        assert drop_rate == pytest.approx(1 / 3)

    def test_tighten_policy_retries(self, calm_capacity):
        """Under ``tighten`` the busy frame is served at a higher
        threshold, within its one worker run."""
        frame = busy_frame(0)
        capacity = max(calm_capacity, enforced_peak(make_config(8), frame))
        (served,) = stream(planned_spec(capacity, overflow="tighten"), [frame])
        assert isinstance(served, StreamResult)
        assert served.attempts == 1
        assert served.stats.threshold > 0
        assert served.stats.plan_headroom_bits >= 0

    def test_tighten_exhaustion_fails_the_frame(self):
        """No ladder level fits an impossible plan: the frame fails with
        the last level's overflow."""
        frame = busy_frame(1)
        spec = planned_spec(100, overflow="tighten")
        (failed,) = stream(spec, [frame])
        assert isinstance(failed, FrameFailure)
        assert failed.reason == "capacity"
        top = spec.replace(threshold=THRESHOLD_LADDER[-1], overflow="error")
        with pytest.raises(CapacityError) as err:
            make_engine(top).run(frame)
        assert failed.error == str(err.value)

    def test_all_three_policies_on_one_overflowing_frame(self, calm_capacity):
        """One frame, three outcomes: raised in process, dropped from a
        stream, served tighter under ``tighten``."""
        frame = busy_frame(0)
        with pytest.raises(CapacityError) as err:
            make_engine(planned_spec(calm_capacity)).run(frame)

        (dropped,) = stream(planned_spec(calm_capacity), [frame])
        assert isinstance(dropped, FrameFailure)
        assert dropped.error == str(err.value)

        capacity = max(calm_capacity, enforced_peak(make_config(8), frame))
        (served,) = stream(planned_spec(capacity, overflow="tighten"), [frame])
        assert isinstance(served, StreamResult)
        expected = make_engine(
            planned_spec(capacity).replace(threshold=served.stats.threshold)
        ).run(frame)
        assert np.array_equal(served.outputs, expected.outputs)
        assert served.stats == expected.stats

    def test_invalid_policy(self):
        with pytest.raises(ConfigError, match="overflow must be one of"):
            planned_spec(1000, overflow="panic")

    def test_invalid_budget(self):
        """A plan provisioned for another window is refused up front."""
        other = ArchitectureConfig(image_width=RES, image_height=RES, window_size=16)
        with pytest.raises(ConfigError, match="memory plan is for window 16"):
            EngineSpec(
                config=make_config(),
                kernel=BoxFilterKernel(WINDOW),
                memory_plan=exact_capacity_plan(other, [1000]),
            )


class TestFaultPath:
    """Soft errors on the protected memory path, per engine run."""

    def run(self, **engine_kw):
        engine = CompressedEngine(
            make_config(2), BoxFilterKernel(WINDOW), **engine_kw
        )
        return engine, engine.run(calm_frame(0))

    def test_records_stay_zero_without_injection(self):
        engine, _ = self.run()
        assert engine.fault_summary is None
        engine, _ = self.run(protection="secded")
        assert engine.fault_summary.flips_injected == 0
        assert engine.fault_summary.corrupted_pixels == 0

    def test_secded_absorbs_single_flips(self):
        engine, _ = self.run(
            protection="secded", injector=FaultInjector(flips_per_word=1, seed=3)
        )
        summary = engine.fault_summary
        assert summary.flips_injected > 0
        assert summary.corrected_words == summary.flips_injected
        assert summary.corrupted_pixels == 0

    def test_unprotected_flips_corrupt_kept_frame(self):
        engine, run = self.run(injector=FaultInjector(flips_per_word=1, seed=3))
        assert engine.fault_summary.corrupted_pixels > 0
        assert run.faults is engine.fault_summary

    def test_detected_corruption_is_reported(self):
        """Double flips defeat SECDED's correction but not its detection:
        the run reports the words a caller would invalidate the frame for."""
        engine, _ = self.run(
            protection="secded", injector=FaultInjector(flips_per_word=2, seed=3)
        )
        assert engine.fault_summary.uncorrectable_words > 0

    def test_raise_policy_propagates_uncorrectable(self):
        with pytest.raises(BitstreamError):
            self.run(
                protection="secded",
                injector=FaultInjector(flips_per_word=2, seed=3),
                fault_policy="raise",
            )

    def test_degrade_policy_counts_resyncs_and_keeps_frame(self):
        engine, run = self.run(
            protection="secded",
            injector=FaultInjector(flips_per_word=2, seed=3),
            fault_policy="degrade",
        )
        assert engine.fault_summary.resync_events > 0
        assert run.outputs.shape == (RES - WINDOW + 1, RES - WINDOW + 1)

    def test_protection_consumes_budget_headroom(self):
        """SECDED's code words are stored, so under the same plan they
        lower the run's headroom."""
        config = make_config(2)
        plan = exact_capacity_plan(config, [1 << 20])
        headroom = {}
        for protection in (None, "secded"):
            engine = CompressedEngine(
                config,
                BoxFilterKernel(WINDOW),
                memory_plan=plan,
                protection=protection,
            )
            headroom[protection] = engine.run(calm_frame(0)).stats.plan_headroom_bits
        assert headroom["secded"] < headroom[None]


def controlled_stream(
    controller: AdaptiveThresholdController, frames
) -> list[StreamResult | FrameFailure]:
    """Stream ``frames`` one at a time, each at the controller's threshold,
    feeding it every frame's stored peak."""
    spec = EngineSpec(config=make_config(), kernel=BoxFilterKernel(WINDOW))
    level_specs = {t: spec.replace(threshold=t) for t in controller.levels}
    outcomes = []
    with StreamingProcessor(spec, workers=1) as proc:
        for frame in frames:
            proc.submit(frame, spec=level_specs[controller.threshold])
            (outcome,) = proc.results()
            outcomes.append(outcome)
            controller.observe(outcome.stats.buffer_bits_peak)
    return outcomes


class TestWithController:
    def test_controller_adapts_across_frames(self):
        budget = enforced_peak(make_config(2), calm_frame(0), groups=1)
        controller = AdaptiveThresholdController(budget_bits=budget)
        outcomes = controlled_stream(controller, [busy_frame(i) for i in range(4)])
        thresholds = [o.stats.threshold for o in outcomes]
        # The controller walks the threshold up across the burst.
        assert thresholds[-1] > thresholds[0] == 0
        assert [t for t, _ in controller.history] == thresholds

    def test_calm_stream_stays_lossless(self):
        peak = make_engine(
            EngineSpec(config=make_config(), kernel=BoxFilterKernel(WINDOW))
        ).run(calm_frame(0)).stats.buffer_bits_peak
        controller = AdaptiveThresholdController(budget_bits=int(peak * 1.3))
        outcomes = controlled_stream(controller, [calm_frame(i) for i in range(3)])
        assert all(o.stats.threshold == 0 for o in outcomes)

    def test_random_noise_stream_saturates(self, rng):
        budget = enforced_peak(make_config(2), calm_frame(0), groups=1)
        controller = AdaptiveThresholdController(budget_bits=budget)
        frames = [random_image(rng, RES, RES) for _ in controller.levels]
        controlled_stream(controller, frames)
        # Incompressible noise pushes the ladder to its top (the paper's
        # "random images" failure case).
        assert controller.saturated
