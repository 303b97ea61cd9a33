"""Fault-tolerance properties of the supervised streaming runtime.

Two layers of coverage:

- **State machine** — :class:`FrameSupervisor` is a pure, clock-injected
  state machine, so retry scheduling, duplicate suppression, zombie-slot
  reclamation and the degradation ladder are pinned with exact timestamps
  and no processes at all.
- **Integration** — real worker pools with deterministic
  :class:`~repro.resilience.chaos.ChaosSpec` faults: a SIGKILLed worker
  mid-stream must not hang the stream; every frame is delivered (retried
  or inline-degraded) bit-identical to a sequential
  ``CompressedEngine.run()``, the ring returns to full capacity, and the
  recovery counters land in the metrics snapshot.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ArchitectureConfig, CompressedEngine
from repro.errors import ChaosError, ConfigError
from repro.kernels import BoxFilterKernel
from repro.observability import MetricsProbe
from repro.resilience import ChaosSpec
from repro.runtime import StreamingProcessor
from repro.runtime.supervision import (
    DegradeAction,
    FrameFailure,
    FrameSupervisor,
    QuarantineAction,
    ReclaimAction,
    RetryAction,
    SupervisionPolicy,
)
from repro.runtime.streaming import StreamResult
from repro.spec import EngineSpec

from helpers import random_image

RES = 24
WINDOW = 8


def make_config(threshold: int = 0) -> ArchitectureConfig:
    return ArchitectureConfig(
        image_width=RES, image_height=RES, window_size=WINDOW, threshold=threshold
    )

def make_frames(rng, n: int) -> list[np.ndarray]:
    return [random_image(rng, RES, RES).astype(np.int64) for _ in range(n)]


def fast_policy(**overrides) -> SupervisionPolicy:
    """Supervision tuned for test wall-clock, not production."""
    knobs = dict(
        backoff_base_seconds=0.01,
        backoff_max_seconds=0.05,
        poll_interval_seconds=0.02,
        reclaim_grace_seconds=0.3,
    )
    knobs.update(overrides)
    return SupervisionPolicy(**knobs)


# -- policy ----------------------------------------------------------------


class TestPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = SupervisionPolicy(
            backoff_base_seconds=0.1,
            backoff_factor=2.0,
            backoff_max_seconds=0.5,
        )
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)
        assert policy.backoff(4) == pytest.approx(0.5)  # capped
        assert policy.backoff(9) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(deadline_seconds=0.0),
            dict(max_attempts=0),
            dict(backoff_base_seconds=-1.0),
            dict(backoff_factor=0.5),
            dict(poll_interval_seconds=0.0),
            dict(reclaim_grace_seconds=-0.1),
            dict(max_pool_respawns=-1),
        ],
    )
    def test_invalid_knobs_rejected(self, bad):
        with pytest.raises(ConfigError):
            SupervisionPolicy(**bad)


# -- the pure state machine ------------------------------------------------


class TestSupervisorStateMachine:
    def test_clean_delivery_releases_the_slot(self):
        sup = FrameSupervisor(SupervisionPolicy())
        sup.track(0, 3, now=0.0)
        verdict = sup.on_result(0, 0, now=0.5)
        assert verdict.deliver
        assert verdict.release_slot == 3
        assert verdict.attempts == 1
        assert verdict.recovery_seconds is None
        assert sup.tracked_count == 0

    def test_worker_death_schedules_backed_off_retry(self):
        sup = FrameSupervisor(fast_policy(backoff_base_seconds=0.1, backoff_max_seconds=0.5))
        sup.track(0, 2, now=0.0)
        sup.on_worker_death(1, now=1.0)
        assert sup.stats.worker_deaths == 1
        assert sup.actions(now=1.05) == []  # backoff not elapsed
        assert sup.actions(now=1.2) == [RetryAction(index=0, slot=2, attempt=1)]
        assert sup.stats.retries == 1
        # Retry completes and delivers; the dead original never reports,
        # so the slot goes zombie until the grace period expires.
        verdict = sup.on_result(0, 1, now=1.3)
        assert verdict.deliver
        assert verdict.release_slot is None
        assert verdict.recovery_seconds == pytest.approx(0.3)
        assert sup.zombie_count == 1
        reclaims = sup.actions(now=1.3 + 0.3)
        assert reclaims == [ReclaimAction(slot=2)]
        assert sup.stats.slots_reclaimed == 1
        assert sup.zombie_count == 0

    def test_duplicate_completion_is_suppressed_and_settles_zombie(self):
        # Precautionary retry raced the original: the original delivers,
        # the retry's later completion must be dropped and must free the
        # zombie slot without waiting for the grace period.
        sup = FrameSupervisor(fast_policy(backoff_base_seconds=0.1, backoff_max_seconds=0.5))
        sup.track(0, 4, now=0.0)
        sup.on_worker_death(1, now=1.0)
        assert sup.actions(now=1.2) == [RetryAction(index=0, slot=4, attempt=1)]
        original = sup.on_result(0, 0, now=1.25)
        assert original.deliver and original.release_slot is None
        stale = sup.on_result(0, 1, now=1.4)
        assert not stale.deliver
        assert stale.release_slot == 4
        assert sup.stats.slots_reclaimed == 1

    def test_deadline_expiry_marks_lost_then_retries(self):
        sup = FrameSupervisor(
            fast_policy(deadline_seconds=1.0, backoff_base_seconds=0.1, backoff_max_seconds=0.5)
        )
        sup.track(0, 1, now=0.0)
        assert sup.actions(now=0.9) == []
        assert sup.actions(now=1.0) == []  # lost; retry backing off
        assert sup.actions(now=1.2) == [RetryAction(index=0, slot=1, attempt=1)]

    def test_error_attempts_exhaust_into_degrade(self):
        sup = FrameSupervisor(fast_policy(max_attempts=2))
        sup.track(0, 5, now=0.0)
        assert sup.on_error(0, 0, "ChaosError('boom')", now=0.1) is None
        acts = sup.actions(now=0.2)
        assert acts == [RetryAction(index=0, slot=5, attempt=1)]
        # Second failure exhausts the attempt budget -> inline degrade.
        sup.on_error(0, 1, "ChaosError('boom')", now=0.3)
        acts = sup.actions(now=0.3)
        assert acts == [DegradeAction(index=0, slot=5, reason="poison")]
        # The sweep never re-emits a sealed frame's escalation.
        assert sup.actions(now=5.0) == []
        sup.count_degraded()
        verdict = sup.on_result(0, -1, now=0.4)  # inline completion
        assert verdict.deliver
        assert verdict.release_slot == 5  # no pool attempt outstanding
        assert sup.stats.degraded == 1

    def test_exhaustion_quarantines_when_inline_disabled(self):
        sup = FrameSupervisor(
            fast_policy(max_attempts=1, degrade_inline=False)
        )
        sup.track(7, 2, now=0.0)
        sup.on_error(7, 0, "ChaosError('poison')", now=0.1)
        acts = sup.actions(now=0.1)
        assert acts == [
            QuarantineAction(
                index=7,
                slot=2,
                reason="poison",
                error="ChaosError('poison')",
                attempts=1,
            )
        ]
        assert sup.finish_failed(7, now=0.2) == 2  # slot comes back
        assert sup.stats.quarantined == 1
        assert sup.tracked_count == 0

    def test_dropped_result_settles_accounting_only(self):
        sup = FrameSupervisor(fast_policy(deadline_seconds=0.5))
        sup.track(0, 0, now=0.0)
        assert sup.on_dropped(0) is None
        assert sup.stats.results_dropped == 1
        # Only the deadline sweep recovers a drop.
        assert sup.actions(now=0.1) == []
        assert sup.actions(now=0.6) == []  # lost; retry backing off
        acts = sup.actions(now=0.6 + 0.011)
        assert acts == [RetryAction(index=0, slot=0, attempt=1)]

    def test_pool_restart_reschedules_everything(self):
        sup = FrameSupervisor(fast_policy())
        sup.track(0, 0, now=0.0)
        sup.track(1, 1, now=0.0)
        sup.on_pool_restart(now=1.0)
        assert sup.stats.pool_respawns == 1
        acts = sup.actions(now=1.1)
        assert {type(a) for a in acts} == {RetryAction}
        assert {a.index for a in acts} == {0, 1}

    def test_pool_unusable_escalates_everything(self):
        sup = FrameSupervisor(fast_policy())
        sup.track(0, 0, now=0.0)
        sup.on_pool_unusable(now=1.0)
        assert not sup.pool_usable
        acts = sup.actions(now=1.0)
        assert acts == [
            DegradeAction(index=0, slot=0, reason="pool-unrecoverable")
        ]

    def test_untrack_forgets_a_failed_submission(self):
        sup = FrameSupervisor(fast_policy())
        sup.track(0, 0, now=0.0)
        sup.untrack(0)
        assert sup.tracked_count == 0
        assert sup.actions(now=10.0) == []


# -- integration: real pools, injected faults ------------------------------


def expected_outputs(config, kernel, frames):
    engine = CompressedEngine(config, kernel)
    return [engine.run(f).outputs for f in frames]


class TestKillRecovery:
    def test_sigkilled_worker_mid_stream_recovers_bit_identical(self, rng):
        # The acceptance scenario: >= 16 frames, one worker SIGKILLed
        # mid-stream.  The stream must not hang; every frame arrives
        # bit-identical and the ring returns to full capacity.
        config = make_config()
        kernel = BoxFilterKernel(WINDOW)
        frames = make_frames(rng, 16)
        expected = expected_outputs(config, kernel, frames)
        spec = EngineSpec(
            config=config, kernel=kernel, chaos=ChaosSpec(kill_on=(3,))
        )
        probe = MetricsProbe()
        with StreamingProcessor(
            spec, workers=2, probe=probe, supervision=fast_policy()
        ) as proc:
            results = list(proc.map(frames, timeout=30.0))
            assert [r.index for r in results] == list(range(16))
            for r in results:
                assert isinstance(r, StreamResult)
                assert np.array_equal(r.outputs, expected[r.index])
            stats = proc.supervisor_stats
            assert stats.worker_deaths >= 1
            assert stats.retries + stats.degraded >= 1
            # Ring capacity is restored once zombie slots drain.
            assert proc.drain(timeout=10.0) == proc.slots
            snapshot = proc.metrics_snapshot()
        assert snapshot is not None
        counters = {c["name"]: c["value"] for c in snapshot["counters"]}
        assert counters.get("repro_worker_deaths_total", 0) >= 1
        retried = counters.get("repro_frames_retried_total", 0)
        degraded = counters.get("repro_frames_degraded_total", 0)
        assert retried + degraded >= 1

    def test_killed_frame_reports_extra_attempts(self, rng):
        config = make_config()
        kernel = BoxFilterKernel(WINDOW)
        frames = make_frames(rng, 6)
        spec = EngineSpec(
            config=config, kernel=kernel, chaos=ChaosSpec(kill_on=(1,))
        )
        with StreamingProcessor(
            spec, workers=2, supervision=fast_policy()
        ) as proc:
            results = {r.index: r for r in proc.map(frames, timeout=30.0)}
        killed = results[1]
        assert killed.attempts >= 2 or killed.degraded


class TestRaiseRecovery:
    def test_worker_exception_is_retried_transparently(self, rng):
        config = make_config()
        kernel = BoxFilterKernel(WINDOW)
        frames = make_frames(rng, 6)
        expected = expected_outputs(config, kernel, frames)
        spec = EngineSpec(
            config=config, kernel=kernel, chaos=ChaosSpec(raise_on=(0, 4))
        )
        with StreamingProcessor(
            spec, workers=2, supervision=fast_policy()
        ) as proc:
            results = list(proc.map(frames, timeout=30.0))
            stats = proc.supervisor_stats
        assert [r.index for r in results] == list(range(6))
        for r in results:
            assert np.array_equal(r.outputs, expected[r.index])
        assert stats.retries >= 2


class TestPoisonFrames:
    def test_poison_frame_degrades_inline_bit_identical(self, rng):
        config = make_config()
        kernel = BoxFilterKernel(WINDOW)
        frames = make_frames(rng, 5)
        expected = expected_outputs(config, kernel, frames)
        spec = EngineSpec(
            config=config, kernel=kernel, chaos=ChaosSpec(raise_always_on=(2,))
        )
        with StreamingProcessor(
            spec, workers=2, supervision=fast_policy(max_attempts=2)
        ) as proc:
            results = list(proc.map(frames, timeout=30.0))
            stats = proc.supervisor_stats
        assert [r.index for r in results] == list(range(5))
        for r in results:
            assert np.array_equal(r.outputs, expected[r.index])
        poisoned = results[2]
        assert poisoned.degraded
        assert poisoned.worker_pid != results[0].worker_pid or poisoned.degraded
        assert stats.degraded == 1

    def test_poison_frame_quarantines_as_frame_failure(self, rng):
        config = make_config()
        kernel = BoxFilterKernel(WINDOW)
        frames = make_frames(rng, 5)
        expected = expected_outputs(config, kernel, frames)
        spec = EngineSpec(
            config=config, kernel=kernel, chaos=ChaosSpec(raise_always_on=(2,))
        )
        with StreamingProcessor(
            spec,
            workers=2,
            supervision=fast_policy(max_attempts=2, degrade_inline=False),
        ) as proc:
            outcomes = list(proc.map(frames, timeout=30.0))
            stats = proc.supervisor_stats
        assert [o.index for o in outcomes] == list(range(5))
        failure = outcomes[2]
        assert isinstance(failure, FrameFailure)
        assert failure.reason == "poison"
        assert failure.attempts == 2
        assert "ChaosError" in failure.error
        for o in outcomes:
            if isinstance(o, StreamResult):
                assert np.array_equal(o.outputs, expected[o.index])
        assert stats.quarantined == 1


class _FailingKernel:
    """Raises on any nonzero window, in the workers and inline alike (the
    ring's output-dtype probe on one zero window still passes)."""

    name = "failing"
    window_size = WINDOW

    def apply(self, windows: np.ndarray) -> np.ndarray:
        if windows.any():
            raise ValueError("kernel failure")
        return windows.sum(axis=(-2, -1))


class TestInlineFailure:
    def test_failing_inline_frame_is_quarantined_and_frees_its_slot(
        self, rng
    ):
        # Out of pool attempts, the frame degrades inline, and the inline
        # engine raises too: the stream delivers a FrameFailure instead
        # of raising out of the supervision sweep.
        spec = EngineSpec(config=make_config(), kernel=_FailingKernel())
        with StreamingProcessor(
            spec, workers=1, slots=2, supervision=fast_policy(max_attempts=2)
        ) as proc:
            proc.submit(make_frames(rng, 1)[0], timeout=30.0)
            outcomes = list(proc.as_completed(timeout=30.0))
            assert proc.in_flight == 0
            assert proc.drain(timeout=10.0) == proc.slots
            stats = proc.supervisor_stats
        assert len(outcomes) == 1
        failure = outcomes[0]
        assert isinstance(failure, FrameFailure)
        assert failure.reason == "poison"
        assert failure.attempts == 2
        assert "kernel failure" in failure.error
        assert stats.quarantined == 1
        assert stats.degraded == 0


class TestDropRecovery:
    def test_dropped_result_recovers_via_deadline_retry(self, rng):
        config = make_config()
        kernel = BoxFilterKernel(WINDOW)
        frames = make_frames(rng, 4)
        expected = expected_outputs(config, kernel, frames)
        spec = EngineSpec(
            config=config, kernel=kernel, chaos=ChaosSpec(drop_on=(1,))
        )
        with StreamingProcessor(
            spec,
            workers=2,
            supervision=fast_policy(deadline_seconds=0.4),
        ) as proc:
            results = list(proc.map(frames, timeout=30.0))
            stats = proc.supervisor_stats
        assert [r.index for r in results] == list(range(4))
        for r in results:
            assert np.array_equal(r.outputs, expected[r.index])
        assert stats.results_dropped >= 1
        assert stats.retries >= 1


class TestTimeouts:
    def test_supervised_results_timeout_is_honoured(self, rng):
        # An undeliverable wait (nothing submitted completes within the
        # window) must raise TimeoutError from the supervised loop too.
        spec = EngineSpec(
            config=make_config(),
            kernel=BoxFilterKernel(WINDOW),
            chaos=ChaosSpec(delay_on=(0,), delay_seconds=1.5),
        )
        with StreamingProcessor(
            spec, workers=1, supervision=fast_policy()
        ) as proc:
            proc.submit(make_frames(rng, 1)[0], timeout=30.0)
            with pytest.raises(TimeoutError):
                next(proc.results(timeout=0.2))
            # The frame still delivers once we wait long enough.
            results = list(proc.results(timeout=30.0))
        assert [r.index for r in results] == [0]


class TestInlineFallback:
    def test_broken_pool_degrades_to_inline_execution(self, rng, monkeypatch):
        config = make_config()
        kernel = BoxFilterKernel(WINDOW)
        frames = make_frames(rng, 4)
        expected = expected_outputs(config, kernel, frames)
        with StreamingProcessor(
            EngineSpec(config=config, kernel=kernel),
            workers=2,
            supervision=fast_policy(max_pool_respawns=0),
        ) as proc:
            # Every pool submission fails structurally from the start.
            def broken(*args, **kwargs):
                raise RuntimeError("pool is gone")

            monkeypatch.setattr(proc._pool, "apply_async", broken)
            results = list(proc.map(frames, timeout=30.0))
            stats = proc.supervisor_stats
        assert [r.index for r in results] == list(range(4))
        for r in results:
            assert np.array_equal(r.outputs, expected[r.index])
            assert r.degraded
        assert stats.degraded == 4
        assert not stats.pool_respawns

    def test_pool_respawn_budget_is_spent_before_inline(self, rng, monkeypatch):
        config = make_config()
        kernel = BoxFilterKernel(WINDOW)
        frames = make_frames(rng, 2)
        expected = expected_outputs(config, kernel, frames)
        with StreamingProcessor(
            EngineSpec(config=config, kernel=kernel),
            workers=1,
            supervision=fast_policy(max_pool_respawns=1),
        ) as proc:
            calls = {"n": 0}
            real_restart = proc._pool.restart

            def broken(*args, **kwargs):
                raise RuntimeError("pool is gone")

            def counting_restart():
                calls["n"] += 1
                real_restart()

            monkeypatch.setattr(proc._pool, "apply_async", broken)
            monkeypatch.setattr(proc._pool, "restart", counting_restart)
            results = list(proc.map(frames, timeout=30.0))
            stats = proc.supervisor_stats
        assert calls["n"] == 1
        assert stats.pool_respawns == 1
        for r in results:
            assert r.degraded
            assert np.array_equal(r.outputs, expected[r.index])


class TestRingIntegrity:
    def test_no_dev_shm_leak_after_kill_and_close(self, rng, tmp_path):
        import pathlib

        config = make_config()
        kernel = BoxFilterKernel(WINDOW)
        frames = make_frames(rng, 6)
        spec = EngineSpec(
            config=config, kernel=kernel, chaos=ChaosSpec(kill_on=(0,))
        )
        proc = StreamingProcessor(
            spec, workers=2, supervision=fast_policy()
        )
        shm_name = proc._ring.spec.name.lstrip("/")
        list(proc.map(frames, timeout=30.0))
        proc.close()
        leaked = list(pathlib.Path("/dev/shm").glob(f"*{shm_name}*"))
        assert leaked == []

    def test_chaos_raise_error_is_chaoserror(self):
        # The injected fault class is catchable and well-typed.
        from repro.resilience import apply_worker_chaos

        with pytest.raises(ChaosError):
            apply_worker_chaos(ChaosSpec(raise_on=(0,)), 0, 0)
