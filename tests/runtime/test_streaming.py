"""Streaming correctness properties: bit-identical, ordered, bounded.

The acceptance bar of the streaming runtime is behavioural, not perf:
every streamed output must equal a sequential ``CompressedEngine.run()``
on the same frame bit for bit, in both consumption orders, across the
lossless/lossy x recirculate matrix, under shuffled completion order and
under ring backpressure.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import ArchitectureConfig, CompressedEngine
from repro.errors import CapacityError, ConfigError, StateError
from repro.kernels import BoxFilterKernel
from repro.resilience import ChaosSpec
from repro.runtime import StreamingProcessor, stream_frames
from repro.runtime.worker import (
    FrameTask,
    cached_engine_count,
    initialize_worker,
    process_slot,
)
from repro.spec import EngineSpec
from repro.runtime.ring import FrameRing

from helpers import random_image

RES = 24
WINDOW = 8


def make_config(threshold: int = 0) -> ArchitectureConfig:
    return ArchitectureConfig(
        image_width=RES, image_height=RES, window_size=WINDOW, threshold=threshold
    )


def make_spec(threshold: int = 0, **overrides) -> EngineSpec:
    return EngineSpec(
        config=make_config(threshold), kernel=BoxFilterKernel(WINDOW), **overrides
    )


def slow_spec(delay_on: tuple[int, ...], seconds: float) -> EngineSpec:
    """Frames in ``delay_on`` sleep ``seconds`` in their worker first."""
    return make_spec(chaos=ChaosSpec(delay_on=delay_on, delay_seconds=seconds))


def make_frames(rng, n: int) -> list[np.ndarray]:
    return [random_image(rng, RES, RES).astype(np.int64) for _ in range(n)]


class TestBitIdentical:
    @pytest.mark.parametrize("threshold", [0, 6])
    @pytest.mark.parametrize("recirculate", [True, False])
    def test_ordered_matches_sequential(self, rng, threshold, recirculate):
        config = make_config(threshold)
        kernel = BoxFilterKernel(WINDOW)
        frames = make_frames(rng, 4)
        engine = CompressedEngine(config, kernel, recirculate=recirculate)
        expected = [engine.run(f) for f in frames]
        results = stream_frames(
            make_spec(threshold, recirculate=recirculate), frames, workers=2
        )
        assert [r.index for r in results] == [0, 1, 2, 3]
        for res, exp in zip(results, expected):
            assert np.array_equal(res.outputs, exp.outputs)
            assert res.stats == exp.stats

    def test_as_completed_same_set_of_results(self, rng):
        config = make_config()
        kernel = BoxFilterKernel(WINDOW)
        frames = make_frames(rng, 4)
        expected = {
            i: CompressedEngine(config, kernel).run(f).outputs
            for i, f in enumerate(frames)
        }
        with StreamingProcessor(make_spec(), workers=2) as proc:
            for frame in frames:
                proc.submit(frame, timeout=60)
            seen = {r.index: r.outputs for r in proc.as_completed()}
        assert seen.keys() == expected.keys()
        for i, outputs in seen.items():
            assert np.array_equal(outputs, expected[i])


class TestOrdering:
    def test_slow_first_frame_shuffles_completion_not_results(self, rng):
        # Frame 0 sleeps in its worker, so frames 1 and 2 complete first;
        # results() must still yield 0, 1, 2.
        frames = make_frames(rng, 3)
        with StreamingProcessor(
            slow_spec((0,), 0.6), workers=2, slots=3
        ) as proc:
            for frame in frames:
                proc.submit(frame, timeout=60)
            ordered = [r.index for r in proc.results()]
        assert ordered == [0, 1, 2]

    def test_slow_first_frame_completes_last_in_as_completed(self, rng):
        frames = make_frames(rng, 3)
        with StreamingProcessor(
            slow_spec((0,), 0.6), workers=2, slots=3
        ) as proc:
            for frame in frames:
                proc.submit(frame, timeout=60)
            completion = [r.index for r in proc.as_completed()]
        assert completion[-1] == 0
        assert sorted(completion) == [0, 1, 2]

    @pytest.mark.timeout(20)
    def test_results_after_as_completed_took_a_later_frame(self, rng):
        # as_completed() hands out frame 1 while frame 0 still sleeps;
        # results() must then deliver frame 0 and stop instead of waiting
        # for a turn counter that frame 1 already used up.
        frames = make_frames(rng, 2)
        with StreamingProcessor(
            slow_spec((0,), 0.6), workers=2, slots=2
        ) as proc:
            for frame in frames:
                proc.submit(frame, timeout=30)
            assert next(proc.as_completed(timeout=30)).index == 1
            rest = [r.index for r in proc.results(timeout=30)]
            assert rest == [0]
            assert proc.in_flight == 0

    @pytest.mark.timeout(20)
    def test_map_on_a_busy_processor_raises_instead_of_hanging(self, rng):
        frames = make_frames(rng, 2)
        with StreamingProcessor(make_spec(), workers=1, slots=2) as proc:
            proc.submit(frames[0], timeout=30)
            with pytest.raises(StateError, match="idle"):
                list(proc.map([frames[1]], timeout=30))
            # The earlier frame is left for its own consumer.
            assert [r.index for r in proc.results(timeout=30)] == [0]
            assert [r.index for r in proc.map([frames[1]], timeout=30)] == [1]


class TestBackpressure:
    def test_submit_times_out_when_ring_is_full(self, rng):
        frames = make_frames(rng, 3)
        with StreamingProcessor(
            slow_spec((0, 1, 2), 0.6), workers=1, slots=2
        ) as proc:
            proc.submit(frames[0], timeout=60)
            proc.submit(frames[1], timeout=60)
            with pytest.raises(CapacityError):
                proc.submit(frames[2], timeout=0.05)
            # Draining one result frees a slot; the retry succeeds.
            next(proc.as_completed())
            proc.submit(frames[2], timeout=60)
            list(proc.as_completed())

    def test_map_never_exceeds_the_slot_budget(self, rng):
        frames = make_frames(rng, 8)
        with StreamingProcessor(make_spec(), workers=2, slots=3) as proc:
            results = list(proc.map(frames))
            assert [r.index for r in results] == list(range(8))
            assert proc.in_flight_peak <= 3


class TestValidation:
    def test_wrong_frame_shape_rejected(self, rng):
        with StreamingProcessor(make_spec(), workers=1) as proc:
            with pytest.raises(ConfigError, match="shape"):
                proc.submit(np.zeros((RES, RES + 2), dtype=np.int64))

    def test_float_frames_rejected(self, rng):
        with StreamingProcessor(make_spec(), workers=1) as proc:
            with pytest.raises(ConfigError, match="integer"):
                proc.submit(np.zeros((RES, RES), dtype=np.float64))

    def test_submit_after_close_rejected(self, rng):
        proc = StreamingProcessor(make_spec(), workers=1)
        proc.close()
        with pytest.raises(StateError):
            proc.submit(np.zeros((RES, RES), dtype=np.int64))

    def test_invalid_worker_and_slot_counts(self):
        with pytest.raises(ConfigError):
            StreamingProcessor(make_spec(), workers=0)
        with pytest.raises(ConfigError):
            StreamingProcessor(make_spec(), workers=1, slots=0)


class TestWorkerCache:
    def test_engine_built_once_per_spec(self, rng):
        # Exercise the worker module in-process: after initialisation the
        # first frame builds the engine, later frames reuse it.
        from repro.runtime import worker as worker_mod

        config = make_config()
        spec = EngineSpec(config=config, kernel=BoxFilterKernel(WINDOW))
        out = RES - WINDOW + 1
        with FrameRing(
            slots=2,
            frame_shape=(RES, RES),
            frame_dtype=np.int64,
            out_shape=(out, out),
            out_dtype=np.float64,
        ) as ring:
            worker_mod._ENGINES.clear()
            initialize_worker(ring.spec, spec.blob())
            try:
                frame = random_image(rng, RES, RES).astype(np.int64)
                before = cached_engine_count()
                for slot in (0, 1):
                    ring.input_view(slot)[...] = frame
                    result = process_slot(FrameTask(index=slot, slot=slot))
                    assert result.slot == slot
                assert cached_engine_count() == before + 1
                expected = CompressedEngine(config, BoxFilterKernel(WINDOW)).run(frame)
                assert np.array_equal(ring.output_view(1), expected.outputs)
            finally:
                worker_mod._RING.close()
                worker_mod._RING = None
                worker_mod._SPEC_BLOB = None
                worker_mod._ENGINES.clear()

    def test_eviction_keeps_results_bit_identical(self, rng, monkeypatch):
        """With a 1-engine cache, cycling three tenant specs evicts and
        rebuilds per frame — and every rebuilt engine's output still
        matches the sequential run exactly (eviction only re-pays
        construction cost, never changes results)."""
        from repro.runtime import worker as worker_mod

        monkeypatch.setenv("REPRO_WORKER_ENGINE_CACHE", "1")
        base = EngineSpec(config=make_config(), kernel=BoxFilterKernel(WINDOW))
        tenants = [
            base,
            base.replace(threshold=6),
            base.replace(engine="traditional"),
        ]
        out = RES - WINDOW + 1
        frame = random_image(rng, RES, RES).astype(np.int64)
        expected = [spec.build().run(frame).outputs for spec in tenants]
        with FrameRing(
            slots=1,
            frame_shape=(RES, RES),
            frame_dtype=np.int64,
            out_shape=(out, out),
            out_dtype=np.float64,
        ) as ring:
            worker_mod._ENGINES.clear()
            initialize_worker(ring.spec, base.blob())
            try:
                # Two interleaved rounds: every spec is a cache miss both
                # times (capacity 1), so round two runs rebuilt engines.
                for _ in range(2):
                    for spec, exp in zip(tenants, expected):
                        ring.input_view(0)[...] = frame
                        result = process_slot(
                            FrameTask(index=0, slot=0, spec_blob=spec.blob())
                        )
                        assert not hasattr(result, "error"), result
                        assert cached_engine_count() == 1
                        assert np.array_equal(ring.output_view(0), exp)
            finally:
                worker_mod._RING.close()
                worker_mod._RING = None
                worker_mod._SPEC_BLOB = None
                worker_mod._ENGINES.clear()

    def test_engine_cache_limit_env_validation(self, monkeypatch):
        from repro.runtime.worker import engine_cache_limit

        monkeypatch.setenv("REPRO_WORKER_ENGINE_CACHE", "3")
        assert engine_cache_limit() == 3
        monkeypatch.setenv("REPRO_WORKER_ENGINE_CACHE", "zero")
        with pytest.raises(RuntimeError, match="int"):
            engine_cache_limit()
        monkeypatch.setenv("REPRO_WORKER_ENGINE_CACHE", "0")
        with pytest.raises(RuntimeError, match=">= 1"):
            engine_cache_limit()


class TestTaskSpecOverrides:
    def test_multi_tenant_specs_share_one_ring(self, rng):
        """Frames carrying different spec overrides (threshold, engine
        kind) multiplex onto one processor and each comes back
        bit-identical to a sequential run of its own spec."""
        base = EngineSpec(config=make_config(), kernel=BoxFilterKernel(WINDOW))
        tenants = [
            None,  # pool-wide default spec
            base.replace(threshold=6),
            base.replace(engine="traditional"),
            base.replace(threshold=2, recirculate=False),
        ]
        frames = make_frames(rng, len(tenants))
        expected = [
            (spec if spec is not None else base).build().run(frame).outputs
            for spec, frame in zip(tenants, frames)
        ]
        with StreamingProcessor(base, workers=2) as proc:
            for spec, frame in zip(tenants, frames):
                proc.submit(frame, timeout=60, spec=spec)
            results = list(proc.results(timeout=60))
        assert [r.index for r in results] == list(range(len(tenants)))
        for res, exp in zip(results, expected):
            assert np.array_equal(res.outputs, exp)

    def test_incompatible_override_rejected(self, rng):
        base = EngineSpec(config=make_config(), kernel=BoxFilterKernel(WINDOW))
        other_geometry = EngineSpec(
            config=ArchitectureConfig(
                image_width=RES * 2,
                image_height=RES * 2,
                window_size=WINDOW,
            ),
            kernel=BoxFilterKernel(WINDOW),
        )
        other_window = EngineSpec(
            config=ArchitectureConfig(
                image_width=RES, image_height=RES, window_size=WINDOW // 2
            ),
            kernel=BoxFilterKernel(WINDOW // 2),
        )
        frame = random_image(rng, RES, RES).astype(np.int64)
        with StreamingProcessor(base, workers=1) as proc:
            with pytest.raises(ConfigError, match="frame shape"):
                proc.submit(frame, timeout=10, spec=other_geometry)
            with pytest.raises(ConfigError, match="output shape"):
                proc.submit(frame, timeout=10, spec=other_window)
            # The failed submissions must not leak ring slots.
            assert proc.free_slots == proc.slots


class TestDrainAndTimeoutSaturated:
    """The admission-control edge: a ring full of slow frames."""

    def test_results_timeout_raises_while_ring_saturated(self, rng):
        frames = make_frames(rng, 2)
        with StreamingProcessor(
            slow_spec((0, 1), 0.4), workers=1, slots=2
        ) as proc:
            for frame in frames:
                proc.submit(frame, timeout=30)
            assert proc.free_slots == 0  # saturated
            with pytest.raises(TimeoutError, match="no stream result"):
                next(proc.results(timeout=0.05))
            # The timed-out wait consumed nothing; both frames still
            # deliver, in order, once given a realistic budget.
            results = list(proc.results(timeout=30))
            assert [r.index for r in results] == [0, 1]
            assert proc.drain(timeout=10) == proc.slots

    def test_drain_timeout_returns_early_while_saturated(self, rng):
        frames = make_frames(rng, 2)
        with StreamingProcessor(
            slow_spec((0, 1), 0.4), workers=1, slots=2
        ) as proc:
            for frame in frames:
                proc.submit(frame, timeout=30)
            # Results not consumed yet: drain cannot free the in-flight
            # slots, and its timeout= bounds the wait instead of hanging.
            t0 = time.perf_counter()
            free = proc.drain(timeout=0.2)
            assert time.perf_counter() - t0 < 5.0
            assert free < proc.slots
            results = list(proc.results(timeout=30))
            assert len(results) == 2
            assert proc.drain(timeout=10) == proc.slots

    def test_poll_returns_none_then_delivers(self, rng):
        frames = make_frames(rng, 2)
        with StreamingProcessor(
            slow_spec((0,), 0.4), workers=1, slots=2
        ) as proc:
            assert proc.poll(0.01) is None  # nothing in flight
            for frame in frames:
                proc.submit(frame, timeout=30)
            # Frame 0 sleeps in its worker: an early poll sees nothing.
            assert proc.poll(0.01) is None
            seen = []
            while len(seen) < 2:
                result = proc.poll(0.5)
                if result is not None:
                    seen.append(result)
            assert sorted(r.index for r in seen) == [0, 1]
