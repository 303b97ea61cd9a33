"""Tests for the shared-memory frame ring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.runtime.ring import FrameRing, RingSpec


def make_ring(slots: int = 2) -> FrameRing:
    return FrameRing(
        slots=slots,
        frame_shape=(6, 8),
        frame_dtype=np.int64,
        out_shape=(3, 5),
        out_dtype=np.float64,
    )


class TestRingSpec:
    def test_byte_math(self):
        spec = RingSpec(
            name="x",
            slots=3,
            frame_shape=(6, 8),
            frame_dtype="int64",
            out_shape=(3, 5),
            out_dtype="float64",
        )
        assert spec.frame_bytes == 6 * 8 * 8
        assert spec.out_bytes == 3 * 5 * 8
        assert spec.slot_bytes == spec.frame_bytes + spec.out_bytes
        assert spec.total_bytes == 3 * spec.slot_bytes

    def test_invalid_slot_count(self):
        with pytest.raises(ConfigError):
            make_ring(slots=0)


class TestViews:
    def test_views_share_memory_with_attached_ring(self):
        with make_ring() as ring:
            attached = FrameRing.attach(ring.spec)
            try:
                frame = np.arange(48, dtype=np.int64).reshape(6, 8)
                ring.input_view(1)[...] = frame
                assert np.array_equal(attached.input_view(1), frame)
                attached.output_view(1)[...] = 2.5
                assert np.all(ring.output_view(1) == 2.5)
            finally:
                attached.close()

    def test_slots_are_disjoint(self):
        with make_ring() as ring:
            ring.input_view(0)[...] = 1
            ring.input_view(1)[...] = 7
            ring.output_view(0)[...] = 0.0
            assert np.all(ring.input_view(0) == 1)
            assert np.all(ring.input_view(1) == 7)

    def test_dtypes_preserved(self):
        with make_ring() as ring:
            assert ring.input_view(0).dtype == np.int64
            assert ring.output_view(0).dtype == np.float64

    def test_out_of_range_slot_rejected(self):
        with make_ring() as ring:
            with pytest.raises(ConfigError):
                ring.input_view(2)
            with pytest.raises(ConfigError):
                ring.release(2)


class TestBackpressure:
    def test_acquire_release_cycle(self):
        with make_ring(slots=2) as ring:
            a = ring.acquire(timeout=1)
            b = ring.acquire(timeout=1)
            assert {a, b} == {0, 1}
            ring.release(a)
            assert ring.acquire(timeout=1) == a

    def test_full_ring_times_out(self):
        with make_ring(slots=1) as ring:
            ring.acquire(timeout=1)
            with pytest.raises(TimeoutError, match="1 ring slots in flight"):
                ring.acquire(timeout=0.05)

    def test_in_flight_peak(self):
        with make_ring(slots=2) as ring:
            a = ring.acquire(timeout=1)
            ring.release(a)
            a = ring.acquire(timeout=1)
            b = ring.acquire(timeout=1)
            ring.release(a)
            ring.release(b)
            assert ring.in_flight_peak == 2

    def test_attached_ring_has_no_slot_accounting(self):
        with make_ring() as ring:
            attached = FrameRing.attach(ring.spec)
            try:
                with pytest.raises(ConfigError, match="owner"):
                    attached.acquire(timeout=0)
                with pytest.raises(ConfigError, match="owner"):
                    attached.release(0)
            finally:
                attached.close()


class TestLifecycle:
    def test_owner_close_unlinks_segment(self):
        ring = make_ring()
        spec = ring.spec
        ring.close()
        ring.close()  # idempotent
        with pytest.raises(FileNotFoundError):
            FrameRing.attach(spec)

    def test_spec_is_picklable(self):
        import pickle

        with make_ring() as ring:
            clone = pickle.loads(pickle.dumps(ring.spec))
            assert clone == ring.spec
