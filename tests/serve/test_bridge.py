"""The in-loop bridge: a driving step that raises fails every job at once."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import StateError
from repro.runtime.supervision import SupervisionPolicy
from repro.serve.bridge import FrameBridge


class _PollRaises:
    """A processor stand-in whose consumption step always raises."""

    slots = 2
    supervision = SupervisionPolicy(poll_interval_seconds=0.01)

    def __init__(self) -> None:
        self.free_slots = self.slots
        self._next = 0

    def submit(self, frame, *, spec=None, timeout=None) -> int:
        self.free_slots -= 1
        self._next += 1
        return self._next - 1

    def poll(self, timeout: float = 0.0):
        raise RuntimeError("poll fault")

    def drain(self, timeout=None) -> int:
        return self.free_slots

    def watch_fds(self, add, remove=None) -> None:
        pass  # no workers: the supervision tick drives every poll


def test_dead_bridge_loop_fails_in_flight_and_later_jobs():
    async def scenario() -> None:
        bridge = FrameBridge(_PollRaises())
        bridge.start()
        frame = np.zeros((4, 4), dtype=np.int64)
        try:
            with pytest.raises(StateError, match="poll fault"):
                await asyncio.wait_for(bridge.process(frame), timeout=10.0)
            assert bridge.depth == 0
            # Refused at once, not left waiting for a loop that is gone.
            with pytest.raises(StateError, match="broken"):
                await asyncio.wait_for(bridge.process(frame), timeout=1.0)
        finally:
            bridge.close()

    asyncio.run(scenario())


def test_worker_dying_idle_is_reaped_without_spinning_the_loop():
    """A worker killed between frames wakes the loop once: the bridge
    reaps and re-forks it instead of spinning on its readable sentinel,
    and the next frame is served by the fresh worker."""
    import os
    import signal
    import time

    from repro import ArchitectureConfig
    from repro.kernels import BoxFilterKernel
    from repro.runtime import StreamingProcessor
    from repro.spec import EngineSpec

    spec = EngineSpec(
        config=ArchitectureConfig(image_width=16, image_height=16, window_size=4),
        kernel=BoxFilterKernel(4),
    )
    frame = np.arange(256, dtype=np.int64).reshape(16, 16) % 200
    expected = spec.build().run(frame).outputs

    async def scenario(proc: StreamingProcessor) -> tuple[float, int, int]:
        bridge = FrameBridge(proc)
        bridge.start()
        try:
            first = await asyncio.wait_for(bridge.process(frame), timeout=30)
            os.kill(first.worker_pid, signal.SIGKILL)
            cpu = time.process_time()
            await asyncio.sleep(0.5)
            idle_cpu = time.process_time() - cpu
            second = await asyncio.wait_for(bridge.process(frame), timeout=30)
            assert np.array_equal(second.outputs, expected)
            return idle_cpu, first.worker_pid, second.worker_pid
        finally:
            bridge.close()

    with StreamingProcessor(spec, workers=1) as proc:
        idle_cpu, before, after = asyncio.run(scenario(proc))
        assert proc.supervisor_stats.worker_deaths == 1
    assert after != before
    assert idle_cpu < 0.25
