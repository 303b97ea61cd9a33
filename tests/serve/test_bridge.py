"""The bridge thread: a bridge loop that dies fails every job at once."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import StateError
from repro.serve.bridge import FrameBridge


class _PollRaises:
    """A processor stand-in whose consumption step always raises."""

    slots = 2

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


def test_dead_bridge_loop_fails_in_flight_and_later_jobs():
    async def scenario() -> None:
        bridge = FrameBridge(_PollRaises(), poll_seconds=0.01)
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
