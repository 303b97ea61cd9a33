"""The in-loop driver between the event loop and the streaming ring.

:class:`~repro.runtime.streaming.StreamingProcessor` is single-threaded
by contract: one driver owns submission *and* consumption.  An asyncio
gateway, meanwhile, wants many concurrent requests in flight.  The
bridge makes the event loop that driver, so the gateway process runs one
thread: every connection handler awaits :meth:`FrameBridge.process`,
which submits the frame at once when a ring slot is free (the loop is
the only submitter, so ``free_slots > 0`` cannot race) and queues it
FIFO otherwise.  The loop watches every worker pipe and process sentinel
(:meth:`~repro.runtime.streaming.StreamingProcessor.watch_fds`); when
one is readable the bridge drains ``poll(0)``, resolves each frame's
future, and hands freed slots to the queued jobs.  A
``loop.call_later`` tick at the supervision policy's
``poll_interval_seconds`` runs while work is outstanding: it takes the
deadline sweeps and retries no descriptor announces, and an idle
``drain()`` that returns slots a recovered frame left quarantined.

Deadlines compose from the outside: the gateway wraps the await in
``asyncio.wait_for``, which *cancels the future but not the frame* —
the worker finishes (or the supervision layer times it out), the loop
sees the completion, and the guarded resolve is a no-op on the
cancelled future.  Until then the job still counts against
:attr:`FrameBridge.depth`, which is exactly what admission control
wants: capacity consumed by abandoned work is still consumed.
"""

from __future__ import annotations

import asyncio
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..errors import StateError
from ..runtime.streaming import StreamingProcessor, StreamResult
from ..runtime.supervision import FrameFailure
from ..spec import EngineSpec

#: One completed frame job: the stream outcome, success or structured failure.
Outcome = StreamResult | FrameFailure


@dataclass(slots=True)
class _Job:
    """One frame job waiting for a slot or on the ring."""

    frame: np.ndarray
    spec: EngineSpec | None
    future: "asyncio.Future[Outcome]"


class FrameBridge:
    """Drives one streaming processor from the running event loop."""

    def __init__(self, processor: StreamingProcessor) -> None:
        self._processor = processor
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queued: deque[_Job] = deque()
        self._in_flight: dict[int, _Job] = {}
        self._tick: asyncio.TimerHandle | None = None
        self._closed = False
        self._broken: BaseException | None = None

    def start(self) -> None:
        """Attach to the running loop: watch the worker descriptors.

        Idempotent; :meth:`process` attaches on first use too.
        """
        if self._loop is not None or self._closed:
            return
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._processor.watch_fds(
            lambda fd: loop.add_reader(fd, self._on_ready), self._unwatch
        )

    def _unwatch(self, fd: int) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.remove_reader(fd)

    @property
    def depth(self) -> int:
        """Jobs accepted and not yet resolved (queued + on the ring)."""
        return len(self._queued) + len(self._in_flight)

    async def process(
        self, frame: np.ndarray, *, spec: EngineSpec | None = None
    ) -> Outcome:
        """Run one frame through the shared ring; await its outcome.

        ``spec`` is the per-tenant engine override (already validated by
        the caller against the ring geometry — an invalid one is still
        caught at submit time and surfaces here as the raised error).
        """
        if self._closed:
            raise StateError("frame bridge is closed")
        if self._broken is not None:
            raise StateError(f"frame bridge is broken: {self._broken!r}")
        self.start()
        loop = asyncio.get_running_loop()
        job = _Job(frame=frame, spec=spec, future=loop.create_future())
        if self._queued or not self._processor.free_slots:
            self._queued.append(job)
        else:
            self._in_flight[self._submit(job)] = job
        self._arm()
        return await job.future

    # -- driving ----------------------------------------------------------

    def _submit(self, job: _Job) -> int:
        """Put one job on the ring (a slot is free: this never blocks)."""
        return self._processor.submit(job.frame, spec=job.spec, timeout=0)

    def _admit_queued(self) -> None:
        """Move queued jobs onto freed slots, failing only a job that
        the processor refuses."""
        proc = self._processor
        while self._queued and proc.free_slots:
            job = self._queued.popleft()
            try:
                self._in_flight[self._submit(job)] = job
            except Exception as exc:  # noqa: BLE001 - forwarded to the job
                _settle(job.future, exc)

    def _on_ready(self) -> None:
        """A worker descriptor is readable: take every outcome now."""
        self._guarded(self._drain_outcomes)

    def _drain_outcomes(self) -> None:
        proc = self._processor
        while (outcome := proc.poll(0)) is not None:
            job = self._in_flight.pop(outcome.index, None)
            if job is not None:
                _settle(job.future, outcome)
        self._admit_queued()

    def _on_tick(self) -> None:
        """Supervision tick: sweeps, retries and idle slot reclamation."""
        self._tick = None
        proc = self._processor
        if self._in_flight:
            self._guarded(self._drain_outcomes)
        elif proc.free_slots < proc.slots:
            self._guarded(lambda: proc.drain(timeout=0))
            self._guarded(self._admit_queued)
        self._arm()

    def _arm(self) -> None:
        """Keep the tick scheduled while any work or slot is outstanding."""
        proc = self._processor
        if (
            self._tick is None
            and self._loop is not None
            and self._broken is None
            and not self._closed
            and (self.depth or proc.free_slots < proc.slots)
        ):
            self._tick = self._loop.call_later(
                proc.supervision.poll_interval_seconds, self._on_tick
            )

    def _guarded(self, step: Callable[[], object]) -> None:
        """Run one driving step; if it raises, fail every job at once.

        A driver step that ended on an exception leaves the processor in
        an unknown state, so the queued and in-flight jobs fail here and
        the bridge is marked broken: later :meth:`process` calls fail
        immediately instead of waiting out their deadline.
        """
        if self._broken is not None:
            return
        try:
            step()
        except Exception as exc:  # noqa: BLE001 - recorded, not lost
            self._broken = exc
            self._detach(StateError(f"frame bridge is broken: {exc!r}"))

    def _detach(self, exc: BaseException) -> None:
        """Stop watching and ticking; fail every job still held."""
        if self._tick is not None:
            self._tick.cancel()
            self._tick = None
        if self._loop is not None:
            self._processor.watch_fds(None)
        jobs = [*self._in_flight.values(), *self._queued]
        self._in_flight.clear()
        self._queued.clear()
        for job in jobs:
            _settle(job.future, exc)

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Stop accepting jobs and fail every job still queued or on the
        ring.

        The processor itself stays open — its owner (the gateway) closes
        it after the bridge, preserving the workers-before-ring teardown
        order the runtime depends on.
        """
        if self._closed:
            return
        self._closed = True
        self._detach(StateError("frame bridge closed"))


def _settle(future: "asyncio.Future[Outcome]", result: object) -> None:
    """Resolve ``future`` with an outcome or an exception, unless the
    waiter gave up."""
    if future.done():
        return
    if isinstance(result, BaseException):
        future.set_exception(result)
    else:
        future.set_result(result)
