"""The one-thread bridge between the event loop and the streaming ring.

:class:`~repro.runtime.streaming.StreamingProcessor` is single-threaded
by contract: one driver owns submission *and* consumption.  An asyncio
gateway, meanwhile, wants many concurrent requests in flight.  The
bridge reconciles the two with the narrowest possible interface: every
connection handler awaits :meth:`FrameBridge.process`, which enqueues a
job and returns a future; a single daemon thread drains the queue,
submits whenever the ring has a free slot (it is the only submitter, so
``free_slots > 0`` cannot race), interleaves
:meth:`~repro.runtime.streaming.StreamingProcessor.poll` calls, and
resolves each job's future back on its event loop via
``call_soon_threadsafe``.

Deadlines compose from the outside: the gateway wraps the await in
``asyncio.wait_for``, which *cancels the future but not the frame* —
the worker finishes (or the supervision layer times it out), the driver
thread sees the completion, and the guarded resolve is a no-op on the
cancelled future.  Until then the job still counts against
:attr:`FrameBridge.depth`, which is exactly what admission control
wants: capacity consumed by abandoned work is still consumed.
"""

from __future__ import annotations

import asyncio
import queue
import threading
from dataclasses import dataclass, field

import numpy as np

from ..errors import StateError
from ..runtime.streaming import StreamingProcessor, StreamResult
from ..runtime.supervision import FrameFailure
from ..spec import EngineSpec

#: One completed frame job: the stream outcome, success or structured failure.
Outcome = StreamResult | FrameFailure


@dataclass(slots=True)
class _Job:
    """One enqueued frame job crossing from the event loop to the driver."""

    frame: np.ndarray
    spec: EngineSpec | None
    future: "asyncio.Future[Outcome]"
    loop: asyncio.AbstractEventLoop
    pending: bool = field(default=True)


class FrameBridge:
    """Multiplexes event-loop frame jobs onto one streaming processor."""

    def __init__(
        self,
        processor: StreamingProcessor,
        *,
        poll_seconds: float = 0.02,
        submit_timeout: float = 10.0,
    ) -> None:
        self._processor = processor
        self._poll_seconds = poll_seconds
        self._submit_timeout = submit_timeout
        self._jobs: "queue.Queue[_Job | None]" = queue.Queue()
        self._in_flight: dict[int, _Job] = {}
        self._lock = threading.Lock()
        self._depth = 0
        self._closed = False
        self._broken: BaseException | None = None
        self._thread = threading.Thread(
            target=self._drive, name="repro-frame-bridge", daemon=True
        )

    def start(self) -> None:
        """Start the driver thread (idempotent)."""
        if not self._thread.is_alive() and not self._closed:
            self._thread.start()

    @property
    def depth(self) -> int:
        """Jobs accepted and not yet resolved (queued + on the ring)."""
        with self._lock:
            return self._depth

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
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Outcome]" = loop.create_future()
        job = _Job(frame=frame, spec=spec, future=future, loop=loop)
        with self._lock:
            # Checked under the lock the bridge thread sets it under: a
            # job is either queued before the queue is failed, or refused.
            if self._broken is not None:
                raise StateError(f"frame bridge is broken: {self._broken!r}")
            self._depth += 1
            self._jobs.put(job)
        return await future

    # -- driver thread ----------------------------------------------------

    def _drive(self) -> None:
        """Run the bridge loop; if it dies, fail every job at once.

        A loop that ended on an exception leaves nobody to resolve the
        queued and in-flight jobs, so they fail here, and the bridge is
        marked broken so later :meth:`process` calls fail immediately
        instead of waiting out their deadline.
        """
        try:
            self._drive_loop()
        except BaseException as exc:  # noqa: BLE001 - recorded, not lost
            with self._lock:
                self._broken = exc
            self._fail_all(StateError(f"frame bridge is broken: {exc!r}"))

    def _drive_loop(self) -> None:
        """Queue-drain / submit / poll loop; runs until :meth:`close`."""
        proc = self._processor
        while True:
            stop = self._admit_ready(proc)
            if stop and not self._in_flight:
                break
            if not self._in_flight:
                if proc.free_slots < proc.slots:
                    # Slots a recovered frame left quarantined come back
                    # only through supervision sweeps: run them while idle.
                    proc.drain(timeout=self._poll_seconds)
                # Nothing on the ring: block on the queue instead of
                # spinning, waking periodically to notice close().
                try:
                    job = self._jobs.get(timeout=0.1)
                except queue.Empty:
                    continue
                if job is None:
                    if self._closed and not self._in_flight:
                        break
                    continue
                self._submit(proc, job)
                continue
            outcome = proc.poll(self._poll_seconds)
            if outcome is not None:
                job = self._in_flight.pop(outcome.index, None)
                if job is not None:
                    self._resolve(job, outcome)
        self._fail_all(StateError("frame bridge closed"))

    def _admit_ready(self, proc: StreamingProcessor) -> bool:
        """Submit queued jobs while slots are free; True once closing."""
        while proc.free_slots > 0:
            try:
                job = self._jobs.get_nowait()
            except queue.Empty:
                break
            if job is None:
                return True
            self._submit(proc, job)
        return self._closed

    def _submit(self, proc: StreamingProcessor, job: _Job) -> None:
        """Put one job on the ring, failing only that job on error."""
        try:
            index = proc.submit(
                job.frame, spec=job.spec, timeout=self._submit_timeout
            )
        except BaseException as exc:  # noqa: BLE001 - forwarded to the job
            self._reject(job, exc)
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            return
        self._in_flight[index] = job

    def _finish(self, job: _Job) -> None:
        with self._lock:
            if job.pending:
                job.pending = False
                self._depth -= 1

    def _resolve(self, job: _Job, outcome: Outcome) -> None:
        self._finish(job)
        job.loop.call_soon_threadsafe(_set_result, job.future, outcome)

    def _reject(self, job: _Job, exc: BaseException) -> None:
        self._finish(job)
        job.loop.call_soon_threadsafe(_set_exception, job.future, exc)

    def _fail_all(self, exc: BaseException) -> None:
        """Resolve every job still held anywhere (shutdown path)."""
        for job in list(self._in_flight.values()):
            self._reject(job, exc)
        self._in_flight.clear()
        while True:
            try:
                job = self._jobs.get_nowait()
            except queue.Empty:
                break
            if job is not None:
                self._reject(job, exc)

    # -- lifecycle --------------------------------------------------------

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting jobs, let in-flight frames finish, join.

        The processor itself stays open — its owner (the gateway) closes
        it after the bridge, preserving the pool-before-ring teardown
        order the runtime depends on.
        """
        if self._closed:
            return
        self._closed = True
        self._jobs.put(None)
        if self._thread.is_alive():
            self._thread.join(timeout=timeout)


def _set_result(future: "asyncio.Future[Outcome]", outcome: Outcome) -> None:
    """Event-loop callback: resolve unless the waiter gave up."""
    if not future.done():
        future.set_result(outcome)


def _set_exception(
    future: "asyncio.Future[Outcome]", exc: BaseException
) -> None:
    """Event-loop callback: fail unless the waiter gave up."""
    if not future.done():
        future.set_exception(exc)
