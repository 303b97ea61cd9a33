"""Bounded streaming front-end: submit frames, iterate results.

:class:`StreamingProcessor` wires the pieces of the runtime together into
the multi-frame pipeline the paper's hardware would be fed with: a
persistent :class:`~repro.runtime.pool.WorkerSet` (engines constructed
once per worker, never pickled per frame, one pipe per worker), a
shared-memory :class:`~repro.runtime.ring.FrameRing` as the
zero-copy frame transport, and a bounded submission API — ``submit()``
blocks once every ring slot is in flight, so a fast producer can never
outrun the consumers (backpressure by construction).  One
:class:`~repro.spec.EngineSpec` describes the engine every worker runs.

Results are consumed through either iterator:

- :meth:`results` — frame order, regardless of worker completion order;
- :meth:`as_completed` — completion order, for consumers that only need
  per-frame aggregates and want minimum latency.

Both yield :class:`StreamResult` values whose ``outputs`` are bit-identical
to a sequential ``CompressedEngine.run()`` on the same frame (property
tested across the lossless/lossy x recirculate matrix).

Single-worker streams still run through a worker process so that the
semantics (ordering, backpressure, stats) are identical at every worker
count.

Fault tolerance: every stream runs under a
:class:`~repro.runtime.supervision.FrameSupervisor` — the driver tracks
each in-flight frame and which worker holds it, and when a worker dies (or
a per-frame deadline expires) retries the frame in place, reclaims orphaned
ring slots, respawns a broken worker set, and as a last resort computes the
frame inline with a chaos-free engine, so ``results()`` never hangs on a
completion that cannot come.  Frames that keep failing are delivered as
structured :class:`~repro.runtime.supervision.FrameFailure` values when
inline degradation is disabled.  A frame that overflows the spec's memory
plan is final at its first report: it is delivered as
``FrameFailure(reason="capacity")`` carrying the engine's message, and
the stream carries on.  Every wait — a blocked ``submit``, a
result iterator, :meth:`drain` — is the same step repeated: block in
``multiprocessing.connection.wait`` on the worker pipes and process
sentinels (a reply or a death wakes it at once), then run one recovery
sweep.  The result iterators accept ``timeout=`` and raise
:class:`TimeoutError` instead of blocking forever.  The driver
(submission plus consumption) is single-threaded by design and starts no
thread: an event loop can drive it instead, watching :meth:`watch_fds`
and calling ``poll(0)`` — a non-blocking step — when one is readable.

Observability: pass ``probe=MetricsProbe()`` and the driver records
slot-wait time, queue depth and per-worker frame latency, while each
worker's engine runs with its own probe; :meth:`metrics_snapshot` merges
the driver registry with the latest cumulative snapshot shipped back by
every worker (counters and histograms add, gauges keep the max — all
emitted gauges are high-water marks, so the merge is exact), including
the recovery counters (``repro_worker_deaths_total``,
``repro_frames_retried_total``, …) and the ``repro_recovery_seconds``
loss-to-redelivery histogram.

Lifecycle: every live processor is tracked in a module-level weak set and
an ``atexit`` handler closes any still open at interpreter exit.  Close
order matters — the workers are stopped *before* the ring unlinks its
shared memory, so a process that exits with frames still in
flight cannot leak ``/dev/shm`` blocks (regression-tested in a
subprocess).
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
import weakref
from collections import OrderedDict, deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass, replace

import numpy as np

from ..core.window.base import EngineStats, SlidingWindowEngine
from ..errors import CapacityError, ConfigError, StateError
from ..observability.metrics import MetricsRegistry
from ..observability.probe import Probe
from ..spec import EngineSpec
from .pool import WorkerSet, default_workers
from .ring import FrameRing
from .supervision import (
    INLINE_ATTEMPT,
    DegradeAction,
    FrameFailure,
    FrameSupervisor,
    ReclaimAction,
    RetryAction,
    SupervisionAction,
    SupervisionPolicy,
    SupervisorStats,
)
from .worker import FrameError, FrameResult, FrameTask, serve_tasks

#: Live processors; the atexit hook below closes any left open.
_LIVE: "weakref.WeakSet[StreamingProcessor]" = weakref.WeakSet()

#: Bound of the per-processor memo of override specs' blobs (and of the
#: inline engines built for them on the degraded path).
_OVERRIDE_MEMO_LIMIT = 32


def _close_live_processors() -> None:
    """Interpreter-exit hook: close every processor still open.

    Registered after :mod:`repro.runtime.pool`'s and multiprocessing's own
    atexit handlers, so LIFO ordering runs it *first* — each processor
    stops its workers and only then unlinks its ring, while the worker
    processes are still reachable.
    """
    for proc in list(_LIVE):
        try:
            proc.close()
        except Exception:  # pragma: no cover - best-effort at interpreter exit
            pass


atexit.register(_close_live_processors)

def _ring_geometry(
    spec: EngineSpec,
) -> tuple[tuple[int, int], np.dtype, tuple[int, int], np.dtype]:
    """The ring layout ``spec``'s engine needs: input frame shape and
    pixel dtype, valid-region output shape and the kernel's output dtype.

    Input slots hold ``config.pixel_dtype``, the width the engines narrow
    every frame to anyway.  The output dtype is probed on one zero window
    of that dtype, the frame a compressed engine hands its kernel, so the
    ring's output plane holds its outputs exactly (ints stay ints, 8-bit
    stay 8-bit).
    """
    config = spec.resolved_config
    n = config.window_size
    height, width = config.image_height, config.image_width
    window = np.zeros((1, n, n), dtype=config.pixel_dtype)
    sample = np.asarray(spec.kernel.apply(window))
    return (
        (height, width),
        config.pixel_dtype,
        (height - n + 1, width - n + 1),
        sample.dtype,
    )


@dataclass(frozen=True, slots=True)
class StreamResult:
    """One streamed frame's outcome."""

    #: Submission index of the frame (0-based).
    index: int
    #: Valid-region output map, bit-identical to a sequential run.
    outputs: np.ndarray
    #: The engine's run statistics for this frame.
    stats: EngineStats
    #: Worker-side seconds spent inside ``engine.run`` for this frame.
    seconds: float = 0.0
    #: PID of the worker that processed the frame (the driver's own PID
    #: when the frame was computed inline on the degraded path).
    worker_pid: int = 0
    #: Pool attempts the frame consumed (1 = first try succeeded).
    attempts: int = 1
    #: True when the supervision layer computed the frame inline after
    #: the pool could not deliver it.
    degraded: bool = False


#: A consumable outcome waiting in the ready queue: a quarantined frame,
#: or a ruled-deliverable result with its slot to release and attempts.
_Ready = FrameFailure | tuple[FrameResult, int | None, int]


class StreamingProcessor:
    """Persistent-worker, shared-memory streaming executor for one engine
    spec.

    Parameters
    ----------
    spec:
        The :class:`~repro.spec.EngineSpec` every frame is processed
        with.  Its kernel must be picklable (all built-in kernels are).
        A spec carrying a :class:`~repro.resilience.chaos.ChaosSpec`
        injects process-level faults in the workers — the supervision
        layer is what turns those faults into retries instead of hangs.
    workers:
        Worker process count (default: ``REPRO_WORKERS`` / CPU count).
    slots:
        Ring depth; bounds frames in flight (default ``2 * workers`` so
        every worker can compute one frame while its next is staged).
    probe:
        Optional :class:`~repro.observability.probe.MetricsProbe`.  When
        given, the driver records slot-wait/queue-depth/latency metrics
        and every worker runs a probed engine; aggregate with
        :meth:`metrics_snapshot`.
    supervision:
        The stream's :class:`~repro.runtime.supervision.SupervisionPolicy`
        (``None``: default knobs).
    """

    def __init__(
        self,
        spec: EngineSpec,
        *,
        workers: int | None = None,
        slots: int | None = None,
        probe: Probe | None = None,
        supervision: SupervisionPolicy | None = None,
    ) -> None:
        if probe is not None and not spec.probe:
            spec = replace(spec, probe=True)
        self.spec = spec
        self.probe = probe
        self.workers = default_workers() if workers is None else workers
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        self.slots = 2 * self.workers if slots is None else slots
        if self.slots < 1:
            raise ConfigError(f"slots must be >= 1, got {self.slots}")
        self.supervision = (
            SupervisionPolicy() if supervision is None else supervision
        )
        self._supervisor = FrameSupervisor(self.supervision, probe=probe)
        self._geometry = _ring_geometry(spec)
        frame_shape, frame_dtype, out_shape, out_dtype = self._geometry
        self._ring = FrameRing(
            slots=self.slots,
            frame_shape=frame_shape,
            frame_dtype=frame_dtype,
            out_shape=out_shape,
            out_dtype=out_dtype,
        )
        self._spec_blob = spec.blob()
        self._workers = WorkerSet(
            self.workers, serve_tasks, (self._ring.spec, self._spec_blob)
        )
        #: Outcomes ruled deliverable, in completion order.
        self._ready: deque[_Ready] = deque()
        self._inline: SlidingWindowEngine | None = None
        #: Per-frame spec-blob overrides (multi-tenant serving path);
        #: entries live exactly as long as their frame is in flight.
        self._task_specs: dict[int, bytes] = {}
        #: Inline engines for override specs (bounded LRU, degraded path).
        self._inline_overrides: "OrderedDict[bytes, SlidingWindowEngine]" = (
            OrderedDict()
        )
        #: ``id(spec)`` -> (spec, blob to ship or ``None`` for our own
        #: spec), so a known tenant pays no pickle and no geometry check.
        self._override_blobs: (
            "OrderedDict[int, tuple[EngineSpec, bytes | None]]"
        ) = OrderedDict()
        self._next_index = 0
        #: Indexes submitted but not yet delivered to a consumer.
        self._undelivered: set[int] = set()
        self._closed = False
        #: Latest cumulative metrics snapshot shipped back per worker PID.
        self._worker_snapshots: dict[int, dict] = {}
        _LIVE.add(self)

    # -- submission -------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Frames submitted but not yet consumed."""
        return len(self._undelivered)

    @property
    def in_flight_peak(self) -> int:
        """High-water mark of simultaneously held ring slots."""
        return self._ring.in_flight_peak

    @property
    def free_slots(self) -> int:
        """Ring slots currently free (full ring depth when idle)."""
        return self._ring.free_slots

    @property
    def supervisor_stats(self) -> SupervisorStats:
        """Recovery counters of the stream."""
        return self._supervisor.stats

    def watch_fds(
        self,
        add: Callable[[int], None] | None,
        remove: Callable[[int], None] | None = None,
    ) -> None:
        """Mirror the worker pipe and sentinel descriptors into a watcher.

        For an event loop driving the processor: ``add(fd)`` is called
        for every descriptor a reply or a worker death shows on (now, and
        again for each re-forked worker), ``remove(fd)`` before one is
        closed.  When one is readable, ``poll(0)`` until it returns
        ``None`` takes every outcome without blocking.  ``watch_fds(None)``
        removes every descriptor and stops mirroring.
        """
        self._workers.watch(add, remove)

    def check_spec_compatible(self, spec: EngineSpec) -> None:
        """Raise :class:`~repro.errors.ConfigError` unless ``spec`` can run
        on this processor's ring.

        A per-frame spec override may change anything about the engine
        (threshold, engine kind, codec, recirculation, protection) except
        the ring geometry: the input frame shape and pixel dtype, the
        valid-region output shape and the kernel's output dtype are baked
        into the shared-memory slots at construction time.
        """
        frame_shape, pixel_dtype, out_shape, out_dtype = _ring_geometry(spec)
        ring_frame, ring_pixel, ring_out, ring_dtype = self._geometry
        if frame_shape != ring_frame:
            raise ConfigError(
                f"spec frame shape {frame_shape} != ring {ring_frame}"
            )
        if pixel_dtype != ring_pixel:
            raise ConfigError(
                f"spec pixel dtype {pixel_dtype} != ring {ring_pixel}"
            )
        if out_shape != ring_out:
            raise ConfigError(
                f"spec output shape {out_shape} (window "
                f"{spec.resolved_config.window_size}) != ring {ring_out}"
            )
        if out_dtype != ring_dtype:
            raise ConfigError(
                f"spec kernel output dtype {out_dtype} != ring {ring_dtype}"
            )

    def _override_blob(self, spec: EngineSpec) -> bytes | None:
        """The blob a frame of ``spec`` ships: ``None`` for our own spec.

        Memoised per spec object (a bounded LRU holding the spec, so its
        ``id`` stays unique): a tenant's spec is pickled and checked
        against the ring once, not once per frame.
        """
        memo = self._override_blobs
        cached = memo.get(id(spec))
        if cached is not None:
            memo.move_to_end(id(spec))
            return cached[1]
        blob: bytes | None = spec.blob()
        if blob == self._spec_blob:
            blob = None
        else:
            self.check_spec_compatible(spec)
        memo[id(spec)] = (spec, blob)
        while len(memo) > _OVERRIDE_MEMO_LIMIT:
            memo.popitem(last=False)
        return blob

    def submit(
        self,
        frame: np.ndarray,
        *,
        timeout: float | None = None,
        spec: EngineSpec | None = None,
    ) -> int:
        """Queue one frame; returns its stream index.

        Writes the frame straight into a shared-memory slot at the ring's
        pixel width (the only copy the pipeline makes on the way in).
        Blocks while all ring slots are in flight; ``timeout`` bounds that
        wait and raises :class:`TimeoutError` on expiry.
        Recovery sweeps keep running while blocked, so zombie slots
        reclaim and due retries dispatch even under a stalled producer.

        ``spec`` overrides the processor-wide engine spec for this one
        frame (the serving gateway's multi-tenant path): the workers run
        the override engine — cached per spec blob in their bounded LRU —
        while the frame still travels through the shared ring.  The
        override must pass :meth:`check_spec_compatible`; retries and the
        inline degradation floor honour it too.
        """
        if self._closed:
            raise StateError("processor is closed")
        arr = np.asarray(frame)
        expected = self._ring.spec.frame_shape
        if arr.shape != expected:
            raise ConfigError(f"frame shape {arr.shape} != configured {expected}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ConfigError(f"frames must be integer pixels, got {arr.dtype}")
        spec_blob = None if spec is None else self._override_blob(spec)
        (self.spec if spec is None else spec).config.check_pixels(arr)
        t0 = time.perf_counter()
        deadline = None if timeout is None else time.monotonic() + timeout
        self._sweep_while_full(deadline)
        remaining = (
            timeout
            if deadline is None
            else max(deadline - time.monotonic(), 0.001)
        )
        index = self._next_index
        sup = self._supervisor
        slot = self._ring.acquire(timeout=remaining)
        try:
            if self.probe is not None:
                self.probe.observe(
                    "repro_slot_wait_seconds", time.perf_counter() - t0
                )
            self._ring.input_view(slot)[...] = arr
            if spec_blob is not None:
                self._task_specs[index] = spec_blob
            sup.track(index, slot, pooled=sup.pool_usable)
            self._dispatch(
                FrameTask(index=index, slot=slot, spec_blob=spec_blob)
            )
        except BaseException:
            # The frame never made it in flight (e.g. the workers were
            # torn down under us): hand the slot back instead of
            # shrinking the ring until the stream deadlocks.
            sup.untrack(index)
            self._task_specs.pop(index, None)
            self._ring.release(slot)
            raise
        self._next_index += 1
        self._undelivered.add(index)
        if self.probe is not None:
            self.probe.gauge_set("repro_queue_depth", self.in_flight)
            self.probe.gauge_max("repro_queue_depth_peak", self.in_flight)
        return index

    def _sweep_while_full(self, deadline: float | None) -> None:
        """Run wait steps while the ring has no free slot.

        Delivered-but-zombie slots only come back through supervision
        sweeps, and those normally run in the consumption loop — a
        producer blocked inside ``submit`` must keep sweeping itself or a
        ring full of zombies would never drain.
        """
        while self._ring.free_slots == 0:
            if not self._wait_step(deadline):
                return  # let acquire() raise TimeoutError

    def _dispatch(self, task: FrameTask) -> None:
        """Hand a task to a worker, degrading when the workers cannot take it.

        Never raises: a fresh frame on an unusable worker set runs inline
        immediately, a retry is left for the next sweep to escalate, and
        a send that raises triggers the respawn/degrade ladder.
        """
        if not self._supervisor.pool_usable:
            if task.attempt == 0:
                self._run_inline(task.index, task.slot, "pool-unrecoverable")
            return
        try:
            self._workers.send(task)
        except Exception:
            self._handle_pool_breakage()

    def _handle_pool_breakage(self) -> None:
        """A send raised: respawn the workers or give up on them.

        Either way every task in flight died with the old workers, so the
        supervisor zeroes their outstanding counts and reschedules all
        tracked frames — onto fresh workers after a respawn, inline once
        the respawn budget is spent.
        """
        sup = self._supervisor
        if sup.stats.pool_respawns < sup.policy.max_pool_respawns:
            self._workers.restart()
            sup.on_pool_restart()
        else:
            sup.on_pool_unusable()

    def _inline_engine(self, index: int) -> SlidingWindowEngine:
        """The driver's own chaos-free engine for degraded frames.

        Frames carrying a per-task spec override degrade onto an engine
        built from *that* spec (chaos stripped), cached in a small LRU so
        a burst of degraded multi-tenant frames does not rebuild per
        frame.
        """
        blob = self._task_specs.get(index)
        if blob is not None:
            engine = self._inline_overrides.get(blob)
            if engine is None:
                spec: EngineSpec = pickle.loads(blob)
                if spec.chaos is not None:
                    spec = spec.replace(chaos=None)
                engine = spec.build(probe=self.probe)
                self._inline_overrides[blob] = engine
                while len(self._inline_overrides) > 4:
                    self._inline_overrides.popitem(last=False)
            else:
                self._inline_overrides.move_to_end(blob)
            return engine
        if self._inline is None:
            base = self.spec
            if base.chaos is not None:
                base = base.replace(chaos=None)
            self._inline = base.build(probe=self.probe)
        return self._inline

    def _run_inline(self, index: int, slot: int, reason: str) -> None:
        """Compute a frame in the driver process (the degradation floor).

        Reads the input from the frame's ring slot and writes the outputs
        back in place, exactly like a worker would — concurrent stale
        attempts write the same bytes, the engine being deterministic —
        then takes the completion through the one intake path.  An engine
        that raises here too leaves nothing to degrade to: the frame is
        quarantined with ``reason`` and the error (reason ``"capacity"``
        and the engine's message for a plan overflow), and the
        supervision sweep carries on.
        """
        try:
            engine = self._inline_engine(index)
            frame = np.asarray(self._ring.input_view(slot))
            t0 = time.perf_counter()
            run = engine.run(frame)
        except Exception as exc:  # noqa: BLE001 - delivered as a FrameFailure
            capacity = isinstance(exc, CapacityError)
            self._quarantine(
                index,
                reason="capacity" if capacity else reason,
                error=str(exc) if capacity else repr(exc),
                attempts=self._supervisor.attempts(index),
                now=time.monotonic(),
            )
            return
        seconds = time.perf_counter() - t0
        self._ring.output_view(slot)[...] = run.outputs
        self._supervisor.count_degraded()
        self._intake(
            FrameResult(
                index=index,
                slot=slot,
                stats=asdict(run.stats),
                seconds=seconds,
                worker_pid=os.getpid(),
                metrics=None,
                attempt=INLINE_ATTEMPT,
                degraded=True,
            )
        )

    # -- supervision ------------------------------------------------------

    def _release(self, slot: int | None) -> None:
        if slot is not None:
            self._ring.release(slot)

    def _intake(self, reply: FrameResult | FrameError) -> None:
        """Rule on one reply; a deliverable result joins the ready queue."""
        sup = self._supervisor
        if isinstance(reply, FrameError):
            if reply.kind == CapacityError.__name__:
                action = sup.on_capacity(reply.index, reply.attempt, reply.error)
                if action is not None:
                    self._execute(action, time.monotonic())
                return
            self._release(sup.on_error(reply.index, reply.attempt, reply.error))
            return
        chaos = self.spec.chaos
        if chaos is not None and reply.attempt == 0 and reply.index in chaos.drop_on:
            # Injected transport fault: the driver pretends the first
            # completion never arrived.  Recovery needs a deadline sweep.
            self._release(sup.on_dropped(reply.index))
            return
        verdict = sup.on_result(reply.index, reply.attempt)
        if verdict.deliver:
            self._ready.append((reply, verdict.release_slot, verdict.attempts))
        else:
            self._release(verdict.release_slot)

    def _collect(self, wait: float) -> None:
        """Take the replies and deaths of up to ``wait`` seconds.

        A dead worker's unanswered tasks go to the supervisor as that
        worker's loss; the worker itself is already re-forked.
        """
        replies, lost = self._workers.receive(wait)
        for reply in replies:
            self._intake(reply)
        now = time.monotonic()
        for held in lost:
            self._supervisor.on_worker_death(
                [(task.index, task.attempt) for task in held], now
            )

    def _execute_supervision(self, now: float) -> None:
        """Run one recovery sweep and execute every action it emits."""
        for action in self._supervisor.actions(now):
            self._execute(action, now)

    def _execute(self, action: SupervisionAction, now: float) -> None:
        """Carry out one supervision action."""
        if isinstance(action, ReclaimAction):
            self._ring.release(action.slot)
        elif isinstance(action, RetryAction):
            self._dispatch(
                FrameTask(
                    index=action.index,
                    slot=action.slot,
                    attempt=action.attempt,
                    spec_blob=self._task_specs.get(action.index),
                )
            )
        elif isinstance(action, DegradeAction):
            self._run_inline(action.index, action.slot, action.reason)
        else:
            self._quarantine(
                action.index,
                reason=action.reason,
                error=action.error,
                attempts=action.attempts,
                now=now,
            )

    def _quarantine(
        self, index: int, *, reason: str, error: str, attempts: int, now: float
    ) -> None:
        """Give up on ``index``: free (or zombie) its slot, queue a failure."""
        self._release(self._supervisor.finish_failed(index, now))
        self._task_specs.pop(index, None)
        self._ready.append(
            FrameFailure(
                index=index, attempts=attempts, reason=reason, error=error
            )
        )

    def _wait_step(self, deadline: float | None) -> bool:
        """One wait: replies and deaths, then one recovery sweep.

        Blocks on the workers for the poll interval at most, cut short by
        the supervisor's next due event and by ``deadline`` (a passed
        deadline makes the step non-blocking).  Returns ``False`` once
        ``deadline`` has passed.
        """
        now = time.monotonic()
        wait = self.supervision.poll_interval_seconds
        wakeup = self._supervisor.next_wakeup(now)
        if wakeup is not None:
            wait = min(wait, wakeup - now)
        if deadline is not None:
            wait = min(wait, deadline - now)
        self._collect(max(wait, 0.0))
        now = time.monotonic()
        self._execute_supervision(now)
        return deadline is None or now < deadline

    # -- consumption ------------------------------------------------------

    def _take_ready(self) -> StreamResult | FrameFailure | None:
        """Deliver the oldest ready outcome, if any."""
        if not self._ready:
            return None
        item = self._ready.popleft()
        if isinstance(item, FrameFailure):
            self._undelivered.discard(item.index)
            if self.probe is not None:
                self.probe.gauge_set("repro_queue_depth", self.in_flight)
            return item
        result, release_slot, attempts = item
        return self._deliver(result, release_slot=release_slot, attempts=attempts)

    def _next_delivery(
        self, timeout: float | None = None
    ) -> StreamResult | FrameFailure:
        """Block until the next deliverable outcome.

        ``timeout`` bounds this one wait and raises :class:`TimeoutError`
        on expiry; ``0`` takes only what already arrived.  Waiting wakes
        on every worker reply and death and runs recovery sweeps, so a
        killed worker turns into a retried (or inline-degraded) delivery
        instead of a hang.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            outcome = self._take_ready()
            if outcome is not None:
                return outcome
            if not self._wait_step(deadline) and not self._ready:
                raise TimeoutError(f"no stream result within {timeout:g}s")

    def _deliver(
        self,
        result: FrameResult,
        *,
        release_slot: int | None,
        attempts: int,
    ) -> StreamResult:
        """Copy a completion's outputs out of the ring and account it.

        ``release_slot=None`` means the supervisor zombie-quarantined the
        slot (stale attempts may still write to it) — a later sweep
        reclaims it.
        """
        outputs = np.array(self._ring.output_view(result.slot), copy=True)
        self._release(release_slot)
        self._undelivered.discard(result.index)
        self._task_specs.pop(result.index, None)
        if result.metrics is not None:
            self._worker_snapshots[result.worker_pid] = result.metrics
        if self.probe is not None:
            self.probe.observe(
                "repro_frame_seconds",
                result.seconds,
                worker=str(result.worker_pid),
            )
            self.probe.gauge_set("repro_queue_depth", self.in_flight)
        return StreamResult(
            index=result.index,
            outputs=outputs,
            stats=EngineStats(**result.stats),
            seconds=result.seconds,
            worker_pid=result.worker_pid,
            attempts=attempts,
            degraded=result.degraded,
        )

    def poll(
        self, timeout: float = 0.0
    ) -> StreamResult | FrameFailure | None:
        """One non-raising consumption step (an event loop's driver).

        Returns the next completed outcome in completion order, or
        ``None`` when nothing is in flight or nothing completed within
        ``timeout`` seconds.  ``poll(0)`` never blocks: it takes what the
        workers already sent and runs one recovery sweep.  Unlike the
        iterators this never raises :class:`TimeoutError`, so an event
        loop can interleave submission and consumption without exception
        control flow.
        """
        if not self.in_flight:
            # Nothing to deliver, but still one non-blocking step: a
            # worker that died idle must be reaped, or its readable
            # sentinel would keep waking an event loop.
            self._wait_step(time.monotonic())
            return None
        try:
            return self._next_delivery(timeout)
        except TimeoutError:
            return None

    def as_completed(
        self, *, timeout: float | None = None
    ) -> Iterator[StreamResult | FrameFailure]:
        """Yield every in-flight frame's outcome in completion order.

        ``timeout`` bounds each individual wait and raises
        :class:`TimeoutError` on expiry instead of blocking forever.
        """
        while self.in_flight:
            yield self._next_delivery(timeout)

    def _in_order(
        self, parked: dict[int, StreamResult | FrameFailure]
    ) -> Iterator[StreamResult | FrameFailure]:
        """Yield (and unpark) every parked outcome no in-flight frame
        precedes.

        Ordering is by the indexes actually awaiting delivery, never by a
        counter: a frame another consumer already took leaves no gap the
        ordered iterators could wait on forever.
        """
        floor = min(self._undelivered, default=None)
        while parked:
            head = min(parked)
            if floor is not None and floor < head:
                return
            yield parked.pop(head)

    def _ordered(
        self,
        parked: dict[int, StreamResult | FrameFailure],
        timeout: float | None,
    ) -> Iterator[StreamResult | FrameFailure]:
        """Deliver every in-flight frame, yielding in submission order."""
        while self.in_flight or parked:
            yield from self._in_order(parked)
            if self.in_flight:
                outcome = self._next_delivery(timeout)
                parked[outcome.index] = outcome

    def results(
        self, *, timeout: float | None = None
    ) -> Iterator[StreamResult | FrameFailure]:
        """Yield every in-flight frame's outcome in submission order.

        Out-of-order completions are parked (stats only — their ring slots
        are read and released immediately, so reordering never starves the
        ring) until their turn comes.  ``timeout`` bounds each individual
        wait and raises :class:`TimeoutError` on expiry.
        """
        yield from self._ordered({}, timeout)

    def map(
        self, frames: Iterable[np.ndarray], *, timeout: float | None = None
    ) -> Iterator[StreamResult | FrameFailure]:
        """Stream ``frames`` through the workers; yield ordered outcomes.

        Interleaves submission and consumption under the ring's
        backpressure: whenever every ring slot is in flight the producer
        blocks on the next completion before submitting more, so the
        pipeline never holds more than ``slots`` frames.  ``timeout``
        bounds each slot wait and each result wait (both raise
        :class:`TimeoutError`).  The processor must be
        idle: frames submitted earlier raise
        :class:`~repro.errors.StateError` (consume them first).
        """
        if self.in_flight:
            raise StateError(
                f"map() needs an idle processor; {self.in_flight} frame(s) "
                "still in flight"
            )
        parked: dict[int, StreamResult | FrameFailure] = {}
        for frame in frames:
            while self.in_flight >= self.slots:
                outcome = self._next_delivery(timeout)
                parked[outcome.index] = outcome
            self.submit(frame, timeout=timeout)
            yield from self._in_order(parked)
        yield from self._ordered(parked, timeout)

    def drain(self, timeout: float | None = None) -> int:
        """Sweep recovery until every ring slot is free; returns the count.

        Call after consuming all results: delivered frames whose stale
        attempts had not reported yet leave zombie-quarantined slots
        behind, and those only return to the free list through
        supervision sweeps.  ``timeout`` bounds the wait (zombies expire
        after the policy's ``reclaim_grace_seconds`` at the latest);
        ``0`` runs one non-blocking step.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._ring.free_slots < self.slots:
            if not self._wait_step(deadline):
                break
        return self._ring.free_slots

    # -- observability ----------------------------------------------------

    def metrics_snapshot(self) -> dict | None:
        """Aggregated metrics: driver registry + latest worker snapshots.

        Worker snapshots are cumulative per worker process, so only the
        latest one per PID is merged; counters and histograms add across
        workers and gauges keep the maximum (every gauge the pipeline
        emits is a high-water mark).  The recovery counters ride in the
        driver registry.  Returns ``None``
        when the processor runs unprobed.
        """
        if self.probe is None:
            return None
        merged = MetricsRegistry()
        merged.merge_snapshot(self.probe.registry.snapshot())
        for snap in self._worker_snapshots.values():
            merged.merge_snapshot(snap)
        return merged.snapshot()

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Stop the workers and free the shared-memory ring.

        Order is load-bearing: stopping the workers first guarantees no
        process still maps the ring when it is unlinked (the exit-time
        ``/dev/shm`` leak fixed here is pinned by a subprocess test).
        """
        if self._closed:
            return
        self._closed = True
        _LIVE.discard(self)
        self._workers.close()
        self._ring.close()

    def __enter__(self) -> "StreamingProcessor":
        """Context-manager entry."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Close on scope exit."""
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass


def stream_frames(
    spec: EngineSpec,
    frames: Iterable[np.ndarray],
    *,
    workers: int | None = None,
    slots: int | None = None,
    probe: Probe | None = None,
    supervision: SupervisionPolicy | None = None,
) -> list[StreamResult | FrameFailure]:
    """One-shot convenience: stream ``frames`` and return ordered results."""
    with StreamingProcessor(
        spec,
        workers=workers,
        slots=slots,
        probe=probe,
        supervision=supervision,
    ) as proc:
        return list(proc.map(frames))
