"""Bounded streaming front-end: submit frames, iterate results.

:class:`StreamingProcessor` wires the pieces of the runtime together into
the multi-frame pipeline the paper's hardware would be fed with: a
persistent worker pool (engines constructed once per worker, never pickled
per frame), a shared-memory :class:`~repro.runtime.ring.FrameRing` as the
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

Single-worker streams still run through the pool so that the semantics
(ordering, backpressure, stats) are identical at every worker count.

Fault tolerance: every stream runs under a
:class:`~repro.runtime.supervision.FrameSupervisor` — the driver tracks
each in-flight frame, polls worker liveness, and when a worker dies (or a
per-frame deadline expires) retries the frame in place, reclaims orphaned
ring slots, respawns a broken pool, and as a last resort computes the
frame inline with a chaos-free engine, so ``results()`` never hangs on a
completion that cannot come.  Frames that keep failing are delivered as
structured :class:`~repro.runtime.supervision.FrameFailure` values when
inline degradation is disabled.  Every wait — a blocked ``submit``, a
result iterator, :meth:`drain` — is the same supervision step repeated,
and the result iterators accept ``timeout=`` and raise
:class:`TimeoutError` instead of blocking forever.  The driver
(submission plus consumption) is single-threaded by design — pool
callbacks only ever touch the internal completion queue.

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
order matters — the pool's workers are terminated *before* the ring
unlinks its shared memory, so a process that exits with frames still in
flight cannot leak ``/dev/shm`` blocks (regression-tested in a
subprocess).
"""

from __future__ import annotations

import atexit
import os
import pickle
import queue
import time
import weakref
from collections import OrderedDict, deque
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, replace

import numpy as np

from ..core.window.base import EngineStats, SlidingWindowEngine
from ..errors import ConfigError, StateError
from ..observability.metrics import MetricsRegistry
from ..observability.probe import Probe
from ..spec import EngineSpec
from .pool import PersistentPool, default_workers, preferred_context
from .ring import FrameRing
from .supervision import (
    INLINE_ATTEMPT,
    DegradeAction,
    FrameFailure,
    FrameSupervisor,
    ReclaimAction,
    RetryAction,
    SupervisionPolicy,
    SupervisorStats,
)
from .worker import (
    FrameError,
    FrameResult,
    FrameTask,
    initialize_worker,
    process_slot,
)

#: Live processors; the atexit hook below closes any left open.
_LIVE: "weakref.WeakSet[StreamingProcessor]" = weakref.WeakSet()


def _close_live_processors() -> None:
    """Interpreter-exit hook: close every processor still open.

    Registered after :mod:`repro.runtime.pool`'s and multiprocessing's own
    atexit handlers, so LIFO ordering runs it *first* — each processor
    terminates its workers and only then unlinks its ring, while the
    worker processes are still reachable.
    """
    for proc in list(_LIVE):
        try:
            proc.close()
        except Exception:  # pragma: no cover - best-effort at interpreter exit
            pass


atexit.register(_close_live_processors)

def _ring_geometry(
    spec: EngineSpec,
) -> tuple[tuple[int, int], tuple[int, int], np.dtype]:
    """The ring layout ``spec``'s engine needs: input frame shape,
    valid-region output shape and the kernel's output dtype.

    The dtype is probed on one zero window so the ring's output plane
    preserves it exactly (ints stay ints).
    """
    config = spec.resolved_config
    n = config.window_size
    height, width = config.image_height, config.image_width
    sample = np.asarray(spec.kernel.apply(np.zeros((1, n, n), dtype=np.int64)))
    return (height, width), (height - n + 1, width - n + 1), sample.dtype


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


class StreamingProcessor:
    """Persistent-pool, shared-memory streaming executor for one engine
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
        frame_shape, out_shape, out_dtype = self._geometry
        self._ring = FrameRing(
            slots=self.slots,
            frame_shape=frame_shape,
            frame_dtype=np.int64,
            out_shape=out_shape,
            out_dtype=out_dtype,
        )
        self._pool = PersistentPool(
            self.workers,
            context=preferred_context(),
            initializer=initialize_worker,
            initargs=(self._ring.spec, spec.blob()),
        )
        self._done: queue.Queue[tuple[str, object]] = queue.Queue()
        self._pending_failures: deque[FrameFailure] = deque()
        self._inline: SlidingWindowEngine | None = None
        #: Per-frame spec-blob overrides (multi-tenant serving path);
        #: entries live exactly as long as their frame is in flight.
        self._task_specs: dict[int, bytes] = {}
        #: Inline engines for override specs (bounded LRU, degraded path).
        self._inline_overrides: "OrderedDict[bytes, SlidingWindowEngine]" = (
            OrderedDict()
        )
        self._known_pids: set[int] = set()
        self._reported_dead: set[int] = set()
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

    def check_spec_compatible(self, spec: EngineSpec) -> None:
        """Raise :class:`~repro.errors.ConfigError` unless ``spec`` can run
        on this processor's ring.

        A per-frame spec override may change anything about the engine
        (threshold, engine kind, codec, recirculation, protection) except
        the ring geometry: the input frame shape, the valid-region output
        shape and the kernel's output dtype are baked into the
        shared-memory slots at construction time.
        """
        frame_shape, out_shape, out_dtype = _ring_geometry(spec)
        ring_frame, ring_out, ring_dtype = self._geometry
        if frame_shape != ring_frame:
            raise ConfigError(
                f"spec frame shape {frame_shape} != ring {ring_frame}"
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

    def submit(
        self,
        frame: np.ndarray,
        *,
        timeout: float | None = None,
        spec: EngineSpec | None = None,
    ) -> int:
        """Queue one frame; returns its stream index.

        Writes the frame straight into a shared-memory slot (the only copy
        the pipeline makes on the way in).  Blocks while all ring slots are
        in flight; ``timeout`` bounds that wait and raises
        :class:`~repro.errors.CapacityError` on expiry.  Recovery sweeps
        keep running while blocked, so zombie slots reclaim and due
        retries dispatch even under a stalled producer.

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
        spec_blob: bytes | None = None
        if spec is not None:
            self.check_spec_compatible(spec)
            spec_blob = spec.blob()
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
            # The frame never made it in flight (e.g. the pool was torn
            # down under us): hand the slot back instead of shrinking the
            # ring until the stream deadlocks.
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
        """Run supervision steps while the ring has no free slot.

        Delivered-but-zombie slots only come back through supervision
        sweeps, and those normally run in the consumption loop — a
        producer blocked inside ``submit`` must keep sweeping itself or a
        ring full of zombies would never drain.
        """
        while self._ring.free_slots == 0:
            wait = self._supervise(deadline)
            if wait is None or self._ring.free_slots:
                return  # a free slot, or let acquire() raise CapacityError
            time.sleep(wait)

    def _dispatch(self, task: FrameTask) -> None:
        """Hand a task to the pool, degrading when the pool cannot take it.

        Never raises: a fresh frame on an unusable pool runs inline
        immediately, a retry is left for the next sweep to escalate, and
        an ``apply_async`` failure triggers the respawn/degrade ladder.
        """
        if not self._supervisor.pool_usable:
            if task.attempt == 0:
                self._run_inline(task.index, task.slot, "pool-unrecoverable")
            return
        try:
            self._pool.apply_async(
                process_slot,
                (task,),
                callback=self._on_done,
                error_callback=self._on_error,
            )
        except Exception:
            self._handle_pool_breakage()

    def _handle_pool_breakage(self) -> None:
        """The pool refused a submission: respawn it or give up on it.

        Either way every task in flight died with the old workers, so the
        supervisor zeroes their outstanding counts and reschedules all
        tracked frames — onto the fresh pool after a respawn, inline once
        the respawn budget is spent.
        """
        sup = self._supervisor
        if sup.stats.pool_respawns < sup.policy.max_pool_respawns:
            self._pool.restart()
            self._known_pids.clear()
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
        then queues a synthetic completion so delivery flows through the
        one consumption path.  An engine that raises here too leaves
        nothing to degrade to: the frame is quarantined with ``reason``
        and the error, and the supervision sweep carries on.
        """
        try:
            engine = self._inline_engine(index)
            frame = np.asarray(self._ring.input_view(slot))
            t0 = time.perf_counter()
            run = engine.run(frame)
        except Exception as exc:  # noqa: BLE001 - delivered as a FrameFailure
            self._quarantine(
                index,
                reason=reason,
                error=repr(exc),
                attempts=self._supervisor.attempts(index),
                now=time.monotonic(),
            )
            return
        seconds = time.perf_counter() - t0
        self._ring.output_view(slot)[...] = run.outputs
        self._supervisor.count_degraded()
        self._done.put(
            (
                "ok",
                FrameResult(
                    index=index,
                    slot=slot,
                    stats=asdict(run.stats),
                    seconds=seconds,
                    worker_pid=os.getpid(),
                    metrics=None,
                    attempt=INLINE_ATTEMPT,
                    degraded=True,
                ),
            )
        )

    def _on_done(self, result: FrameResult | FrameError) -> None:
        chaos = self.spec.chaos
        if (
            chaos is not None
            and isinstance(result, FrameResult)
            and result.attempt == 0
            and result.index in chaos.drop_on
        ):
            # Injected transport fault: the driver pretends the first
            # completion never arrived.  Recovery needs a deadline sweep.
            self._done.put(("dropped", result))
            return
        self._done.put(("ok", result))

    def _on_error(self, exc: BaseException) -> None:
        self._done.put(("error", exc))

    # -- supervision ------------------------------------------------------

    def _poll_worker_health(self, now: float) -> None:
        """Detect dead workers: liveness flags plus pid-set diffing.

        ``multiprocessing`` quietly respawns a SIGKILLed worker with a new
        PID, so a pid that vanished from the pool's roster since the last
        poll *was* a death even if every currently listed process looks
        alive.  Each corpse is reported to the supervisor exactly once.
        """
        if not self._pool.started:
            return
        health = self._pool.worker_health()
        current = {pid for pid, _ in health}
        dead_now = {pid for pid, alive in health if not alive}
        new_deaths = (
            (self._known_pids - current) | dead_now
        ) - self._reported_dead
        if new_deaths:
            self._reported_dead |= new_deaths
            self._supervisor.on_worker_death(len(new_deaths), now)
        self._known_pids = {pid for pid, alive in health if alive}

    def _execute_supervision(self, now: float) -> None:
        """Run one recovery sweep and execute every action it emits."""
        sup = self._supervisor
        for action in sup.actions(now):
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
        slot = self._supervisor.finish_failed(index, now)
        if slot is not None:
            self._ring.release(slot)
        self._task_specs.pop(index, None)
        self._pending_failures.append(
            FrameFailure(
                index=index, attempts=attempts, reason=reason, error=error
            )
        )

    def _supervise(self, deadline: float | None) -> float | None:
        """One wait step: poll worker health, then run a recovery sweep.

        Returns how long the caller may block before the next step —
        the poll interval, cut short by the supervisor's next due event
        and by ``deadline`` — or ``None`` once ``deadline`` has passed.
        """
        now = time.monotonic()
        if deadline is not None and now >= deadline:
            return None
        self._poll_worker_health(now)
        self._execute_supervision(now)
        wait = self.supervision.poll_interval_seconds
        wakeup = self._supervisor.next_wakeup(now)
        if wakeup is not None:
            wait = min(wait, wakeup - now)
        if deadline is not None:
            wait = min(wait, deadline - now)
        return max(wait, 0.001)

    # -- consumption ------------------------------------------------------

    def _next_delivery(
        self, timeout: float | None = None
    ) -> StreamResult | FrameFailure:
        """Block until the next deliverable outcome.

        ``timeout`` bounds this one wait and raises :class:`TimeoutError`
        on expiry.  Waiting interleaves worker health polls and recovery
        sweeps, so a killed worker turns into a retried (or
        inline-degraded) delivery instead of a hang.
        """
        sup = self._supervisor
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._pending_failures:
                failure = self._pending_failures.popleft()
                self._undelivered.discard(failure.index)
                if self.probe is not None:
                    self.probe.gauge_set("repro_queue_depth", self.in_flight)
                return failure
            wait = self._supervise(deadline)
            if wait is None:
                raise TimeoutError(f"no stream result within {timeout:g}s")
            if self._pending_failures:
                continue
            try:
                kind, payload = self._done.get(timeout=wait)
            except queue.Empty:
                continue
            if kind == "error" and isinstance(payload, BaseException):
                raise payload  # pool infrastructure failure, re-raised here
            if kind == "dropped" and isinstance(
                payload, (FrameResult, FrameError)
            ):
                slot = sup.on_dropped(payload.index)
                if slot is not None:
                    self._ring.release(slot)
                continue
            if isinstance(payload, FrameError):
                slot = sup.on_error(
                    payload.index, payload.attempt, payload.error
                )
                if slot is not None:
                    self._ring.release(slot)
                continue
            if isinstance(payload, FrameResult):
                verdict = sup.on_result(payload.index, payload.attempt)
                if not verdict.deliver:
                    if verdict.release_slot is not None:
                        self._ring.release(verdict.release_slot)
                    continue
                return self._deliver(
                    payload,
                    release_slot=verdict.release_slot,
                    attempts=verdict.attempts,
                )

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
        if release_slot is not None:
            self._ring.release(release_slot)
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
        """One non-raising consumption step (the serving bridge's driver).

        Returns the next completed outcome in completion order, or
        ``None`` when nothing is in flight or nothing completed within
        ``timeout`` seconds.  Unlike the iterators this never raises
        :class:`TimeoutError`, so an event-loop bridge can interleave
        submission and consumption without exception control flow.
        """
        if not self.in_flight:
            return None
        try:
            return self._next_delivery(max(timeout, 0.001))
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
        """Stream ``frames`` through the pool; yield ordered outcomes.

        Interleaves submission and consumption under the ring's
        backpressure: whenever every ring slot is in flight the producer
        blocks on the next completion before submitting more, so the
        pipeline never holds more than ``slots`` frames.  ``timeout``
        bounds each slot wait (:class:`~repro.errors.CapacityError`) and
        each result wait (:class:`TimeoutError`).  The processor must be
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
        after the policy's ``reclaim_grace_seconds`` at the latest).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._ring.free_slots < self.slots:
            wait = self._supervise(deadline)
            if wait is None or self._ring.free_slots >= self.slots:
                break
            time.sleep(wait)
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
        """Shut the pool down and free the shared-memory ring.

        Order is load-bearing: terminating the workers first guarantees no
        process still maps the ring when it is unlinked (the exit-time
        ``/dev/shm`` leak fixed here is pinned by a subprocess test).
        """
        if self._closed:
            return
        self._closed = True
        _LIVE.discard(self)
        self._pool.close()
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
