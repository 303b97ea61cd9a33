"""Frame supervision: deadlines, retries, reclamation, degradation.

A streaming worker can die mid-frame (its in-hand frame never reports and
its ring slot is orphaned), raise, or have its result lost on the way
back.  This module is the recovery brain every
:class:`~repro.runtime.streaming.StreamingProcessor` runs under, so that
none of those faults turns into a hang or a starved ring.  It is
deliberately *pure state machine*: the supervisor never touches the pool,
the ring or the clock on its own — the processor feeds it events and
timestamps and executes the :func:`FrameSupervisor.actions` it emits, so
every recovery decision is unit-testable without spawning a process.

The recovery ladder, in order of escalation:

1. **Retry in place** — a lost frame's pixels are still in its ring
   slot, so a retry is one task sent to a worker away.  Retries back off
   exponentially (capped) and are bounded by ``max_attempts``.
2. **Pool respawn** — when the worker set itself breaks (sending a task
   raises), every worker is torn down and lazily re-forked; every
   in-flight frame is rescheduled.  A single worker's death needs no
   respawn of the rest: the driver re-forks that worker and reports the
   frames it held (:meth:`FrameSupervisor.on_worker_death`).
3. **Inline degradation** — a frame out of pool attempts (or a stream
   whose pool is unrecoverable) is computed by the driver itself with a
   chaos-free engine; callers still get a bit-identical answer, just
   without parallelism.
4. **Quarantine** — with inline degradation disabled, a repeatedly
   failing (poison) frame is delivered as a structured
   :class:`FrameFailure` instead of hanging or crashing the stream.

A frame that overflows its memory plan skips the ladder: the overflow
is a property of the frame and the plan, not of the worker, so its first
report quarantines it with reason ``"capacity"``
(:meth:`FrameSupervisor.on_capacity`) — no retry, no inline run.

Execution is at-least-once, delivery is exactly-once: a retried frame's
original attempt may still complete, so completions carry their attempt
and the supervisor drops stale duplicates.  Duplicate *computation* is
harmless by construction — both attempts read the same input pixels and
write byte-identical output, the paper model being deterministic.

Slot reclamation: a delivered frame whose stale attempts may still
report keeps its slot quarantined as a *zombie* until every outstanding
attempt has reported, died with its worker, or ``reclaim_grace_seconds``
passes (an attempt that stalls past its deadline may never report).  The grace period must exceed the worst-case
frame compute time — reclaiming while a live stale attempt is still
writing would hand a contended slot to a new frame.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..errors import ConfigError
from ..observability.probe import Probe

#: Reasons a frame can be quarantined (``FrameFailure.reason``).
FAILURE_REASONS: tuple[str, ...] = ("poison", "pool-unrecoverable", "capacity")


@dataclass(frozen=True, slots=True)
class SupervisionPolicy:
    """The recovery knobs of one stream.

    Parameters
    ----------
    deadline_seconds:
        Per-attempt deadline.  ``None`` (the default) disables deadline
        sweeps — worker death is still seen on the process sentinel, but
        silently dropped results are not.  Set it when results can be
        lost without a corpse (chaos ``drop`` faults, flaky transport).
    max_attempts:
        Total pool attempts per frame (first submission included) before
        the frame escalates to inline degradation / quarantine.
    backoff_base_seconds, backoff_factor, backoff_max_seconds:
        Capped exponential backoff between pool attempts of one frame.
    degrade_inline:
        Whether a frame out of pool attempts is computed inline by the
        driver (``True``, the always-answer default) or quarantined as a
        :class:`FrameFailure` (``False``).
    poll_interval_seconds:
        How often a waiting driver wakes to sweep deadlines and run due
        recovery actions (worker replies and deaths wake it at once).
    reclaim_grace_seconds:
        How long a delivered frame's slot stays zombie-quarantined
        waiting for stale attempts that may never report.
    max_pool_respawns:
        How often a structurally broken pool is re-forked before the
        stream degrades to inline-only (``0``: degrade at once).
    """

    deadline_seconds: float | None = None
    max_attempts: int = 3
    backoff_base_seconds: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 1.0
    degrade_inline: bool = True
    poll_interval_seconds: float = 0.05
    reclaim_grace_seconds: float = 2.0
    max_pool_respawns: int = 2

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_seconds < 0 or self.backoff_max_seconds < 0:
            raise ConfigError("backoff seconds must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1.0, got {self.backoff_factor}"
            )
        if self.poll_interval_seconds <= 0:
            raise ConfigError(
                f"poll_interval_seconds must be > 0, "
                f"got {self.poll_interval_seconds}"
            )
        if self.reclaim_grace_seconds < 0:
            raise ConfigError(
                f"reclaim_grace_seconds must be >= 0, "
                f"got {self.reclaim_grace_seconds}"
            )
        if self.max_pool_respawns < 0:
            raise ConfigError(
                f"max_pool_respawns must be >= 0, got {self.max_pool_respawns}"
            )

    def backoff(self, attempt: int) -> float:
        """Delay before pool attempt ``attempt`` (1-based retry index)."""
        exponent = max(attempt - 1, 0)
        return min(
            self.backoff_base_seconds * self.backoff_factor**exponent,
            self.backoff_max_seconds,
        )


@dataclass(frozen=True, slots=True)
class FrameFailure:
    """A frame the stream gave up on — delivered instead of a hang.

    Yielded by the result iterators in the frame's ordinal position, so
    ordered consumers stay ordered even across quarantined frames.
    """

    #: Submission index of the frame (0-based), like ``StreamResult``.
    index: int
    #: Pool attempts consumed before giving up.
    attempts: int
    #: Why the frame was quarantined (see :data:`FAILURE_REASONS`).
    reason: str
    #: ``repr()`` of the last worker-side exception, when there was one;
    #: under reason ``"capacity"``, the engine's
    #: :class:`~repro.errors.CapacityError` message.
    error: str = ""


@dataclass(slots=True)
class SupervisorStats:
    """Recovery event counters of one stream (all cumulative)."""

    worker_deaths: int = 0
    retries: int = 0
    degraded: int = 0
    quarantined: int = 0
    slots_reclaimed: int = 0
    pool_respawns: int = 0
    results_dropped: int = 0
    recoveries: int = 0
    recovery_seconds_total: float = 0.0
    recovery_seconds_max: float = 0.0

    @property
    def recovery_seconds_mean(self) -> float:
        """Mean loss-to-redelivery latency (0 when nothing was lost)."""
        if self.recoveries == 0:
            return 0.0
        return self.recovery_seconds_total / self.recoveries


# -- recovery actions (executed by the StreamingProcessor) ----------------


@dataclass(frozen=True, slots=True)
class RetryAction:
    """Resubmit ``index`` into its existing slot as pool attempt ``attempt``."""

    index: int
    slot: int
    attempt: int


@dataclass(frozen=True, slots=True)
class DegradeAction:
    """Compute ``index`` inline in the driver (out of pool attempts)."""

    index: int
    slot: int
    reason: str


@dataclass(frozen=True, slots=True)
class QuarantineAction:
    """Deliver ``index`` as a :class:`FrameFailure`."""

    index: int
    slot: int
    reason: str
    error: str
    attempts: int


@dataclass(frozen=True, slots=True)
class ReclaimAction:
    """Return an orphaned zombie ``slot`` to the ring's free list."""

    slot: int


SupervisionAction = RetryAction | DegradeAction | QuarantineAction | ReclaimAction


@dataclass(frozen=True, slots=True)
class ResultVerdict:
    """The supervisor's ruling on one arrived completion."""

    #: True: hand the result to the consumer.  False: stale duplicate.
    deliver: bool
    #: Slot to release right now (``None``: nothing to release yet).
    release_slot: int | None = None
    #: Loss-to-redelivery seconds when this delivery recovered a loss.
    recovery_seconds: float | None = None
    #: Pool attempts consumed by the frame (1-based; 0 for unknown frames).
    attempts: int = 0


@dataclass(slots=True)
class _Tracked:
    """Driver-side record of one in-flight frame."""

    index: int
    slot: int
    attempt: int = 0
    outstanding: int = 1
    deadline_at: float | None = None
    next_retry_at: float | None = None
    lost_at: float | None = None
    exhausted: bool = False
    #: True once a Degrade/Quarantine action went out — the frame's fate
    #: is sealed and no sweep may schedule further recovery for it.
    escalated: bool = False
    last_error: str = ""


@dataclass(slots=True)
class _Zombie:
    """A delivered frame's slot still awaiting stale attempt reports."""

    slot: int
    outstanding: int
    reclaim_at: float


#: ``FrameResult.attempt`` value marking a driver-side inline computation
#: (never a pool task, so it does not consume an ``outstanding`` report).
INLINE_ATTEMPT: int = -1


class FrameSupervisor:
    """Pure recovery state machine for one stream.

    The driver is the only caller and the only clock source — every
    method takes ``now`` explicitly so deterministic tests can replay
    exact schedules.  Recovery counters are mirrored into ``stats`` and,
    when a probe is attached, into its metrics registry.
    """

    def __init__(
        self, policy: SupervisionPolicy, *, probe: Probe | None = None
    ) -> None:
        self.policy = policy
        self.stats = SupervisorStats()
        self._probe = probe
        self._tracked: dict[int, _Tracked] = {}
        self._zombies: dict[int, _Zombie] = {}
        self._pool_usable = True

    # -- introspection -----------------------------------------------------

    @property
    def tracked_count(self) -> int:
        """Frames currently awaiting delivery."""
        return len(self._tracked)

    @property
    def zombie_count(self) -> int:
        """Delivered frames whose slots are still zombie-quarantined."""
        return len(self._zombies)

    @property
    def pool_usable(self) -> bool:
        """False once the pool is past rescue — everything runs inline."""
        return self._pool_usable

    def attempts(self, index: int) -> int:
        """Pool attempts ``index`` has consumed (0 once it is not tracked)."""
        frame = self._tracked.get(index)
        return 0 if frame is None else frame.attempt + 1

    # -- event intake ------------------------------------------------------

    def track(
        self,
        index: int,
        slot: int,
        now: float | None = None,
        *,
        pooled: bool = True,
    ) -> None:
        """Register a newly submitted frame (attempt 0 just went in flight).

        ``pooled=False`` marks a frame the driver will compute inline
        itself (pool already unusable at submit time) — no pool attempt
        will ever report for it, so none is counted outstanding.
        """
        now = time.monotonic() if now is None else now
        self._tracked[index] = _Tracked(
            index=index,
            slot=slot,
            outstanding=1 if pooled else 0,
            deadline_at=self._deadline_from(now),
        )

    def untrack(self, index: int) -> None:
        """Forget a frame whose submission failed before it went in flight."""
        self._tracked.pop(index, None)

    def on_result(
        self, index: int, attempt: int, now: float | None = None
    ) -> ResultVerdict:
        """Rule on an arrived completion: deliver it or drop a duplicate."""
        now = time.monotonic() if now is None else now
        frame = self._tracked.get(index)
        if frame is None:
            # Stale report for an already-delivered (or quarantined)
            # frame: account for it against its zombie slot, if any.
            return ResultVerdict(
                deliver=False, release_slot=self._zombie_report(index)
            )
        if attempt != INLINE_ATTEMPT:
            frame.outstanding -= 1
        recovery = None
        # A recovery is a frame that was presumed lost *and* had to be
        # re-executed (retry or inline) to deliver — a frame whose
        # original attempt raced in after a precautionary retry was
        # scheduled never actually needed recovering.
        if frame.lost_at is not None and (
            frame.attempt > 0 or attempt == INLINE_ATTEMPT
        ):
            recovery = now - frame.lost_at
            self.stats.recoveries += 1
            self.stats.recovery_seconds_total += recovery
            self.stats.recovery_seconds_max = max(
                self.stats.recovery_seconds_max, recovery
            )
            if self._probe is not None:
                self._probe.observe("repro_recovery_seconds", recovery)
        del self._tracked[index]
        return ResultVerdict(
            deliver=True,
            release_slot=self._retire_slot(frame, now),
            recovery_seconds=recovery,
            attempts=frame.attempt + 1,
        )

    def on_error(
        self, index: int, attempt: int, error: str, now: float | None = None
    ) -> int | None:
        """Record a failed attempt; returns a slot to release, if any.

        A tracked frame schedules its next recovery step (retry with
        backoff, or escalation once attempts are exhausted).  A stale
        error for a delivered frame just settles zombie accounting.
        """
        now = time.monotonic() if now is None else now
        frame = self._tracked.get(index)
        if frame is None:
            return self._zombie_report(index)
        if attempt != INLINE_ATTEMPT:
            frame.outstanding -= 1
        frame.last_error = error
        if frame.escalated:
            # Fate already sealed (inline result in flight / quarantined):
            # this was a stale attempt's failure — accounting only.
            return None
        if frame.lost_at is None:
            frame.lost_at = now
        if frame.attempt + 1 >= self.policy.max_attempts:
            frame.exhausted = True
            frame.next_retry_at = now
        else:
            frame.next_retry_at = now + self.policy.backoff(frame.attempt + 1)
        return None

    def on_capacity(
        self, index: int, attempt: int, error: str
    ) -> QuarantineAction | ReclaimAction | None:
        """Rule on an attempt whose frame overflowed its memory plan: a
        tracked frame is quarantined at once, a stale attempt's report
        settles its zombie slot (a reclaim once that frees it)."""
        frame = self._tracked.get(index)
        if frame is None:
            slot = self._zombie_report(index)
            return None if slot is None else ReclaimAction(slot=slot)
        if attempt != INLINE_ATTEMPT:
            frame.outstanding -= 1
        if frame.escalated:
            return None
        frame.escalated = True
        frame.next_retry_at = None
        frame.deadline_at = None
        return QuarantineAction(
            index=index,
            slot=frame.slot,
            reason="capacity",
            error=error,
            attempts=frame.attempt + 1,
        )

    def on_dropped(self, index: int) -> int | None:
        """Account a chaos-dropped result; returns a slot to release, if any.

        The driver dropped the completion on purpose, so it settles the
        attempt's ``outstanding`` bookkeeping here — but the *frame* stays
        undelivered, and only a deadline sweep will notice (chaos drops
        require ``deadline_seconds`` to be recoverable).
        """
        self.stats.results_dropped += 1
        if self._probe is not None:
            self._probe.count("repro_results_dropped_total")
        frame = self._tracked.get(index)
        if frame is None:
            return self._zombie_report(index)
        frame.outstanding -= 1
        return None

    def on_worker_death(
        self, held: Iterable[tuple[int, int]], now: float | None = None
    ) -> None:
        """React to one dead worker that held the ``(index, attempt)`` pairs.

        ``held`` is exactly what was sent to the worker and not answered,
        so only those attempts are settled (they will never report), and
        a frame is marked lost only when its *current* attempt died —
        frames on other workers, and frames whose retry is already on
        another worker, are left alone.  A delivered frame's zombie slot
        waiting on a dead attempt comes back at the next sweep.
        """
        now = time.monotonic() if now is None else now
        self.stats.worker_deaths += 1
        if self._probe is not None:
            self._probe.count("repro_worker_deaths_total")
        for index, attempt in held:
            frame = self._tracked.get(index)
            if frame is None:
                zombie = self._zombies.get(index)
                if zombie is not None:
                    zombie.outstanding -= 1
                continue
            frame.outstanding -= 1
            if attempt == frame.attempt:
                self._mark_lost(frame, now)

    def on_pool_restart(self, now: float | None = None) -> None:
        """Account a pool respawn: all outstanding pool tasks died with it."""
        now = time.monotonic() if now is None else now
        self.stats.pool_respawns += 1
        if self._probe is not None:
            self._probe.count("repro_pool_respawns_total")
        for frame in self._tracked.values():
            frame.outstanding = 0
            self._mark_lost(frame, now)
        # Zombie writers died with the pool — their slots are safe now.
        for zombie in self._zombies.values():
            zombie.outstanding = 0
            zombie.reclaim_at = now

    def on_pool_unusable(self, now: float | None = None) -> None:
        """Give up on the pool; all tracked frames escalate immediately."""
        now = time.monotonic() if now is None else now
        self._pool_usable = False
        for frame in self._tracked.values():
            frame.outstanding = 0
            if frame.escalated:
                continue
            frame.exhausted = True
            if frame.lost_at is None:
                frame.lost_at = now
            frame.next_retry_at = now
        for zombie in self._zombies.values():
            zombie.outstanding = 0
            zombie.reclaim_at = now

    def finish_failed(self, index: int, now: float | None = None) -> int | None:
        """Finalize a quarantined frame; returns a slot to release, if any."""
        now = time.monotonic() if now is None else now
        frame = self._tracked.pop(index, None)
        if frame is None:
            return None
        self.stats.quarantined += 1
        if self._probe is not None:
            self._probe.count("repro_frames_quarantined_total")
        return self._retire_slot(frame, now)

    # -- the recovery sweep ------------------------------------------------

    def actions(self, now: float | None = None) -> list[SupervisionAction]:
        """Sweep deadlines and due recoveries; emit actions to execute.

        State transitions are applied as actions are emitted (a
        :class:`RetryAction` increments the frame's attempt and
        outstanding counts), so calling this repeatedly is safe — an
        action is emitted exactly once unless the driver reports it
        rejected.
        """
        now = time.monotonic() if now is None else now
        out: list[SupervisionAction] = []
        # Deadline sweep: attempts past their deadline are presumed lost.
        if self.policy.deadline_seconds is not None:
            for frame in self._tracked.values():
                if (
                    frame.deadline_at is not None
                    and now >= frame.deadline_at
                    and frame.next_retry_at is None
                ):
                    self._mark_lost(frame, now)
        # Due recoveries: retry, or escalate when out of attempts.
        for frame in list(self._tracked.values()):
            if frame.next_retry_at is None or now < frame.next_retry_at:
                continue
            if frame.exhausted or not self._pool_usable:
                frame.next_retry_at = None
                frame.deadline_at = None
                frame.escalated = True
                reason = (
                    "poison" if self._pool_usable else "pool-unrecoverable"
                )
                if self.policy.degrade_inline:
                    out.append(
                        DegradeAction(
                            index=frame.index, slot=frame.slot, reason=reason
                        )
                    )
                else:
                    out.append(
                        QuarantineAction(
                            index=frame.index,
                            slot=frame.slot,
                            reason=reason,
                            error=frame.last_error,
                            attempts=frame.attempt + 1,
                        )
                    )
                continue
            frame.attempt += 1
            frame.outstanding += 1
            frame.next_retry_at = None
            frame.deadline_at = self._deadline_from(now)
            self.stats.retries += 1
            if self._probe is not None:
                self._probe.count("repro_frames_retried_total")
            out.append(
                RetryAction(
                    index=frame.index, slot=frame.slot, attempt=frame.attempt
                )
            )
        # Zombie reclamation: grace expired or all reports are in.
        for index, zombie in list(self._zombies.items()):
            if zombie.outstanding <= 0 or now >= zombie.reclaim_at:
                del self._zombies[index]
                self._count_reclaim()
                out.append(ReclaimAction(slot=zombie.slot))
        return out

    def next_wakeup(self, now: float | None = None) -> float | None:
        """Earliest time a sweep has something to do (``None``: nothing)."""
        now = time.monotonic() if now is None else now
        candidates: list[float] = []
        for frame in self._tracked.values():
            if frame.next_retry_at is not None:
                candidates.append(frame.next_retry_at)
            elif (
                self.policy.deadline_seconds is not None
                and frame.deadline_at is not None
            ):
                candidates.append(frame.deadline_at)
        candidates.extend(z.reclaim_at for z in self._zombies.values())
        return min(candidates) if candidates else None

    def count_degraded(self) -> None:
        """Account one inline-degraded frame (driver executed the run)."""
        self.stats.degraded += 1
        if self._probe is not None:
            self._probe.count("repro_frames_degraded_total")

    # -- internals ---------------------------------------------------------

    def _deadline_from(self, now: float) -> float | None:
        if self.policy.deadline_seconds is None:
            return None
        return now + self.policy.deadline_seconds

    def _mark_lost(self, frame: _Tracked, now: float) -> None:
        """Presume ``frame``'s current attempt lost; schedule recovery."""
        if frame.escalated:
            return  # fate sealed; an inline result is already on its way
        if frame.next_retry_at is not None:
            return  # recovery already scheduled
        if frame.lost_at is None:
            frame.lost_at = now
        if frame.attempt + 1 >= self.policy.max_attempts:
            frame.exhausted = True
            frame.next_retry_at = now
        else:
            frame.next_retry_at = now + self.policy.backoff(frame.attempt + 1)

    def _retire_slot(self, frame: _Tracked, now: float) -> int | None:
        """Release ``frame``'s slot now, or zombie it while reports lag."""
        if frame.outstanding <= 0:
            return frame.slot
        self._zombies[frame.index] = _Zombie(
            slot=frame.slot,
            outstanding=frame.outstanding,
            reclaim_at=now + self.policy.reclaim_grace_seconds,
        )
        return None

    def _zombie_report(self, index: int) -> int | None:
        """A stale attempt reported; free its zombie slot when settled."""
        zombie = self._zombies.get(index)
        if zombie is None:
            return None
        zombie.outstanding -= 1
        if zombie.outstanding > 0:
            return None
        del self._zombies[index]
        self._count_reclaim()
        return zombie.slot

    def _count_reclaim(self) -> None:
        self.stats.slots_reclaimed += 1
        if self._probe is not None:
            self._probe.count("repro_slots_reclaimed_total")
