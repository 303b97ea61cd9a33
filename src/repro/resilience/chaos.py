"""Process-level chaos: seedable fault injection for the streaming runtime.

PR 1's :class:`~repro.resilience.injector.FaultInjector` models *data*
faults — bit flips inside the stored streams, the software analogue of
BRAM soft errors.  This module models *process* faults, the failure class
a network-facing pipeline actually dies of: a worker process SIGKILLed
mid-frame, an exception thrown inside a worker, a result delayed past its
deadline, or a result dropped on the floor between worker and driver.

A :class:`ChaosSpec` is a frozen, picklable description of which frame
indexes suffer which fault.  It travels to the workers inside the
:class:`~repro.spec.EngineSpec` blob; :func:`apply_worker_chaos` is
called by the worker loop before the engine runs.  Each fault is scoped
by *attempt count* so recovery paths stay testable: a ``kill`` that fires
only on attempt 0 proves the retry delivers, while a ``raise`` that fires
on every attempt (``raise_always``) exercises the poison-frame ladder.

``drop`` is driver-side by construction — a completed result discarded
before the consumer sees it — because a worker cannot "not return"
without dying or blocking a pool slot forever.

Everything is deterministic: :meth:`ChaosSpec.sample` derives the fault
assignment from a seed, so a chaos campaign (``repro bench chaos``,
``benchmarks/bench_suites.py``) is exactly reproducible.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

import numpy as np

from ..errors import ChaosError, ConfigError

#: Fault kinds a :class:`ChaosSpec` can assign to a frame.
CHAOS_FAULTS: tuple[str, ...] = ("kill", "raise", "delay", "drop", "poison")


@dataclass(frozen=True, slots=True)
class ChaosSpec:
    """Deterministic per-frame fault assignment for one streamed run.

    Parameters
    ----------
    kill_on:
        Frame indexes whose worker SIGKILLs itself before processing
        (first ``kill_attempts`` attempts only — the retry survives).
    raise_on:
        Frame indexes whose worker raises :class:`ChaosError` (first
        ``raise_attempts`` attempts only).
    raise_always_on:
        Poison frames: the worker raises on *every* attempt, so only the
        degradation ladder (inline run or quarantine) can deliver them.
    delay_on:
        Frame indexes whose worker sleeps ``delay_seconds`` before
        processing (first ``delay_attempts`` attempts only) — pushes the
        frame past a supervision deadline, then completes anyway to
        exercise duplicate suppression.
    drop_on:
        Frame indexes whose *first completed result* the driver discards
        (driver-side fault; the worker is innocent).
    """

    kill_on: tuple[int, ...] = ()
    raise_on: tuple[int, ...] = ()
    raise_always_on: tuple[int, ...] = ()
    delay_on: tuple[int, ...] = ()
    drop_on: tuple[int, ...] = ()
    delay_seconds: float = 0.5
    kill_attempts: int = 1
    raise_attempts: int = 1
    delay_attempts: int = 1

    def __post_init__(self) -> None:
        if self.delay_seconds < 0:
            raise ConfigError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )
        for name in ("kill_attempts", "raise_attempts", "delay_attempts"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        for name in (
            "kill_on",
            "raise_on",
            "raise_always_on",
            "delay_on",
            "drop_on",
        ):
            if any(i < 0 for i in getattr(self, name)):
                raise ConfigError(f"{name} holds a negative frame index")

    # -- queries (worker + driver side) -----------------------------------

    def wants_kill(self, index: int, attempt: int) -> bool:
        """True when attempt ``attempt`` of frame ``index`` must die."""
        return index in self.kill_on and attempt < self.kill_attempts

    def wants_raise(self, index: int, attempt: int) -> bool:
        """True when the worker must raise for this attempt."""
        if index in self.raise_always_on:
            return True
        return index in self.raise_on and attempt < self.raise_attempts

    def wants_delay(self, index: int, attempt: int) -> bool:
        """True when the worker must sleep before this attempt."""
        return index in self.delay_on and attempt < self.delay_attempts

    @property
    def fault_counts(self) -> dict[str, int]:
        """How many frames carry each fault kind (reporting helper)."""
        return {
            "kill": len(self.kill_on),
            "raise": len(self.raise_on),
            "delay": len(self.delay_on),
            "drop": len(self.drop_on),
            "poison": len(self.raise_always_on),
        }

    @property
    def any_faults(self) -> bool:
        """True when at least one frame carries a fault."""
        return any(self.fault_counts.values())

    # -- construction ------------------------------------------------------

    @classmethod
    def sample(
        cls,
        frames: int,
        *,
        seed: int = 0,
        kill_rate: float = 0.0,
        raise_rate: float = 0.0,
        delay_rate: float = 0.0,
        drop_rate: float = 0.0,
        poison_rate: float = 0.0,
        delay_seconds: float = 0.5,
        ensure_each: bool = True,
    ) -> "ChaosSpec":
        """Deterministically assign at most one fault per frame.

        Each frame draws one uniform variate from a generator seeded with
        ``seed`` and falls into the first matching band of the cumulative
        rate ladder (kill, raise, delay, drop, poison), so fault mixes
        are analyzable — no frame is both killed and delayed.  With
        ``ensure_each`` (the default) every fault kind with a non-zero
        rate is guaranteed at least one frame, claiming the first
        fault-free frames in order; a chaos campaign that asks for kills
        always gets at least one kill.
        """
        if frames < 1:
            raise ConfigError(f"frames must be >= 1, got {frames}")
        rates = (kill_rate, raise_rate, delay_rate, drop_rate, poison_rate)
        if any(r < 0 for r in rates):
            raise ConfigError(f"fault rates must be >= 0, got {rates}")
        if sum(rates) > 1.0:
            raise ConfigError(
                f"fault rates must sum to <= 1.0, got {sum(rates):g}"
            )
        rng = np.random.default_rng(seed)
        draws = rng.random(frames)
        assigned: dict[str, list[int]] = {name: [] for name in CHAOS_FAULTS}
        for index, u in enumerate(draws):
            edge = 0.0
            for name, rate in zip(CHAOS_FAULTS, rates):
                edge += rate
                if u < edge:
                    assigned[name].append(index)
                    break
        if ensure_each:
            taken = {i for hits in assigned.values() for i in hits}
            free = (i for i in range(frames) if i not in taken)
            for name, rate in zip(CHAOS_FAULTS, rates):
                if rate > 0.0 and not assigned[name]:
                    index = next(free, None)
                    if index is not None:
                        assigned[name].append(index)
        return cls(
            kill_on=tuple(assigned["kill"]),
            raise_on=tuple(assigned["raise"]),
            raise_always_on=tuple(assigned["poison"]),
            delay_on=tuple(assigned["delay"]),
            drop_on=tuple(assigned["drop"]),
            delay_seconds=delay_seconds,
        )


def apply_worker_chaos(chaos: ChaosSpec | None, index: int, attempt: int) -> None:
    """Execute the worker-side fault (if any) for one frame attempt.

    Called by the worker loop before the engine runs: SIGKILL is
    immediate and unconditional (the process never returns), a raise
    surfaces as a structured worker failure, and a delay just sleeps —
    the frame then completes normally, late.
    """
    if chaos is None:
        return
    if chaos.wants_kill(index, attempt):
        os.kill(os.getpid(), signal.SIGKILL)
    if chaos.wants_raise(index, attempt):
        raise ChaosError(
            f"chaos: injected worker failure for frame {index} "
            f"(attempt {attempt})"
        )
    if chaos.wants_delay(index, attempt):
        time.sleep(chaos.delay_seconds)
