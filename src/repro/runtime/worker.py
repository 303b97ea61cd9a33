"""Worker-process side of the streaming runtime.

A streaming pool's workers are initialised exactly once with the ring spec
and a pickled :class:`~repro.spec.EngineSpec`.  The first frame a worker
processes builds the engine (config + kernel) and caches it in the
process-global :data:`_ENGINES` table keyed by the spec blob — engines are
*constructed* per worker, not *pickled* per frame, and every later frame
with the same key reuses the cached instance.  A :class:`FrameTask` may
carry its own ``spec_blob`` override (the serving gateway's multi-tenant
path), so the table is a bounded LRU (``REPRO_WORKER_ENGINE_CACHE``,
default 8): under many distinct tenant specs the cold tenants' engines
are evicted and rebuilt on demand instead of growing worker memory
without limit.  Per frame, only a tiny :class:`FrameTask` travels to the
worker and a :class:`FrameResult` (slot index + stats scalars + optional
metrics snapshot) travels back; the pixel planes stay in the
shared-memory ring.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field

import numpy as np

from ..core.window.base import SlidingWindowEngine
from ..resilience.chaos import apply_worker_chaos
from ..spec import EngineSpec as _EngineSpec
from .ring import FrameRing, RingSpec


@dataclass(frozen=True, slots=True)
class FrameTask:
    """One unit of work: which frame, which ring slot (no pixels).

    ``attempt`` counts resubmissions of the same frame by the supervision
    layer (0 for the first try); it rides back on the result so the
    driver can tell a retry's completion from a stale duplicate.

    ``spec_blob`` overrides the pool-wide engine spec for this one frame
    (the multi-tenant serving path: many specs multiplexed onto one
    ring).  ``None`` — the single-spec streaming default — runs the spec
    the pool was initialised with.  An override must describe the same
    frame geometry as the ring; the driver validates that before
    dispatch.
    """

    index: int
    slot: int
    attempt: int = 0
    spec_blob: bytes | None = None


@dataclass(frozen=True, slots=True)
class FrameResult:
    """One completed frame: slot index plus the engine's stats payload."""

    index: int
    slot: int
    #: ``EngineStats`` fields as a plain dict (small; crosses the queue).
    #: Waived: built fresh worker-side per result and never shared after
    #: pickling, so the copy each side holds is effectively immutable.
    # reprolint: disable=REP008
    stats: dict = field(default_factory=dict)
    #: Worker-side wall-clock seconds spent in ``engine.run``.
    seconds: float = 0.0
    #: PID of the worker that processed the frame.
    worker_pid: int = 0
    #: Cumulative metrics snapshot of the worker's engine probe
    #: (``None`` unless the spec asked for a probe).  Waived: a one-way
    #: snapshot dict, serialised once and read-only on the driver side.
    # reprolint: disable=REP008
    metrics: dict | None = None
    #: Which submission attempt produced this result (see ``FrameTask``).
    attempt: int = 0
    #: True when the driver computed the frame inline (degraded path).
    degraded: bool = False


@dataclass(frozen=True, slots=True)
class FrameError:
    """One *failed* frame attempt, shipped back as data, never raised.

    Raising inside a pool task reaches ``error_callback`` stripped of any
    task identity, which is useless for recovery.  The worker loop
    instead catches everything and returns this structured record, so
    the driver knows exactly which frame and attempt failed and can
    retry, degrade or quarantine it.
    """

    index: int
    slot: int
    attempt: int
    #: ``repr()`` of the exception that killed the attempt.
    error: str
    #: Exception class name (``ChaosError`` marks injected faults).
    kind: str
    worker_pid: int = 0


#: Per-process engine cache: spec blob -> (engine, decoded spec).
#: Insertion order is recency order (LRU) — see :func:`_engine`.
_ENGINES: "OrderedDict[bytes, tuple[SlidingWindowEngine, _EngineSpec]]" = (
    OrderedDict()
)
#: Per-process attached ring (set by :func:`initialize_worker`).
_RING: FrameRing | None = None
#: Per-process engine spec blob (set by :func:`initialize_worker`).
_SPEC_BLOB: bytes | None = None

#: Default bound of the per-worker engine cache.  Under many distinct
#: tenant specs (the serving gateway's per-task overrides) an unbounded
#: table would pin one engine per spec a worker has ever seen; eight
#: covers the hot tenants while keeping worker memory flat.
DEFAULT_ENGINE_CACHE_LIMIT = 8


def engine_cache_limit() -> int:
    """Max engines a worker caches (``REPRO_WORKER_ENGINE_CACHE``)."""
    env = os.environ.get("REPRO_WORKER_ENGINE_CACHE")
    if env is None:
        return DEFAULT_ENGINE_CACHE_LIMIT
    try:
        value = int(env)
    except ValueError as exc:
        raise RuntimeError(
            f"REPRO_WORKER_ENGINE_CACHE must be an int, got {env!r}"
        ) from exc
    if value < 1:
        raise RuntimeError(
            f"REPRO_WORKER_ENGINE_CACHE must be >= 1, got {value}"
        )
    return value


def initialize_worker(ring_spec: RingSpec, spec_blob: bytes) -> None:
    """Pool initializer: attach the ring, remember the engine spec."""
    global _RING, _SPEC_BLOB
    _RING = FrameRing.attach(ring_spec)
    _SPEC_BLOB = spec_blob


def cached_engine_count() -> int:
    """Number of engines this process currently caches (test hook)."""
    return len(_ENGINES)


def _engine(blob: bytes) -> tuple[SlidingWindowEngine, _EngineSpec]:
    """The cached engine for ``blob``, constructing (and evicting) LRU-wise.

    Eviction is safe for correctness: an engine rebuilt from the same
    blob is bit-identical to the evicted one (the spec fully determines
    the engine and engines hold no cross-frame state between ``run``
    calls) — eviction only re-pays construction cost.
    """
    cached = _ENGINES.get(blob)
    if cached is None:
        spec: _EngineSpec = pickle.loads(blob)
        cached = (spec.build(), spec)
        _ENGINES[blob] = cached
        limit = engine_cache_limit()
        while len(_ENGINES) > limit:
            _ENGINES.popitem(last=False)
    else:
        _ENGINES.move_to_end(blob)
    return cached


def process_slot(task: FrameTask) -> FrameResult | FrameError:
    """Run the cached engine over ``task``'s ring slot, in place.

    Reads the input frame from the slot's shared-memory plane, writes the
    valid-region outputs back into the slot's output plane and returns
    only the stats payload (plus the worker's cumulative metrics snapshot
    when the spec asked for a probe — the driver aggregates the latest
    snapshot per worker PID, so cumulative is the right shape to ship).

    Failures never raise across the pool: any exception (including
    injected :class:`~repro.errors.ChaosError` faults) comes back as a
    :class:`FrameError` carrying the frame identity, so the driver's
    supervision layer can react per frame.  A chaos SIGKILL, of course,
    returns nothing at all — that is the fault class the supervisor's
    worker-death detection exists for.
    """
    if _RING is None:
        raise RuntimeError("worker used before initialize_worker ran")
    try:
        blob = task.spec_blob if task.spec_blob is not None else _SPEC_BLOB
        if blob is None:
            raise RuntimeError("worker used before initialize_worker ran")
        engine, spec = _engine(blob)
        apply_worker_chaos(spec.chaos, task.index, task.attempt)
        frame = np.asarray(_RING.input_view(task.slot))
        t0 = time.perf_counter()
        run = engine.run(frame)
        seconds = time.perf_counter() - t0
        out = _RING.output_view(task.slot)
        out[...] = run.outputs
        return FrameResult(
            index=task.index,
            slot=task.slot,
            stats=asdict(run.stats),
            seconds=seconds,
            worker_pid=os.getpid(),
            metrics=run.metrics,
            attempt=task.attempt,
        )
    except Exception as exc:
        return FrameError(
            index=task.index,
            slot=task.slot,
            attempt=task.attempt,
            error=repr(exc),
            kind=type(exc).__name__,
            worker_pid=os.getpid(),
        )
