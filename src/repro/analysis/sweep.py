"""Parallel parameter sweeps.

Experiment sweeps (10 images x 5 windows x 4 thresholds at 2048 x 2048)
are embarrassingly parallel over images.  ``run_parallel`` distributes a
picklable function over a list of work items, falling back to an
in-process map for one worker (or tiny item counts, where pool overhead
would dominate — the guides' "profile before optimising" rule applied to
parallelism).

The parallel path runs on the process-wide persistent pools of
:mod:`repro.runtime.pool`: the first sweep stage forks the workers, every
later stage with the same worker count reuses them, and the start method
is ``fork`` where available with the platform default elsewhere (macOS /
Windows ``spawn`` defaults) instead of a hard-coded ``fork``.
"""

from __future__ import annotations

from math import ceil
from typing import Callable, Iterable, Sequence, TypeVar

from ..errors import ConfigError
from ..runtime.pool import default_workers, preferred_context, shared_pool

__all__ = [
    "CHUNKS_PER_WORKER",
    "auto_chunksize",
    "default_workers",
    "preferred_context",
    "run_parallel",
]

T = TypeVar("T")
R = TypeVar("R")

#: Target chunks handed to each worker by :func:`auto_chunksize`.  More
#: than one chunk per worker keeps the pool load-balanced when item
#: runtimes vary; four bounds the per-item IPC overhead to ~once per
#: quarter of a worker's share.
CHUNKS_PER_WORKER = 4


def auto_chunksize(n_items: int, processes: int) -> int:
    """Pool chunk size: ``len(work) / processes`` split into a few chunks.

    A chunk size of 1 round-trips every item through a worker pipe
    individually, which thrashes the pool on large
    sweeps (one pickle + wakeup per 2048 x 2048 frame config).  Sizing
    chunks so each worker receives :data:`CHUNKS_PER_WORKER` of them
    amortises the IPC while still rebalancing work a few times per sweep.
    """
    if n_items < 1 or processes < 1:
        return 1
    return max(1, ceil(n_items / (processes * CHUNKS_PER_WORKER)))


def run_parallel(
    fn: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    *,
    processes: int | None = None,
    chunksize: int | None = None,
) -> list[R]:
    """Map ``fn`` over ``items``, preserving order.

    ``processes=None`` auto-sizes; ``processes=1`` (or fewer than two
    items) runs inline, which keeps tracebacks readable and avoids pool
    cost for small sweeps.  ``chunksize=None`` auto-sizes via
    :func:`auto_chunksize`; pass an explicit value to override.  ``fn``
    and items must be picklable in the parallel path.

    Parallel calls share one long-lived pool per worker count (see
    :func:`repro.runtime.pool.shared_pool`), so a multi-stage sweep forks
    its workers once instead of once per stage.
    """
    work = list(items)
    n = default_workers() if processes is None else processes
    if n < 1:
        raise ConfigError(f"processes must be >= 1, got {n}")
    if n == 1 or len(work) < 2:
        return [fn(item) for item in work]
    n = min(n, len(work))
    if chunksize is None:
        chunksize = auto_chunksize(len(work), n)
    return shared_pool(n).map(fn, work, chunksize=max(1, chunksize))
