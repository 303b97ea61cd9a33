"""Worker processes: start-method selection, the streaming worker set and
the sweep pools.

The sweep and streaming layers used to fork a fresh ``multiprocessing.Pool``
for every call, so multi-stage experiments paid process start-up once per
sweep stage — on a 4-stage headline sweep that is most of the wall clock.
This module owns the pieces that fix it:

- :func:`preferred_context` — pick ``fork`` where the platform offers it
  (cheap start-up, inherits the parent's imports) and fall back to the
  platform default (``spawn`` on macOS/Windows) everywhere else, instead of
  hard-coding ``fork`` and crashing where it does not exist.
- :class:`WorkerSet` — the streaming runtime's workers: one process per
  worker, each on its own duplex pipe, with no shared task queue and no
  helper threads.  The driver sends each task to the least-loaded worker,
  knows which tasks every worker holds, and sees a death on the worker's
  process sentinel at once; only the dead worker is re-forked.
- :class:`PersistentPool` / :func:`shared_pool` — long-lived worker sets
  for plain ``map`` sweeps, created lazily and reused across calls.
  ``shared_pool(n)`` returns the same pool for the same worker count for
  the lifetime of the process (registered for ``atexit`` shutdown), so
  consecutive sweep stages and repeated ``run_parallel`` calls stop
  re-forking workers.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence, TypeVar

from ..errors import ConfigError, StateError

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

T = TypeVar("T")
R = TypeVar("R")


def default_workers() -> int:
    """Worker count: respects ``REPRO_WORKERS``; otherwise CPU count."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigError(f"REPRO_WORKERS must be an int, got {env!r}") from exc
        if value < 1:
            raise ConfigError(f"REPRO_WORKERS must be >= 1, got {value}")
        return value
    return os.cpu_count() or 1


def preferred_context(
    available: Sequence[str] | None = None,
) -> mp.context.BaseContext:
    """The start method the runtime uses for its worker processes.

    ``fork`` when the platform offers it (fast start-up, no re-import of the
    parent's modules), otherwise the platform default context — ``spawn`` on
    macOS (where fork is unsafe with threads) and Windows (where it does not
    exist).  ``available`` overrides the detected method list for tests.
    """
    methods = mp.get_all_start_methods() if available is None else list(available)
    if "fork" in methods:
        return mp.get_context("fork")
    return mp.get_context()


class _Worker:
    """One worker process, the driver's end of its pipe, and what it holds."""

    __slots__ = ("process", "conn", "held")

    def __init__(self, process: BaseProcess, conn: Connection) -> None:
        self.process = process
        self.conn = conn
        #: Tasks sent and not yet answered, in send order.
        self.held: list[Any] = []


def _fds(worker: _Worker) -> tuple[int, int]:
    return worker.conn.fileno(), worker.process.sentinel


class WorkerSet:
    """Worker processes, each on its own duplex pipe.

    Each worker runs ``target(conn, *args)``: a ``recv → compute → send``
    loop over its end of the pipe.  Workers start lazily on the first
    :meth:`send`.  Tasks must carry ``index`` and ``attempt`` attributes,
    and every reply must carry the ``index`` and ``attempt`` of the task
    it answers, which is how :meth:`receive` settles what a worker holds.

    There is no shared queue and no helper thread: a killed worker can
    poison nothing but its own pipe, and the owner learns of its death
    from the process sentinel in the same :meth:`receive` call that reads
    replies.  An optional *watcher* (``add(fd)`` / ``remove(fd)``, see
    :meth:`watch`) mirrors the pipe and sentinel descriptors into an
    event loop; each is removed before it is closed.
    """

    def __init__(
        self,
        processes: int,
        target: Callable[..., None],
        args: tuple[Any, ...] = (),
    ) -> None:
        if processes < 1:
            raise ConfigError(f"processes must be >= 1, got {processes}")
        self.processes = processes
        self._target = target
        self._args = args
        self._context = preferred_context()
        self._workers: list[_Worker] = []
        #: Tasks waiting for a worker to free up (see :meth:`send`).
        self._backlog: deque[Any] = deque()
        self._watcher: tuple[Callable[[int], None], Callable[[int], None]] | None = None

    @property
    def started(self) -> bool:
        """True once worker processes exist."""
        return bool(self._workers)

    def health(self) -> tuple[tuple[int, bool], ...]:
        """``(pid, alive)`` of every current worker."""
        return tuple(
            (w.process.pid, w.process.is_alive()) for w in self._workers
        )

    def fds(self) -> tuple[int, ...]:
        """Every pipe and sentinel descriptor a reply or a death shows on."""
        return tuple(fd for w in self._workers for fd in _fds(w))

    def watch(
        self,
        add: Callable[[int], None] | None,
        remove: Callable[[int], None] | None = None,
    ) -> None:
        """Mirror :meth:`fds` into a watcher (``None``: stop mirroring).

        ``add`` is called at once for every current descriptor and later
        for each re-forked worker's; ``remove`` before any descriptor is
        closed, and for all of them when the watcher is replaced.
        """
        for fd in self.fds():
            self._notify(1, fd)
        self._watcher = None if add is None or remove is None else (add, remove)
        for fd in self.fds():
            self._notify(0, fd)

    def _notify(self, which: int, fd: int) -> None:
        """Tell the watcher, if any, that ``fd`` is added (0) or going (1)."""
        if self._watcher is not None:
            self._watcher[which](fd)

    def _spawn(self) -> _Worker:
        driver_end, worker_end = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=self._target, args=(worker_end, *self._args), daemon=True
        )
        process.start()
        # The worker holds the only other end: a dead worker reads as EOF.
        worker_end.close()
        worker = _Worker(process=process, conn=driver_end)
        for fd in _fds(worker):
            self._notify(0, fd)
        return worker

    def _retire(self, worker: _Worker) -> None:
        """Stop ``worker`` and close its descriptors (watcher first)."""
        for fd in _fds(worker):
            self._notify(1, fd)
        worker.conn.close()
        # SIGKILL, not SIGTERM: a worker forked an instant ago may still
        # run the parent's signal handlers, and a worker holds nothing
        # that needs an orderly exit (the ring is the owner's to unlink).
        worker.process.kill()
        worker.process.join()
        worker.process.close()

    def send(self, task: Any) -> None:
        """Hand ``task`` to the least-loaded worker, starting them if needed.

        An idle worker takes it at once.  When every worker is busy, a
        lone worker still takes it (queued in its pipe, it starts the
        moment the current task ends), but with siblings the task waits
        in the driver, in order, for the first worker that answers — so
        it cannot be stranded behind one slow task while another worker
        sits idle.
        """
        if not self._workers:
            self._workers = [self._spawn() for _ in range(self.processes)]
        worker = None if self._backlog else self._pick()
        if worker is None:
            self._backlog.append(task)
        else:
            self._hand(worker, task)

    def _pick(self) -> _Worker | None:
        worker = min(self._workers, key=lambda w: len(w.held))
        return None if worker.held and len(self._workers) > 1 else worker

    def _hand(self, worker: _Worker, task: Any) -> None:
        """Send ``task`` down ``worker``'s pipe and record it as held.

        A pipe that breaks under the send belongs to a dying worker: it is
        killed for certain, and its death — with ``task`` among what it
        held — shows on the next :meth:`receive`.
        """
        worker.held.append(task)
        try:
            worker.conn.send(task)
        except OSError:
            worker.process.kill()
        except BaseException:
            worker.held.pop()
            raise

    def receive(self, timeout: float | None) -> tuple[list[Any], list[list[Any]]]:
        """Wait up to ``timeout`` seconds for replies or deaths.

        Returns ``(replies, lost)``: every reply that arrived, and for
        each worker that died, the tasks it held unanswered.  A dead
        worker's pipe is read to the end first, so a reply it sent before
        dying is a reply, not a loss; the worker is then re-forked.
        Tasks waiting in the driver go to the workers that freed up.
        With no workers started nothing can arrive: the call just waits.
        """
        if not self._workers:
            if timeout:
                time.sleep(timeout)
            return [], []
        from multiprocessing.connection import wait

        ready = set(wait(self.fds(), timeout))
        replies: list[Any] = []
        lost: list[list[Any]] = []
        for i, worker in enumerate(self._workers):
            dead = worker.process.sentinel in ready
            if not dead and worker.conn.fileno() not in ready:
                continue
            try:
                while worker.conn.poll():
                    replies.append(self._settle(worker, worker.conn.recv()))
            except (EOFError, OSError):
                dead = True
            if dead:
                lost.append(worker.held)
                self._retire(worker)
                self._workers[i] = self._spawn()
        while self._backlog and (worker := self._pick()) is not None:
            self._hand(worker, self._backlog.popleft())
        return replies, lost

    @staticmethod
    def _settle(worker: _Worker, reply: Any) -> Any:
        """Drop the task ``reply`` answers from what ``worker`` holds."""
        for j, task in enumerate(worker.held):
            if task.index == reply.index and task.attempt == reply.attempt:
                del worker.held[j]
                break
        return reply

    def close(self) -> None:
        """Stop every worker (idempotent); :meth:`send` re-forks them."""
        self._backlog.clear()
        workers, self._workers = self._workers, []
        for worker in workers:
            self._retire(worker)

    def restart(self) -> None:
        """Tear every worker down; held tasks are gone, the next send re-forks."""
        self.close()


@dataclass(frozen=True)
class MapChunk:
    """One chunk of a sweep :meth:`PersistentPool.map`: ``fn`` over ``items``."""

    index: int
    #: Waived: a sweep function pickles by reference, which is exactly
    #: the picklability ``run_parallel`` already asks of its callers.
    # reprolint: disable=REP008
    fn: Callable[..., Any]
    items: tuple
    attempt: int = 0


@dataclass(frozen=True)
class MapDone:
    """One answered :class:`MapChunk`: its values, or what it raised."""

    index: int
    values: tuple
    #: Waived: the worker-side exception, re-raised by the caller (a
    #: ``RuntimeError`` with its ``repr`` when it does not pickle).
    # reprolint: disable=REP008
    error: BaseException | None = None
    attempt: int = 0


def serve_map_chunks(conn: Connection) -> None:
    """A sweep worker: answer every :class:`MapChunk` on ``conn`` until EOF."""
    while True:
        try:
            chunk = conn.recv()
        except EOFError:
            return
        try:
            done = MapDone(chunk.index, tuple(chunk.fn(x) for x in chunk.items))
        except Exception as exc:
            done = MapDone(chunk.index, (), exc)
        try:
            conn.send(done)
        except Exception as exc:  # an unpicklable value or exception
            conn.send(MapDone(chunk.index, (), RuntimeError(repr(exc))))


class PersistentPool:
    """Lazily-started, reusable workers for an order-preserving ``map``.

    The workers are a :class:`WorkerSet` kept alive across :meth:`map`
    calls, so callers pay start-up once instead of once per call.  A
    worker that dies mid-map raises :class:`~repro.errors.StateError`
    instead of hanging the call, and teardown cannot deadlock: there is
    no shared queue whose lock a dead worker could hold.
    """

    def __init__(self, processes: int) -> None:
        self._workers = WorkerSet(processes, serve_map_chunks)
        self.processes = processes

    @property
    def started(self) -> bool:
        """True once worker processes exist (first use has happened)."""
        return self._workers.started

    def worker_health(self) -> tuple[tuple[int, bool], ...]:
        """``(pid, alive)`` for every current worker (empty before use)."""
        return self._workers.health()

    def worker_pids(self) -> tuple[int, ...]:
        """PIDs of the current worker processes (empty before first use)."""
        return tuple(pid for pid, _ in self.worker_health())

    def healthy(self) -> bool:
        """False once a started pool lost a worker (see :func:`shared_pool`)."""
        return all(alive for _, alive in self.worker_health())

    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        *,
        chunksize: int = 1,
    ) -> list[R]:
        """Order-preserving parallel map over ``items``.

        At most one chunk per worker is out at a time, so a large chunk
        or result never waits in a pipe.  A worker's exception is
        re-raised here.
        """
        size = max(1, chunksize)
        todo = deque(
            MapChunk(i, fn, tuple(items[at : at + size]))
            for i, at in enumerate(range(0, len(items), size))
        )
        values: list[tuple] = [()] * len(todo)
        out = 0
        try:
            while todo or out:
                while todo and out < self.processes:
                    self._workers.send(todo.popleft())
                    out += 1
                replies, lost = self._workers.receive(None)
                if any(lost):
                    raise StateError("a sweep worker died mid-map")
                for done in replies:
                    if done.error is not None:
                        raise done.error
                    values[done.index] = done.values
                    out -= 1
        except BaseException:
            self.close()  # chunks still out must not answer the next map
            raise
        return [value for chunk in values for value in chunk]

    def close(self) -> None:
        """Stop the workers (idempotent); the next :meth:`map` re-forks."""
        self._workers.close()

    def restart(self) -> None:
        """Tear down the workers; the next :meth:`map` re-creates them."""
        self.close()

    def __enter__(self) -> "PersistentPool":
        """Context-manager entry (no eager worker start)."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Shut the workers down on scope exit."""
        self.close()


#: Process-wide pool registry used by :func:`shared_pool`, keyed by worker
#: count.  Sweeps with the same parallelism reuse one warm pool.
_SHARED: dict[int, PersistentPool] = {}


def shared_pool(processes: int) -> PersistentPool:
    """The process-wide persistent pool for ``processes`` workers.

    Created on first request and cached until :func:`shutdown_shared_pools`
    (registered with ``atexit``) tears it down, so every sweep stage that
    asks for the same worker count shares one warm pool.  Each request
    health-checks the cached pool and restarts one that lost a worker,
    so the next ``map`` starts on a full set.  Only plain-map workloads
    use the shared pools — streaming processors own a :class:`WorkerSet`,
    whose workers carry per-stream state.
    """
    if processes < 1:
        raise ConfigError(f"processes must be >= 1, got {processes}")
    pool = _SHARED.get(processes)
    if pool is None:
        pool = PersistentPool(processes)
        _SHARED[processes] = pool
    elif not pool.healthy():
        pool.restart()
    return pool


def shutdown_shared_pools() -> None:
    """Close every pool created by :func:`shared_pool` (idempotent)."""
    for pool in _SHARED.values():
        pool.close()
    _SHARED.clear()


atexit.register(shutdown_shared_pools)
