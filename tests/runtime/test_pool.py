"""Tests for the worker set, the persistent pools and start-method
selection."""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
from dataclasses import dataclass

import pytest

from repro.errors import ConfigError, StateError
from repro.runtime.pool import (
    PersistentPool,
    WorkerSet,
    preferred_context,
    shared_pool,
    shutdown_shared_pools,
)


def square(x: int) -> int:
    return x * x


def worker_pid(_: int) -> int:
    return os.getpid()


def fail_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("three")
    return x


def die(_: int) -> int:
    os.kill(os.getpid(), signal.SIGKILL)
    return 0


@dataclass(frozen=True)
class Task:
    index: int
    attempt: int = 0
    #: What the worker does with it: "echo", "die" (SIGKILL before
    #: answering) or "answer-then-die".
    action: str = "echo"


@dataclass(frozen=True)
class Reply:
    index: int
    attempt: int
    pid: int


def serve(conn) -> None:
    """A worker loop over the task protocol above."""
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task.action == "die":
            os.kill(os.getpid(), signal.SIGKILL)
        conn.send(Reply(task.index, task.attempt, os.getpid()))
        if task.action == "answer-then-die":
            os.kill(os.getpid(), signal.SIGKILL)


def receive_until(workers: WorkerSet, replies: int = 0, deaths: int = 0):
    """Receive until ``replies`` replies and ``deaths`` deaths arrived."""
    got, lost = [], []
    while len(got) < replies or len(lost) < deaths:
        r, dead = workers.receive(30.0)
        assert r or dead, "nothing arrived within 30s"
        got += r
        lost += dead
    return got, lost


class TestWorkerSet:
    def test_lazy_start_and_least_loaded_dispatch(self):
        workers = WorkerSet(2, serve)
        try:
            assert not workers.started and workers.fds() == ()
            workers.send(Task(0))
            workers.send(Task(1))
            assert workers.started and len(workers.fds()) == 4
            got, lost = receive_until(workers, replies=2)
            assert sorted(r.index for r in got) == [0, 1]
            assert lost == []
            # One task each: the idle worker took the second one.
            assert len({r.pid for r in got}) == 2
        finally:
            workers.close()
        assert not workers.started

    def test_death_reports_only_what_the_dead_worker_held(self):
        workers = WorkerSet(2, serve)
        try:
            workers.send(Task(0))
            (first,), _ = receive_until(workers, replies=1)
            workers.send(Task(1, action="die"))
            workers.send(Task(2))
            got, lost = receive_until(workers, replies=1, deaths=1)
            assert [r.index for r in got] == [2]
            assert [[t.index for t in held] for held in lost] == [[1]]
            survivor = got[0].pid
            assert survivor != first.pid
            # Only the dead worker was re-forked; the survivor kept going.
            workers.send(Task(3, attempt=1))
            workers.send(Task(4))
            got, _ = receive_until(workers, replies=2)
            pids = {r.pid for r in got}
            assert survivor in pids and first.pid not in pids
            assert sorted((r.index, r.attempt) for r in got) == [(3, 1), (4, 0)]
        finally:
            workers.close()

    def test_reply_sent_before_death_is_a_reply(self):
        workers = WorkerSet(1, serve)
        try:
            workers.send(Task(5, action="answer-then-die"))
            got, lost = receive_until(workers, replies=1, deaths=1)
            assert [r.index for r in got] == [5]
            assert lost == [[]]
        finally:
            workers.close()

    def test_watcher_sees_every_fd_added_and_removed_before_close(self):
        live: set[int] = set()

        def add(fd: int) -> None:
            assert fd not in live
            live.add(fd)

        def remove(fd: int) -> None:
            os.fstat(fd)  # still open when the watcher hears of it
            live.remove(fd)

        workers = WorkerSet(1, serve)
        try:
            workers.watch(add, remove)
            workers.send(Task(0, action="die"))
            assert live == set(workers.fds())
            receive_until(workers, deaths=1)
            assert live == set(workers.fds())  # the re-forked worker's
        finally:
            workers.close()
        assert live == set()

    def test_no_threads_started(self):
        before = set(threading.enumerate())
        workers = WorkerSet(2, serve)
        try:
            workers.send(Task(0))
            receive_until(workers, replies=1)
            assert set(threading.enumerate()) == before
        finally:
            workers.close()

    def test_invalid_processes(self):
        with pytest.raises(ConfigError):
            WorkerSet(0, serve)


class TestPreferredContext:
    def test_fork_when_available(self):
        ctx = preferred_context(available=["fork", "spawn", "forkserver"])
        assert ctx.get_start_method() == "fork"

    def test_platform_default_without_fork(self):
        # Windows / restricted platforms: no fork in the method list, so
        # the runtime falls back to the interpreter's default context
        # instead of crashing on mp.get_context("fork").
        ctx = preferred_context(available=["spawn"])
        assert ctx is mp.get_context()

    def test_detected_methods_by_default(self):
        ctx = preferred_context()
        assert ctx.get_start_method() in mp.get_all_start_methods()


class TestPersistentPool:
    def test_lazy_start(self):
        with PersistentPool(2) as pool:
            assert not pool.started
            assert pool.map(square, [1, 2, 3]) == [1, 4, 9]
            assert pool.started

    def test_workers_persist_across_calls(self):
        with PersistentPool(2) as pool:
            first = set(pool.map(worker_pid, range(8)))
            second = set(pool.map(worker_pid, range(8)))
        # Same two worker processes served both calls: a re-fork between
        # the maps could surface up to four distinct pids.
        assert len(first | second) <= 2

    def test_close_is_idempotent_and_restartable(self):
        pool = PersistentPool(1)
        assert pool.map(square, [3]) == [9]
        pool.close()
        assert not pool.started
        pool.close()  # second close is a no-op
        assert pool.map(square, [4]) == [16]  # lazily re-created
        pool.close()

    def test_invalid_processes(self):
        with pytest.raises(ConfigError):
            PersistentPool(0)

    def test_worker_exception_is_reraised_and_pool_stays_usable(self):
        with PersistentPool(2) as pool:
            with pytest.raises(ValueError, match="three"):
                pool.map(fail_on_three, list(range(8)))
            assert pool.map(square, list(range(6)), chunksize=4) == [
                x * x for x in range(6)
            ]

    def test_worker_death_mid_map_raises_instead_of_hanging(self):
        with PersistentPool(2) as pool:
            with pytest.raises(StateError, match="died"):
                pool.map(die, [1, 2])
            assert pool.map(square, [5]) == [25]


class TestPoolHealth:
    def test_unstarted_pool_is_healthy_with_no_workers(self):
        with PersistentPool(2) as pool:
            assert pool.healthy()
            assert pool.worker_health() == ()
            assert pool.worker_pids() == ()

    def test_started_pool_reports_live_workers(self):
        with PersistentPool(2) as pool:
            pool.map(square, [1])
            health = pool.worker_health()
            assert len(health) == 2
            assert all(alive for _, alive in health)
            assert pool.healthy()
            assert set(pool.worker_pids()) == {pid for pid, _ in health}

    def test_sigkilled_worker_marks_pool_unhealthy(self):
        import signal
        import time

        with PersistentPool(2) as pool:
            pool.map(square, [1])
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            # The corpse is observable either directly (not alive) or as a
            # vanished pid once mp's handler thread respawns over it.
            deadline = time.monotonic() + 10.0
            saw_unhealthy_or_replaced = False
            while time.monotonic() < deadline:
                if not pool.healthy() or victim not in pool.worker_pids():
                    saw_unhealthy_or_replaced = True
                    break
                time.sleep(0.01)
            assert saw_unhealthy_or_replaced

    def test_restart_replaces_workers(self):
        with PersistentPool(1) as pool:
            pool.map(square, [1])
            before = set(pool.worker_pids())
            pool.restart()
            assert not pool.started  # lazily re-created on next use
            assert pool.map(square, [5]) == [25]
            after = set(pool.worker_pids())
            assert before.isdisjoint(after)


class TestSharedPool:
    def test_same_count_reuses_one_pool(self):
        try:
            assert shared_pool(2) is shared_pool(2)
            assert shared_pool(2) is not shared_pool(3)
        finally:
            shutdown_shared_pools()

    def test_shutdown_clears_registry(self):
        pool = shared_pool(2)
        pool.map(square, [1, 2])
        shutdown_shared_pools()
        assert not pool.started
        assert shared_pool(2) is not pool
        shutdown_shared_pools()

    def test_invalid_count(self):
        with pytest.raises(ConfigError):
            shared_pool(0)

    def test_dead_cached_pool_is_rebuilt_on_request(self):
        import signal
        import time

        try:
            pool = shared_pool(2)
            pool.map(square, [1])
            for pid in pool.worker_pids():
                os.kill(pid, signal.SIGKILL)
            # Wait until the cached pool observably degraded, then ask
            # again: the registry must hand back a working pool, never a
            # broken one that would hang the next map.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and pool.healthy():
                time.sleep(0.01)
            again = shared_pool(2)
            assert again.map(square, [2, 3]) == [4, 9]
            assert again.healthy()
        finally:
            shutdown_shared_pools()
