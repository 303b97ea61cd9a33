"""The ``serve-small`` workload: ``repro serve`` as its own process.

The benchmark launches ``repro serve --workers 1`` (96x96 frames, N=8,
lossless), waits for its port line, and drives it from two keep-alive
connections, one closed-loop thread each, over a fixed number of frames
that cycles the distinct seeded scenes evenly.  The server runs on its
own CPU, apart from the load generator.  Request bodies are built
before the timed phase; every response is decoded and compared with the
outputs of a sequential in-process engine.  A run ends by closing the
connections and stopping the server with SIGINT.  Any shared-memory
segment it leaves in ``/dev/shm`` or reports leaked on its stderr, and
any of its child processes still running after it exits, counts as a
failed operation.
"""

from __future__ import annotations

import base64
import http.client
import itertools
import json
import math
import os
import re
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import procstat
import spans
from pinning import WORK_DIR, pin_to_server_cpu

RESOLUTION = 96
WINDOW = 8
WORKERS = 1
CONNECTIONS = 2
DISTINCT = 8
#: Frames per second the frame count is sized from (a constant).
NOMINAL_FPS = 110.0
#: Launches timed to their first correct frame: the server of the timed
#: phase, then probes spread between its segments.
SETUP_LAUNCHES = 7
#: Alternations of plain and traced phases in a traced run.
TRACE_ROUNDS = 8
MIN_FRAMES = 100
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0

SHM_DIR = Path("/dev/shm")
_PORT_LINE = re.compile(r"on http://[^:]+:(\d+)")
_LEAK_LINE = re.compile(r"(\d+) leaked shared_memory")


def frame_count(seconds: float) -> int:
    """Frames in one run: whole cycles, at least :data:`MIN_FRAMES`."""
    wanted = max(MIN_FRAMES, math.ceil(seconds * NOMINAL_FPS))
    return DISTINCT * math.ceil(wanted / DISTINCT)


@dataclass
class Reference:
    """The seeded request bodies and the outputs each must produce."""

    bodies: list[bytes]
    outputs: list[np.ndarray]

    @classmethod
    def build(cls, seed: int) -> "Reference":
        """Scenes of ``seed`` and their sequential-engine outputs."""
        from repro import ArchitectureConfig, EngineSpec
        from repro.imaging import generate_scene
        from repro.kernels import BoxFilterKernel

        config = ArchitectureConfig(
            image_width=RESOLUTION, image_height=RESOLUTION, window_size=WINDOW
        )
        engine = EngineSpec(
            config=config, kernel=BoxFilterKernel(WINDOW), fast_path=False
        ).build()
        bodies, outputs = [], []
        for i in range(DISTINCT):
            frame = generate_scene(seed=seed * 1000 + i, resolution=RESOLUTION)
            pixels = np.ascontiguousarray(frame, dtype="<i8").tobytes()
            body = {"frame_b64": base64.b64encode(pixels).decode("ascii")}
            bodies.append(json.dumps(body).encode())
            outputs.append(engine.run(frame).outputs)
        return cls(bodies, outputs)

    def check(self, index: int, body: bytes) -> tuple[bool, dict]:
        """Whether a 200 body carries frame ``index``'s exact outputs."""
        reply = json.loads(body)
        raw = base64.b64decode(reply["outputs_b64"])
        got = np.frombuffer(raw, dtype=np.dtype(reply["dtype"]).newbyteorder("<"))
        want = self.outputs[index % DISTINCT]
        ok = got.size == want.size and np.array_equal(got.reshape(want.shape), want)
        return ok, reply


@dataclass
class Request:
    """One timed request as the load generator saw it."""

    sent: float
    done: float
    status: int
    ok: bool
    engine_s: float = 0.0
    worker_pid: int = 0
    attempts: int = 1
    degraded: bool = False


class Server:
    """One ``repro serve`` process and its lifecycle."""

    def __init__(self, spans_path: Path | None = None) -> None:
        serve_args = [
            "serve", "--port", "0", "--workers", str(WORKERS),
            "--resolution", str(RESOLUTION), "--window", str(WINDOW),
            "--threshold", "0", "--codec", "auto",
        ]  # fmt: skip
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
            self.stderr_path = WORK_DIR / "serve.stderr"
        else:
            launcher = Path(__file__).with_name("traced_serve.py")
            cmd = [sys.executable, str(launcher), str(spans_path), *serve_args]
            self.stderr_path = WORK_DIR / "serve.traced.stderr"
        self._shm_before = _shm_segments()
        self.launched = time.perf_counter()
        with open(self.stderr_path, "w") as err:
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                preexec_fn=pin_to_server_cpu,
            )  # fmt: skip
        self.port = self._read_port()

    @property
    def pid(self) -> int:
        """The gateway's pid."""
        return self.proc.pid

    def _read_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not sel.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = _PORT_LINE.search(line)
                if match:
                    return int(match.group(1))
        self.kill()
        raise RuntimeError(
            f"repro serve did not report a port; stderr:\n{self.stderr_path.read_text()}"
        )

    def process_tree(self) -> list[int]:
        """The gateway and its children (workers, resource tracker)."""
        return [self.pid, *procstat.children(self.pid)]

    def stop(self) -> int:
        """SIGINT, wait, then count leaks; returns the failed operations.

        A leak is a shared-memory segment left in ``/dev/shm`` or
        reported on stderr, or a child process that outlived the gateway
        (it is killed here).
        """
        tree = self.process_tree()
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        finally:
            self.proc.stdout.close()
        survivors = _kill_all(_outliving(tree[1:]))
        left = len(_shm_segments() - self._shm_before)
        match = _LEAK_LINE.search(self.stderr_path.read_text())
        reported = int(match.group(1)) if match else 0
        return max(left, reported) + survivors

    def kill(self) -> None:
        """Last resort: SIGKILL the gateway and its children; reap it."""
        if self.proc.poll() is None:
            children = procstat.children(self.pid)
            self.proc.kill()
            self.proc.wait(timeout=STOP_TIMEOUT)
            _kill_all(children)


def _outliving(pids: list[int], grace: float = 5.0) -> list[int]:
    """The ``pids`` still running after ``grace`` seconds (zombies count as gone)."""
    deadline = time.monotonic() + grace
    alive = [pid for pid in pids if procstat.running(pid)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in alive if procstat.running(pid)]
    return alive


def _kill_all(pids) -> int:
    """SIGKILL every pid still alive; returns how many were."""
    killed = 0
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
            killed += 1
        except ProcessLookupError:
            pass
    return killed


def _shm_segments() -> set[str]:
    return {p.name for p in SHM_DIR.iterdir()} if SHM_DIR.is_dir() else set()


def _post(conn: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes, float, float]:
    sent = time.monotonic()
    # The send stamp lets a traced server start its read span at it.
    headers = {"Content-Type": "application/json", spans.SENT_HEADER: repr(sent)}
    conn.request("POST", "/v1/frames", body=body, headers=headers)
    response = conn.getresponse()
    data = response.read()
    return response.status, data, sent, time.monotonic()


def first_frame(server: Server, ref: Reference) -> tuple[float, bool]:
    """Seconds from launch to the first correct response, and its verdict."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        status, data, _, _ = _post(conn, ref.bodies[0])
        elapsed = time.perf_counter() - server.launched
    finally:
        conn.close()
    return elapsed, status == 200 and ref.check(0, data)[0]


@dataclass
class Phase:
    """What one timed phase against one server measured."""

    requests: list[Request] = field(default_factory=list)
    wall_s: float = 0.0
    #: ``(start, end)`` monotonic stamps of each timed window.
    windows: list[tuple[float, float]] = field(default_factory=list)
    server_cpu_s: float = 0.0
    worker_cpu_s: float = 0.0
    loadgen_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    steal_frac: float = 0.0


def drive(server: Server, ref: Reference, count: int) -> Phase:
    """Closed loop of ``count`` frames over :data:`CONNECTIONS` connections."""
    jobs = itertools.count()
    phase = Phase()
    lock = threading.Lock()
    errors: list[BaseException] = []

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            while (i := next(jobs)) < count:
                status, data, sent, done = _post(conn, ref.bodies[i % DISTINCT])
                req = Request(sent, done, status, False)
                if status == 200:
                    ok, reply = ref.check(i, data)
                    req.ok = ok
                    req.engine_s = float(reply["seconds"])
                    req.worker_pid = int(reply["worker_pid"])
                    req.attempts = int(reply["attempts"])
                    req.degraded = bool(reply["degraded"])
                with lock:
                    phase.requests.append(req)
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            errors.append(exc)
        finally:
            conn.close()

    tree = server.process_tree()
    cpu0 = {pid: procstat.cpu_seconds(pid) for pid in tree}
    host = procstat.HostWindow()
    own0 = time.process_time()
    start = time.monotonic()
    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    end = time.monotonic()
    phase.windows.append((start, end))
    phase.wall_s = end - start
    phase.loadgen_cpu_s = time.process_time() - own0
    phase.steal_frac = host.stop()
    if errors:
        raise errors[0]
    workers = {r.worker_pid for r in phase.requests if r.worker_pid}
    for pid in tree:
        spent = procstat.cpu_seconds(pid) - cpu0[pid]
        phase.server_cpu_s += spent
        if pid in workers:
            phase.worker_cpu_s += spent
    phase.peak_rss_mb = sum(procstat.peak_rss_mb(pid) for pid in tree)
    return phase


def combine(phases: list[Phase]) -> Phase:
    """One phase made of several: counters summed, steal weighted by wall time."""
    total = Phase()
    for p in phases:
        total.requests += p.requests
        total.windows += p.windows
        total.wall_s += p.wall_s
        total.server_cpu_s += p.server_cpu_s
        total.worker_cpu_s += p.worker_cpu_s
        total.loadgen_cpu_s += p.loadgen_cpu_s
        total.peak_rss_mb = max(total.peak_rss_mb, p.peak_rss_mb)
        total.steal_frac += p.steal_frac * p.wall_s
    total.steal_frac /= max(total.wall_s, 1e-9)
    return total


def gateway_cpu_s(phase: Phase) -> float:
    """CPU of the gateway process alone (tree minus workers)."""
    return phase.server_cpu_s - phase.worker_cpu_s


def launch(ref: Reference, spans_path: Path | None = None) -> tuple[Server, float, bool]:
    """Start a server and send it frame 0: (server, set-up seconds, correct)."""
    server = Server(spans_path)
    try:
        seconds, ok = first_frame(server, ref)
    except BaseException:
        server.kill()
        raise
    return server, seconds, ok


def measure(ref: Reference, count: int) -> tuple[list[float], list[Phase], int]:
    """Set-up times and one timed phase of ``count`` frames.

    The server of the timed phase is the first set-up launch.  Its phase
    is cut into :data:`SETUP_LAUNCHES` segments of whole scene cycles,
    and a fresh probe server is launched, timed to its first frame and
    stopped between two segments, so the set-up median samples the
    host's speed over the whole run.  Returns the set-up seconds, the
    phase's segments and the failed operations outside their requests
    (wrong first frames, leaks at shutdown).
    """
    cycles = math.ceil(count / DISTINCT)
    bounds = [k * cycles // SETUP_LAUNCHES * DISTINCT for k in range(SETUP_LAUNCHES)]
    bounds.append(count)
    server, seconds, ok = launch(ref)
    times, failed, phases = [seconds], int(not ok), []
    try:
        for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if k:
                probe, seconds, ok = launch(ref)
                times.append(seconds)
                failed += (not ok) + probe.stop()
            if hi > lo:
                phases.append(drive(server, ref, hi - lo))
    except BaseException:
        server.kill()
        raise
    return times, phases, failed + server.stop()


def alternate(ref: Reference, count: int, spans_path: Path) -> tuple[Phase, Phase, int]:
    """``count`` frames split between a plain and a traced server.

    Both servers stay up; up to :data:`TRACE_ROUNDS` short phases of
    whole scene cycles alternate between them, so a drift of the host's
    speed weighs on both halves alike.  Returns the plain phase, the
    traced phase and the failed operations outside their requests
    (wrong warm-up frames, leaks at shutdown).
    """
    rounds = max(1, min(TRACE_ROUNDS, count // (2 * DISTINCT)))
    chunk = DISTINCT * max(1, count // (2 * DISTINCT * rounds))
    servers: list[Server] = []
    failed = 0
    spans_path.unlink(missing_ok=True)
    try:
        for path in (None, spans_path):
            server, _, ok = launch(ref, path)
            servers.append(server)
            failed += not ok
        halves: tuple[list[Phase], list[Phase]] = ([], [])
        for _ in range(rounds):
            for server, phases in zip(servers, halves):
                phases.append(drive(server, ref, chunk))
    except BaseException:
        for server in servers:
            server.kill()
        raise
    # Last launched, first stopped: a server counts as leaked every
    # segment that appeared after its launch and is still there.
    while servers:
        try:
            failed += servers.pop().stop()
        except BaseException:
            for other in servers:
                other.kill()
            raise
    return combine(halves[0]), combine(halves[1]), failed
