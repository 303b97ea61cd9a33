"""The asyncio frame-serving gateway over the streaming runtime.

:class:`FrameGateway` is the network face of the repo's pipeline: it
owns one :class:`~repro.runtime.streaming.StreamingProcessor` (one ring
geometry, one warm worker pool), multiplexes concurrent HTTP clients
onto it through a :class:`~repro.serve.bridge.FrameBridge`, and keeps
itself honest under load with explicit admission control — a bounded
in-flight budget answered with ``429 Too Many Requests`` plus a
``Retry-After`` hint instead of an unbounded queue, and a per-request
deadline answered with ``504`` while the abandoned frame still counts
against capacity until the ring actually finishes it.

Routes::

    POST /v1/frames   one frame job (base64 pixels + engine params)
    GET  /metrics     Prometheus text (gateway + driver + workers merged)
    GET  /v1/specs    per-tenant spec-cache contents and counters
    GET  /healthz     liveness + capacity snapshot

Per-tenant engine parameters resolve through a bounded
:class:`~repro.serve.cache.SpecCache`, so repeat tenants reuse one spec
blob and the workers' own engine caches stay hot.  Startup is the slow
path on purpose: the codec tier is resolved (compiling the native
kernels once, not under fire) and one warm frame per worker forks the
pool and builds every worker's engine before the socket accepts.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..config import ArchitectureConfig
from ..errors import ConfigError, ReproError
from ..kernels import BoxFilterKernel
from ..observability.export import write_prometheus
from ..observability.metrics import MetricsRegistry
from ..observability.probe import MetricsProbe
from ..resilience.chaos import ChaosSpec
from ..runtime.streaming import StreamingProcessor, StreamResult
from ..runtime.supervision import FrameFailure, SupervisionPolicy
from ..spec import EngineSpec
from .bridge import FrameBridge
from .cache import SpecCache
from .http import (
    HttpError,
    HttpRequest,
    json_response,
    read_request,
    render_response,
)
from .payload import decode_frame, encode_array

#: Fine-grained latency buckets for request timing (1 ms .. ~107 s,
#: geometric x1.3) — dense enough for interpolated p50/p99.
REQUEST_BUCKETS: tuple[float, ...] = tuple(
    0.001 * 1.3**i for i in range(45)
)


@dataclass(frozen=True, slots=True)
class GatewayConfig:
    """Everything one gateway instance serves: geometry, pool, limits."""

    host: str = "127.0.0.1"
    #: TCP port; ``0`` binds an ephemeral port (tests, benchmarks).
    port: int = 8080
    #: Square frame resolution every job must match.
    resolution: int = 128
    window: int = 8
    threshold: int = 0
    engine: str = "compressed"
    codec: str = "auto"
    #: Worker process count (``None``: the runtime's default).
    workers: int | None = None
    #: Ring depth (``None``: the runtime's default of ``2 * workers``).
    slots: int | None = None
    #: Admission budget: jobs in flight (queued + on the ring) before
    #: new frame jobs are shed with 429 (``None``: ``2 * ring slots``).
    max_in_flight: int | None = None
    #: Per-request deadline; expiry answers 504 and the abandoned frame
    #: keeps its capacity until the ring finishes it.
    request_timeout_seconds: float = 30.0
    max_body_bytes: int = 32 * 1024 * 1024
    spec_cache_capacity: int = 32
    #: Warm frames run through the pool before accepting (``None``: one
    #: per worker).
    warm_frames: int | None = None
    #: Injected process-level faults, forwarded to the base
    #: :class:`~repro.spec.EngineSpec` (tests and chaos runs; no CLI flag).
    chaos: ChaosSpec | None = None

    def __post_init__(self) -> None:
        if self.request_timeout_seconds <= 0:
            raise ConfigError(
                "request_timeout_seconds must be > 0, got "
                f"{self.request_timeout_seconds}"
            )
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ConfigError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )


@dataclass(slots=True)
class _GatewayState:
    """Mutable serving state split from the frozen config."""

    processor: StreamingProcessor | None = None
    bridge: FrameBridge | None = None
    server: asyncio.AbstractServer | None = None
    port: int = 0
    started_at: float = 0.0
    shed: int = 0
    timeouts: int = 0
    errors: int = 0
    served: int = 0
    connections: int = 0
    warm_seconds: float = 0.0
    extra_registries: list[MetricsRegistry] = field(default_factory=list)
    #: Live connection tasks, cancelled on close so idle keep-alive
    #: clients cannot outlive the loop.
    conn_tasks: set[asyncio.Task[None]] = field(default_factory=set)


class FrameGateway:
    """One serving instance: socket + spec cache + bridge + ring."""

    def __init__(
        self, config: GatewayConfig, *, probe: MetricsProbe | None = None
    ) -> None:
        self.config = config
        self.probe = probe if probe is not None else MetricsProbe()
        arch = ArchitectureConfig(
            image_width=config.resolution,
            image_height=config.resolution,
            window_size=config.window,
            threshold=config.threshold,
        )
        self.base_spec = EngineSpec(
            config=arch,
            kernel=BoxFilterKernel(config.window),
            engine=config.engine,
            codec=config.codec,
            chaos=config.chaos,
            probe=True,
        )
        self.spec_cache = SpecCache(
            self.base_spec, capacity=config.spec_cache_capacity
        )
        self._state = _GatewayState()

    # -- lifecycle --------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (the real one once started)."""
        return self._state.port or self.config.port

    @property
    def max_in_flight(self) -> int:
        """The resolved admission budget."""
        if self.config.max_in_flight is not None:
            return self.config.max_in_flight
        proc = self._state.processor
        slots = proc.slots if proc is not None else 2
        return 2 * slots

    async def start(self) -> None:
        """Warm the pipeline, then bind and accept.

        Ordering is deliberate: the codec tier resolves first (the
        native tier's one-time C compile must not happen under a live
        request), the pool forks and warms next (every worker builds the
        default tenant's engine), and only then does the socket listen —
        a request that connects is a request the pipeline can serve at
        full speed.
        """
        from ..core.packing.tiers import resolve_codec

        t0 = time.perf_counter()
        resolve_codec(self.config.codec)
        spec, _ = self.spec_cache.resolve(None)
        processor = StreamingProcessor(
            spec,
            workers=self.config.workers,
            slots=self.config.slots,
            probe=self.probe,
            supervision=SupervisionPolicy(
                deadline_seconds=self.config.request_timeout_seconds
            ),
        )
        bridge = FrameBridge(processor)
        bridge.start()
        self._state.processor = processor
        self._state.bridge = bridge
        warm = (
            processor.workers
            if self.config.warm_frames is None
            else self.config.warm_frames
        )
        if warm > 0:
            shape = (self.config.resolution, self.config.resolution)
            zero = np.zeros(shape, dtype=np.int64)
            await asyncio.gather(
                *(bridge.process(zero, spec=spec) for _ in range(warm))
            )
        self._state.warm_seconds = time.perf_counter() - t0
        self._state.server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockets = self._state.server.sockets or ()
        for sock in sockets:
            self._state.port = int(sock.getsockname()[1])
            break
        self._state.started_at = time.monotonic()

    async def serve_forever(self) -> None:
        """Block until cancelled (the CLI's foreground mode).

        The server already accepts from :meth:`start` on, and
        :meth:`close` owns the teardown: ``Server.serve_forever`` would
        close and then await ``wait_closed`` on cancellation, which
        (Python 3.12.1+) waits for open keep-alive clients to leave.
        """
        if self._state.server is None:
            raise ConfigError("gateway is not started")
        await asyncio.get_running_loop().create_future()

    async def close(self) -> None:
        """Stop accepting, drain the bridge, tear the runtime down."""
        server, self._state.server = self._state.server, None
        if server is not None:
            server.close()
        # Connections go before wait_closed(): from Python 3.12.1 on it
        # waits for every accepted connection to close.
        tasks = list(self._state.conn_tasks)
        self._state.conn_tasks.clear()
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if server is not None:
            await server.wait_closed()
        bridge, self._state.bridge = self._state.bridge, None
        if bridge is not None:
            await asyncio.to_thread(bridge.close)
        processor, self._state.processor = self._state.processor, None
        if processor is not None:
            processor.close()

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one keep-alive connection until EOF or a framing error."""
        self._state.connections += 1
        task = asyncio.current_task()
        if task is None:  # pragma: no cover - the server always spawns a task
            raise RuntimeError("connection handler must run inside a task")
        self._state.conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self.config.max_body_bytes
                    )
                except HttpError as exc:
                    writer.write(
                        json_response(exc.status, {"error": exc.message})
                    )
                    await writer.drain()
                    break
                except (ConnectionError, ValueError, asyncio.LimitOverrunError):
                    break
                if request is None:
                    break
                response = await self._respond(request)
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    break
        except ConnectionError:  # pragma: no cover - peer vanished mid-write
            pass
        except asyncio.CancelledError:
            # close() cancelled this connection: end normally, because the
            # stream protocol's done-callback calls task.exception() and
            # would log a cancelled task's traceback as unhandled.
            if self._state.server is not None:
                raise
        finally:
            self._state.conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _respond(self, request: HttpRequest) -> bytes:
        """Route one request; every exception becomes a status code."""
        route = f"{request.method} {request.path}"
        t0 = time.perf_counter()
        try:
            response, status = await self._route(request)
        except HttpError as exc:
            response, status = (
                json_response(exc.status, {"error": exc.message}),
                exc.status,
            )
        except ReproError as exc:
            self._state.errors += 1
            response, status = (
                json_response(500, {"error": f"{type(exc).__name__}: {exc}"}),
                500,
            )
        self.probe.registry.histogram(
            "repro_request_seconds",
            {"route": route},
            buckets=REQUEST_BUCKETS,
            help="Wall-clock seconds per gateway request (by route)",
        ).observe(time.perf_counter() - t0)
        self.probe.count(
            "repro_requests_total", 1, route=route, status=str(status)
        )
        return response

    async def _route(self, request: HttpRequest) -> tuple[bytes, int]:
        """Dispatch to the handler; returns (rendered bytes, status)."""
        if request.path == "/v1/frames":
            if request.method != "POST":
                raise HttpError(405, "frames endpoint takes POST")
            return await self._handle_frame(request)
        if request.method != "GET":
            raise HttpError(405, f"{request.path} takes GET")
        if request.path == "/healthz":
            return self._handle_healthz()
        if request.path == "/metrics":
            return self._handle_metrics()
        if request.path == "/v1/specs":
            return json_response(200, self.spec_cache.snapshot()), 200
        raise HttpError(404, f"no route for {request.method} {request.path}")

    # -- handlers ---------------------------------------------------------

    async def _handle_frame(self, request: HttpRequest) -> tuple[bytes, int]:
        """One frame job: admit, resolve tenant spec, bridge, render."""
        bridge = self._state.bridge
        if bridge is None:
            raise HttpError(503, "gateway is not serving yet")
        payload = request.json()
        if bridge.depth >= self.max_in_flight:
            self._state.shed += 1
            self.probe.count("repro_requests_shed_total", 1)
            return (
                json_response(
                    429,
                    {
                        "error": "gateway at capacity",
                        "in_flight": bridge.depth,
                        "max_in_flight": self.max_in_flight,
                    },
                    extra_headers={"Retry-After": str(self._retry_after())},
                ),
                429,
            )
        params = payload.get("params")
        if params is not None and not isinstance(params, dict):
            raise HttpError(400, "params must be a JSON object")
        try:
            spec, cached = self.spec_cache.resolve(params)
        except ConfigError as exc:
            raise HttpError(400, str(exc)) from exc
        frame = decode_frame(payload.get("frame_b64"), spec.config)
        self.probe.gauge_set("repro_inflight_requests", bridge.depth + 1)
        self.probe.gauge_max("repro_inflight_requests_peak", bridge.depth + 1)
        try:
            outcome = await asyncio.wait_for(
                bridge.process(frame, spec=spec),
                timeout=self.config.request_timeout_seconds,
            )
        except asyncio.TimeoutError:
            self._state.timeouts += 1
            self.probe.count("repro_request_deadline_exceeded_total", 1)
            return (
                json_response(
                    504,
                    {
                        "error": "deadline exceeded",
                        "timeout_seconds": self.config.request_timeout_seconds,
                    },
                ),
                504,
            )
        finally:
            self.probe.gauge_set(
                "repro_inflight_requests", bridge.depth if bridge else 0
            )
        if isinstance(outcome, FrameFailure):
            self._state.errors += 1
            return (
                json_response(
                    500,
                    {
                        "error": f"frame failed: {outcome.reason}",
                        "attempts": outcome.attempts,
                    },
                ),
                500,
            )
        self._state.served += 1
        return self._render_result(outcome, cached), 200

    def _render_result(self, result: StreamResult, cached: bool) -> bytes:
        """The 200 body of one served frame."""
        body = {
            "index": result.index,
            "outputs_b64": encode_array(result.outputs),
            "shape": list(result.outputs.shape),
            "dtype": str(result.outputs.dtype),
            "seconds": result.seconds,
            "worker_pid": result.worker_pid,
            "attempts": result.attempts,
            "degraded": result.degraded,
            "spec_cached": cached,
            "stats": {
                "pixels_in": result.stats.pixels_in,
                "outputs": result.stats.outputs,
                "total_cycles": result.stats.total_cycles,
                "buffer_bits_peak": result.stats.buffer_bits_peak,
            },
        }
        return json_response(200, body)

    def _retry_after(self) -> int:
        """Seconds a shed client should back off: the observed p50
        request latency when known, else one second."""
        for hist in self.probe.registry.histograms():
            if hist.name == "repro_request_seconds" and hist.count:
                p50 = hist.quantile(0.5)
                if np.isfinite(p50):
                    return max(1, int(np.ceil(p50)))
        return 1

    def _handle_healthz(self) -> tuple[bytes, int]:
        """Liveness plus the capacity numbers a balancer would want."""
        processor = self._state.processor
        bridge = self._state.bridge
        body = {
            "status": "ok" if processor is not None else "starting",
            "uptime_seconds": (
                time.monotonic() - self._state.started_at
                if self._state.started_at
                else 0.0
            ),
            "in_flight": bridge.depth if bridge is not None else 0,
            "max_in_flight": self.max_in_flight,
            "free_slots": processor.free_slots if processor else 0,
            "workers": processor.workers if processor else 0,
            "warm_seconds": self._state.warm_seconds,
            "served": self._state.served,
            "shed": self._state.shed,
            "timeouts": self._state.timeouts,
            "errors": self._state.errors,
            "spec_cache_size": len(self.spec_cache),
        }
        return json_response(200, body), 200

    def _handle_metrics(self) -> tuple[bytes, int]:
        """Prometheus text of the merged gateway + runtime registries."""
        processor = self._state.processor
        merged = MetricsRegistry()
        snap = (
            processor.metrics_snapshot() if processor is not None else None
        )
        if snap is not None:
            # Includes the gateway's own probe: the processor shares it.
            merged.merge_snapshot(snap)
        else:
            merged.merge_snapshot(self.probe.registry.snapshot())
        text = write_prometheus(merged)
        return (
            render_response(
                200, text.encode(), content_type="text/plain; version=0.0.4"
            ),
            200,
        )


class GatewayThread:
    """A gateway running on a dedicated thread with its own event loop.

    The synchronous harness the tests, the benchmark and ``repro
    loadgen``'s self-managed mode share: construct, :meth:`start` (binds
    and warms — the returned port is live), talk to it over TCP, then
    :meth:`close`.  Usable as a context manager.
    """

    def __init__(
        self, config: GatewayConfig, *, probe: MetricsProbe | None = None
    ) -> None:
        self.gateway = FrameGateway(config, probe=probe)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        return self.gateway.port

    @property
    def host(self) -> str:
        """The bound host."""
        return self.gateway.config.host

    def start(self, timeout: float = 120.0) -> "GatewayThread":
        """Run the gateway's loop on a thread; block until it serves."""
        self._thread = threading.Thread(
            target=self._run, name="repro-gateway", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("gateway did not start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.gateway.start())
        except BaseException as exc:  # startup failed: surface to start()
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.gateway.close())
            loop.close()

    def close(self, timeout: float = 30.0) -> None:
        """Stop the loop, drain the gateway, join the thread."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout)
        self._loop = None

    def __enter__(self) -> "GatewayThread":
        """Start on scope entry."""
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        """Close on scope exit."""
        self.close()
