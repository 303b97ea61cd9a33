"""End-to-end tests for the frame-serving gateway over real TCP.

A live :class:`~repro.serve.gateway.GatewayThread` on an ephemeral port
backs every test; requests go through ``http.client`` — a stock stdlib
client, deliberately not the repo's own wire code — so the gateway is
exercised exactly the way ``curl`` would.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro import ArchitectureConfig
from repro.imaging import generate_scene
from repro.kernels import BoxFilterKernel
from repro.resilience import ChaosSpec
from repro.serve import (
    GatewayConfig,
    GatewayThread,
    build_frame_request,
    encode_array,
    run_level,
)
from repro.errors import CapacityError
from repro.runtime import FrameFailure, StreamingProcessor
from repro.spec import EngineSpec, make_engine

from helpers import enforced_peak, exact_capacity_plan

RES = 32
WINDOW = 8


def sequential_outputs(frame: np.ndarray, **overrides: object) -> np.ndarray:
    """What the single-process engine produces for ``frame``."""
    arch = ArchitectureConfig(
        image_width=RES,
        image_height=RES,
        window_size=WINDOW,
        threshold=int(overrides.pop("threshold", 0)),
    )
    spec = EngineSpec(config=arch, kernel=BoxFilterKernel(WINDOW), **overrides)
    return spec.build().run(frame).outputs


def request(
    gw: GatewayThread,
    method: str,
    path: str,
    body: bytes | None = None,
) -> tuple[int, dict[str, str], bytes]:
    """One stdlib-client request; returns (status, headers, body)."""
    conn = http.client.HTTPConnection(gw.host, gw.port, timeout=60)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return (
            resp.status,
            {k.lower(): v for k, v in resp.getheaders()},
            resp.read(),
        )
    finally:
        conn.close()


def post_frame(
    gw: GatewayThread,
    frame: np.ndarray,
    params: dict[str, object] | None = None,
) -> tuple[int, dict[str, str], dict]:
    status, headers, body = request(
        gw, "POST", "/v1/frames", build_frame_request(encode_array(frame), params)
    )
    return status, headers, json.loads(body)


@pytest.fixture(scope="module")
def gateway():
    """One warm single-worker gateway shared by the read-path tests."""
    config = GatewayConfig(port=0, resolution=RES, window=WINDOW, workers=1)
    with GatewayThread(config) as gw:
        yield gw


@pytest.fixture(scope="module")
def frame() -> np.ndarray:
    return generate_scene(seed=7, resolution=RES).astype(np.int64)


class TestRouting:
    def test_healthz(self, gateway):
        status, _, body = request(gateway, "GET", "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["workers"] == 1
        assert payload["max_in_flight"] >= 1
        assert payload["warm_seconds"] > 0

    def test_unknown_route_404(self, gateway):
        status, _, body = request(gateway, "GET", "/nope")
        assert status == 404
        assert "error" in json.loads(body)

    def test_frames_rejects_get(self, gateway):
        status, _, _ = request(gateway, "GET", "/v1/frames")
        assert status == 405

    def test_healthz_rejects_post(self, gateway):
        status, _, _ = request(gateway, "POST", "/healthz", b"{}")
        assert status == 405

    def test_specs_endpoint(self, gateway, frame):
        post_frame(gateway, frame)
        status, _, body = request(gateway, "GET", "/v1/specs")
        payload = json.loads(body)
        assert status == 200
        assert payload["capacity"] >= 1
        assert payload["size"] >= 1
        assert payload["entries"]

    def test_metrics_endpoint(self, gateway, frame):
        post_frame(gateway, frame)
        status, headers, body = request(gateway, "GET", "/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        text = body.decode()
        assert "repro_requests_total" in text
        assert "repro_request_seconds" in text


class TestBadFrameJobs:
    def test_non_json_body_400(self, gateway):
        status, _, _ = request(gateway, "POST", "/v1/frames", b"not json")
        assert status == 400

    def test_missing_frame_400(self, gateway):
        status, _, _ = request(gateway, "POST", "/v1/frames", b"{}")
        assert status == 400

    def test_bad_base64_400(self, gateway):
        body = json.dumps({"frame_b64": "!!!not-base64!!!"}).encode()
        status, _, _ = request(gateway, "POST", "/v1/frames", body)
        assert status == 400

    def test_wrong_shape_400(self, gateway):
        small = np.zeros((8, 8), dtype=np.int64)
        body = build_frame_request(encode_array(small))
        status, _, _ = request(gateway, "POST", "/v1/frames", body)
        assert status == 400

    def test_unknown_param_400(self, gateway, frame):
        status, _, payload = post_frame(gateway, frame, {"window": 16})
        assert status == 400
        assert "unknown engine params" in payload["error"]

    def test_non_object_params_400(self, gateway, frame):
        body = json.dumps(
            {"frame_b64": encode_array(frame), "params": [1]}
        ).encode()
        status, _, _ = request(gateway, "POST", "/v1/frames", body)
        assert status == 400


class TestOutOfRangePixels:
    """A frame with one pixel outside the 8-bit range is refused up front:
    it never takes a ring slot or reaches the bridge."""

    @pytest.fixture(scope="class")
    def small_gateway(self):
        config = GatewayConfig(
            port=0,
            resolution=16,
            window=4,
            workers=1,
            slots=2,
            request_timeout_seconds=10.0,
        )
        with GatewayThread(config) as gw:
            yield gw

    @pytest.mark.parametrize("value", [300, -1, 2**62])
    def test_bad_pixel_400_then_valid_frame_served(self, small_gateway, value):
        good = generate_scene(seed=3, resolution=16).astype(np.int64)
        bad = good.copy()
        bad[5, 7] = value
        status, _, payload = post_frame(small_gateway, bad)
        assert status == 400
        assert "pixels outside [0, 255]" in payload["error"]
        status, _, _ = post_frame(small_gateway, good)
        assert status == 200
        _, _, body = request(small_gateway, "GET", "/healthz")
        assert json.loads(body)["free_slots"] == 2


class TestServedFrames:
    def test_default_frame_end_to_end(self, gateway, frame):
        status, _, payload = post_frame(gateway, frame)
        assert status == 200
        expected = sequential_outputs(frame)
        assert payload["outputs_b64"] == encode_array(expected)
        assert payload["shape"] == list(expected.shape)
        assert payload["dtype"] == str(expected.dtype)
        assert payload["attempts"] == 1
        assert payload["degraded"] is False
        assert payload["seconds"] > 0
        assert payload["stats"]["pixels_in"] == RES * RES
        assert payload["stats"]["outputs"] > 0

    def test_default_params_hit_the_warm_spec(self, gateway, frame):
        # start() resolved the default tenant before warming, so the
        # very first default-params job is already a cache hit.
        _, _, payload = post_frame(gateway, frame)
        assert payload["spec_cached"] is True
        _, _, payload = post_frame(gateway, frame, {"threshold": 0})
        assert payload["spec_cached"] is True

    def test_tenant_threshold_override(self, gateway, frame):
        status, _, payload = post_frame(gateway, frame, {"threshold": 6})
        assert status == 200
        assert payload["outputs_b64"] == encode_array(
            sequential_outputs(frame, threshold=6)
        )
        status, _, repeat = post_frame(gateway, frame, {"threshold": 6})
        assert status == 200
        assert repeat["spec_cached"] is True

    def test_tenant_traditional_engine(self, gateway, frame):
        status, _, payload = post_frame(
            gateway, frame, {"engine": "traditional"}
        )
        assert status == 200
        assert payload["outputs_b64"] == encode_array(
            sequential_outputs(frame, engine="traditional")
        )

    @settings(max_examples=6, deadline=None)
    @given(
        random_frame=npst.arrays(
            np.int64, (RES, RES), elements=st.integers(0, 255)
        )
    )
    def test_property_served_equals_sequential(self, gateway, random_frame):
        """Byte-identity: any frame served through the gateway matches a
        sequential ``CompressedEngine.run()`` on the same pixels."""
        status, _, payload = post_frame(gateway, random_frame)
        assert status == 200
        assert payload["outputs_b64"] == encode_array(
            sequential_outputs(random_frame)
        )


#: The planned-serving matrix: both codec tiers on both engine paths
#: (lossless frame-at-once, and T=6 recirculating sequential).
PLANNED_TENANTS = [
    {"codec": codec, "threshold": threshold, "recirculate": True}
    for codec in ("numpy", "native")
    for threshold in (0, 6)
]


class TestPlannedServing:
    """Under a memory plan the gateway, a stream and an offline engine
    agree on outputs, ``stats.threshold`` and ``stats.plan_headroom_bits``,
    and an overflowing frame is a 507 carrying the engine's message."""

    @pytest.fixture(scope="class")
    def planned(self):
        calm = generate_scene(seed=7, resolution=RES).astype(np.int64)
        noise = np.random.default_rng(5).integers(0, 256, size=(RES, RES))
        arch = ArchitectureConfig(image_width=RES, image_height=RES, window_size=WINDOW)
        capacity = max(
            enforced_peak(arch.with_threshold(t["threshold"]), calm, codec=t["codec"])
            for t in PLANNED_TENANTS
        )
        plan = exact_capacity_plan(arch, [capacity, capacity])
        spec = EngineSpec(
            config=arch, kernel=BoxFilterKernel(WINDOW), memory_plan=plan
        )
        config = GatewayConfig(
            port=0, resolution=RES, window=WINDOW, workers=1, memory_plan=plan
        )
        with GatewayThread(config) as gw, StreamingProcessor(spec, workers=1) as proc:
            yield spec, gw, proc, calm, noise

    @pytest.mark.parametrize(
        "tenant", PLANNED_TENANTS, ids=lambda t: f"{t['codec']}-T{t['threshold']}"
    )
    def test_three_routes_agree(self, planned, tenant):
        spec, gw, proc, calm, noise = planned
        tenant_spec = spec.replace(**tenant)
        offline = make_engine(tenant_spec).run(calm)
        assert offline.stats.plan_headroom_bits >= 0
        proc.submit(calm, spec=tenant_spec)
        (streamed,) = proc.results(timeout=30)
        status, _, payload = post_frame(gw, calm, tenant)
        assert status == 200
        assert np.array_equal(streamed.outputs, offline.outputs)
        assert payload["outputs_b64"] == encode_array(offline.outputs)
        expected = (offline.stats.threshold, offline.stats.plan_headroom_bits)
        assert (
            streamed.stats.threshold,
            streamed.stats.plan_headroom_bits,
        ) == expected
        served = payload["stats"]
        assert (served["threshold"], served["plan_headroom_bits"]) == expected

        with pytest.raises(CapacityError) as err:
            make_engine(tenant_spec).run(noise)
        proc.submit(noise, spec=tenant_spec)
        (failure,) = proc.results(timeout=30)
        assert isinstance(failure, FrameFailure)
        assert (failure.reason, failure.error) == ("capacity", str(err.value))
        status, _, payload = post_frame(gw, noise, tenant)
        assert status == 507
        assert payload["error"] == str(err.value)
        assert payload["reason"] == "capacity"
        assert payload["attempts"] == 1
        _, _, body = request(gw, "GET", "/healthz")
        assert json.loads(body)["free_slots"] == 2


class TestAdmissionControl:
    """Overload behaviour: shed loudly, never queue unboundedly."""

    DELAY = 0.12

    @pytest.fixture(scope="class")
    def slow_gateway(self):
        """Capacity ~1 frame at a time, each frame taking ``DELAY``s."""
        config = GatewayConfig(
            port=0,
            resolution=24,
            window=WINDOW,
            workers=1,
            slots=1,
            max_in_flight=2,
            # Index 0 is the warm frame; every later frame crawls.
            chaos=ChaosSpec(
                delay_on=tuple(range(1, 500)), delay_seconds=self.DELAY
            ),
        )
        with GatewayThread(config) as gw:
            yield gw

    def test_overload_sheds_instead_of_queueing(self, slow_gateway):
        """Offered load far past saturation: the gateway answers 429s
        and completed-request p99 stays bounded by the admitted queue,
        not by the offered concurrency."""
        frames = [
            generate_scene(seed=s + 1, resolution=24).astype(np.int64)
            for s in range(2)
        ]
        expected = [
            encode_array(
                EngineSpec(
                    config=ArchitectureConfig(
                        image_width=24, image_height=24, window_size=WINDOW
                    ),
                    kernel=BoxFilterKernel(WINDOW),
                )
                .build()
                .run(f)
                .outputs
            )
            for f in frames
        ]
        payloads = [build_frame_request(encode_array(f)) for f in frames]
        # Saturation is ~1 in-flight frame; offer 8 concurrent clients.
        result = run_level(
            slow_gateway.host,
            slow_gateway.port,
            payloads,
            expected=expected,
            offered=8,
            frames=24,
        )
        assert result.shed > 0
        assert result.errors == 0
        assert result.mismatches == 0
        assert result.completed >= 1
        assert result.completed + result.shed == 24
        # Bounded latency: at most max_in_flight frames are ever ahead
        # of an admitted request, so p99 is a small multiple of the
        # per-frame delay — not offered * DELAY.
        assert result.p99_seconds < 4 * 2 * self.DELAY + 1.0

    def test_shed_response_carries_retry_after(self, slow_gateway):
        frame = generate_scene(seed=9, resolution=24).astype(np.int64)
        body = build_frame_request(encode_array(frame))

        results: list[int] = []

        def occupy() -> None:
            status, _, _ = request(slow_gateway, "POST", "/v1/frames", body)
            results.append(status)

        threads = [threading.Thread(target=occupy) for _ in range(3)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        status, headers, payload = post_frame(slow_gateway, frame)
        for t in threads:
            t.join()
        assert status == 429
        assert int(headers["retry-after"]) >= 1
        assert payload["max_in_flight"] == 2
        # The occupying requests themselves either served or shed.
        assert all(s in (200, 429) for s in results)

    def test_healthz_counts_shed(self, slow_gateway):
        _, _, body = request(slow_gateway, "GET", "/healthz")
        assert json.loads(body)["shed"] > 0


class TestDeadline:
    def test_slow_frame_times_out_with_504(self):
        config = GatewayConfig(
            port=0,
            resolution=24,
            window=WINDOW,
            workers=1,
            warm_frames=0,
            request_timeout_seconds=0.4,
            # The 0.4 s deadline retries the frame: every attempt sleeps.
            chaos=ChaosSpec(
                delay_on=(0,), delay_seconds=1.5, delay_attempts=10
            ),
        )
        with GatewayThread(config) as gw:
            frame = generate_scene(seed=3, resolution=24).astype(np.int64)
            t0 = time.perf_counter()
            status, _, payload = post_frame(gw, frame)
            elapsed = time.perf_counter() - t0
            assert status == 504
            assert "deadline" in payload["error"]
            assert payload["timeout_seconds"] == pytest.approx(0.4)
            # The 504 must arrive at the deadline, not after the frame.
            assert elapsed < 1.4
            _, _, health = request(gw, "GET", "/healthz")
            assert json.loads(health)["timeouts"] == 1


class TestChaos:
    def test_killed_worker_still_answers_and_frees_its_slot(self):
        """Frame 1, the first after the single warm frame, SIGKILLs its
        worker: the client still gets a 200 with the sequential pixels,
        and the ring gets every slot back once the dead attempt's
        quarantine expires."""
        config = GatewayConfig(
            port=0,
            resolution=RES,
            window=WINDOW,
            workers=1,
            slots=2,
            chaos=ChaosSpec(kill_on=(1,)),
        )
        frame = generate_scene(seed=5, resolution=RES).astype(np.int64)
        with GatewayThread(config) as gw:
            status, _, payload = post_frame(gw, frame)
            assert status == 200
            assert payload["outputs_b64"] == encode_array(
                sequential_outputs(frame)
            )
            assert payload["attempts"] >= 2 or payload["degraded"]
            deadline = time.monotonic() + 20.0
            while True:
                _, _, body = request(gw, "GET", "/healthz")
                health = json.loads(body)
                if health["free_slots"] == 2 or time.monotonic() > deadline:
                    break
                time.sleep(0.1)
            assert health["free_slots"] == 2
            assert health["errors"] == 0


class TestThreads:
    def test_warm_gateway_adds_only_its_event_loop_thread(self, frame):
        """The event loop drives the ring itself: no bridge thread, no
        pool handler threads, no executor thread."""
        before = set(threading.enumerate())
        config = GatewayConfig(port=0, resolution=RES, window=WINDOW, workers=2)
        with GatewayThread(config) as gw:
            for _ in range(3):
                status, _, _ = post_frame(gw, frame)
                assert status == 200
            added = set(threading.enumerate()) - before
            assert [t.name for t in added] == ["repro-gateway"]
