"""Gateway shutdown paths: a signalled ``repro serve`` and open connections.

Stopping the server must close its frame ring (no ``/dev/shm`` segment
left, no resource-tracker leak report) and must not log anything through
the event loop's exception handler, even with a keep-alive connection
still open on the server's side.  From Python 3.12.1 on,
``Server.wait_closed`` waits for every open connection, so both tests
also hang if the gateway waits on it before it ends its connections.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

from repro.serve import GatewayConfig
from repro.serve.gateway import FrameGateway

REPO_SRC = Path(__file__).resolve().parents[2] / "src"
SHM = Path("/dev/shm")


def _segments() -> set[str]:
    return {p.name for p in SHM.iterdir()} if SHM.is_dir() else set()


def test_sigterm_closes_the_ring():
    before = _segments()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--workers", "1", "--resolution", "32", "--window", "8",
        ],  # fmt: skip
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join(
                filter(None, [str(REPO_SRC), os.environ.get("PYTHONPATH")])
            ),
            "PYTHONUNBUFFERED": "1",
        },
    )
    try:
        banner = proc.stdout.readline()
        assert banner.startswith("serving "), banner
        port = int(banner.rsplit(":", 1)[1].split()[0])
        # A keep-alive client still connected when the signal arrives.
        with socket.create_connection(("127.0.0.1", port)) as client:
            client.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            assert client.recv(64).startswith(b"HTTP/1.1 200")
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, stderr
    assert "leaked shared_memory" not in stderr, stderr
    assert not (_segments() - before)


def test_close_with_open_keepalive_connection_logs_nothing():
    async def scenario() -> list[dict[str, object]]:
        loop = asyncio.get_running_loop()
        reported: list[dict[str, object]] = []
        loop.set_exception_handler(lambda _loop, ctx: reported.append(ctx))
        gateway = FrameGateway(
            GatewayConfig(port=0, resolution=32, window=8, workers=1)
        )
        await gateway.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200")
            # The connection stays open: the handler is parked in
            # read_request when close() cancels it.
        finally:
            await gateway.close()
        for _ in range(3):  # let the done-callbacks run
            await asyncio.sleep(0)
        writer.close()
        return reported

    assert asyncio.run(scenario()) == []
