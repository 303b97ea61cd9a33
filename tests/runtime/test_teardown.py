"""Exit-time teardown ordering: workers die before the ring unlinks.

A process that exits while frames are still in flight must not leak
``/dev/shm`` blocks or trip the multiprocessing resource tracker.  The
fix under test: every live :class:`StreamingProcessor` is closed by an
``atexit`` hook registered *after* the pool-module and multiprocessing
hooks — LIFO ordering runs it first, terminating the workers while the
ring is still mapped, then unlinking cleanly.  These tests exercise real
interpreter exits in subprocesses.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: Exits mid-stream: frames submitted, none consumed, no close() call.
_BUSY_EXIT_SCRIPT = """
import numpy as np
from repro import ArchitectureConfig, EngineSpec
from repro.kernels import BoxFilterKernel
from repro.runtime import StreamingProcessor

config = ArchitectureConfig(image_width=32, image_height=32, window_size=8)
spec = EngineSpec(config=config, kernel=BoxFilterKernel(8))
proc = StreamingProcessor(spec, workers=2)
print("SHM_NAME", proc._ring.spec.name, flush=True)
rng = np.random.default_rng(0)
for _ in range(3):
    proc.submit(rng.integers(0, 256, size=(32, 32), dtype=np.int64))
print("SUBMITTED", flush=True)
# Exit with the ring busy and the pool alive -- no close(), no context
# manager.  The atexit hook must clean up in the right order.
"""


def _run(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
    )


def test_exit_with_busy_ring_leaks_nothing():
    result = _run(_BUSY_EXIT_SCRIPT)
    assert result.returncode == 0, result.stderr
    assert "SUBMITTED" in result.stdout
    shm_name = None
    for line in result.stdout.splitlines():
        if line.startswith("SHM_NAME "):
            shm_name = line.split(" ", 1)[1].strip()
    assert shm_name, result.stdout
    # The segment must be gone from /dev/shm after the interpreter exits.
    leaked = list(Path("/dev/shm").glob(f"*{shm_name.lstrip('/')}*"))
    assert not leaked, f"leaked shared memory: {leaked}"
    # And the resource tracker must not have had to clean up behind us:
    # its "leaked shared_memory" warning is the signature of the
    # unlink-order bug.  (Semaphore-leak tracker noise from terminating a
    # busy pool is a separate multiprocessing artifact, deliberately not
    # asserted on here.)
    assert "leaked shared_memory" not in result.stderr, result.stderr


def test_clean_close_is_idempotent_under_atexit():
    script = """
import numpy as np
from repro import ArchitectureConfig, EngineSpec
from repro.kernels import BoxFilterKernel
from repro.runtime import StreamingProcessor

config = ArchitectureConfig(image_width=32, image_height=32, window_size=8)
spec = EngineSpec(config=config, kernel=BoxFilterKernel(8))
with StreamingProcessor(spec, workers=1) as proc:
    frame = np.arange(32 * 32, dtype=np.int64).reshape(32, 32) % 251
    results = list(proc.map([frame]))
    assert len(results) == 1
print("DONE", flush=True)
"""
    result = _run(script)
    assert result.returncode == 0, result.stderr
    assert "DONE" in result.stdout
    assert "leaked shared_memory" not in result.stderr, result.stderr
