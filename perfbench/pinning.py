"""Where the benchmark keeps its files, and the environment it pins.

Every process the benchmark starts, itself included, runs with one BLAS
and one OpenMP thread: with OpenBLAS's default of one thread per core,
the BoxFilter GEMM of a 512x512 frame competes with itself on a 2-core
host and its latency wanders by a factor of two.  The benchmark runs
on one CPU and launches the servers it measures on another (the same
one on a single-CPU host), so the load generator never time-shares a
core with the system under test.  The compiled codec tier caches its
objects in the benchmark's own directory, which the benchmark warms
before any set-up is timed.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: Root of the checkout (the directory holding ``src/`` and this folder).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space of the benchmark: native objects, set-up frames, logs.
WORK_DIR = ROOT / ".perfbench"

PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: CPUs found at start-up: ``(benchmark, server)``, set by :func:`pin_environment`.
CPUS: dict[str, int] = {}


def pin_environment() -> None:
    """Pin this process (and so every child) before NumPy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_environment() must run before numpy is imported")
    os.environ.update(PINNED_THREADS)
    allowed = sorted(os.sched_getaffinity(0))
    CPUS.update(nproc=len(allowed), benchmark=allowed[-1], server=allowed[0])
    os.sched_setaffinity(0, {CPUS["benchmark"]})
    os.environ["REPRO_NATIVE_CACHE"] = str(WORK_DIR / "native")
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = src
    os.environ["PYTHONUNBUFFERED"] = "1"
    if src not in sys.path:
        sys.path.insert(0, src)
    WORK_DIR.mkdir(exist_ok=True)


def pin_to_server_cpu() -> None:
    """``preexec_fn`` of a launched server: move it to the server CPU."""
    os.sched_setaffinity(0, {CPUS["server"]})


def environment_info() -> dict[str, object]:
    """What the numbers depend on: cores, versions, BLAS, codec tier."""
    import numpy as np

    from repro.core.packing.tiers import resolve_codec

    blas: object = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": CPUS["nproc"],
        "cpu_benchmark": CPUS["benchmark"],
        "cpu_server": CPUS["server"],
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "codec_tier": resolve_codec("auto"),
        "threads": {k: os.environ.get(k) for k in PINNED_THREADS},
    }
