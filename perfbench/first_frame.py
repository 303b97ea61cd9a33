"""Set-up probe: a fresh process that builds one engine and runs one frame.

Usage: ``python3 perfbench/first_frame.py <workload> <frame.npy>``.
Prints the digest of the frame's outputs and size accounting, which the
parent compares with its reference; the parent times this process from
launch to that line.
"""

from __future__ import annotations

import sys

import numpy as np

from inproc import WORKLOADS, run_digest


def main(argv: list[str]) -> int:
    """Build, run the frame, print its digest."""
    workload = WORKLOADS[argv[0]]
    frame = np.load(argv[1])
    run = workload.spec().build().run(frame)
    stats = run.stats
    print(run_digest(run.outputs, stats.buffer_bits_peak, stats.band_total_bits))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
