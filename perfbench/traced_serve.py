"""Run ``repro serve`` with span wrappers installed around its layers.

Usage: ``python3 perfbench/traced_serve.py <spans.json> serve [args...]``.
Installs :data:`spans.SERVE_LAYERS`, runs the same CLI entry point as
``python -m repro serve`` in this process (so the gateway still forks
its workers from here), and writes the recorded spans to ``<spans.json>``
when the server stops.
"""

from __future__ import annotations

import sys
from pathlib import Path

import spans


def main(argv: list[str]) -> int:
    """Trace, serve until SIGINT, dump the spans."""
    tracer = spans.Tracer(spans.SERVE_LAYERS).install()
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[1:])
    finally:
        tracer.remove()
        tracer.dump(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
