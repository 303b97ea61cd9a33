"""The traditional line-buffering sliding window architecture (Section III).

Two engines:

- :class:`TraditionalEngine` — production path: golden outputs (the
  architecture is functionally transparent) plus the architectural cycle
  and buffer statistics, computed analytically.
- :class:`TraditionalCycleEngine` — a cycle-accurate simulator with real
  FIFO delay lines and a shift-register window, used to validate that the
  analytic engine's claims (state machine, 1 output/cycle, window
  contents) hold operation-by-operation.  Its outputs are one
  :func:`golden_apply` per traversal band, so they match the analytic
  engine exactly.  The model folds the window's
  horizontal shift registers into the line delay (each line delays exactly
  one full image row, W cycles); the *architectural* FIFO depth ``W - N``
  from the paper is what the resource accounting uses.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from typing import TYPE_CHECKING

from ...errors import StateError
from ...observability.probe import NULL_PROBE
from .base import EngineStats, SlidingWindowEngine, WindowRun
from .golden import golden_apply

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...observability.probe import Probe
    from ...spec import EngineSpec


def traditional_fill_cycles(window_size: int, image_width: int) -> int:
    """Cycles before the first valid window: ``(N-1) * W + (N-1)``."""
    return (window_size - 1) * image_width + (window_size - 1)


class TraditionalEngine(SlidingWindowEngine):
    """Fast functional model of the line-buffering architecture."""

    @classmethod
    def from_spec(
        cls, spec: "EngineSpec", *, probe: "Probe | None" = None
    ) -> "TraditionalEngine":
        """Build from an :class:`~repro.spec.EngineSpec` describing this kind."""
        if spec.engine != "traditional":
            from ...errors import ConfigError

            raise ConfigError(
                f"spec describes a {spec.engine!r} engine, not a traditional one"
            )
        return spec.build(probe=probe)

    def run(self, image: np.ndarray) -> WindowRun:
        """Golden outputs with analytic architectural statistics."""
        arr = self._validate_image(image)
        cfg = self.config
        prb = self.probe if self.probe is not None else NULL_PROBE
        with prb.span("run"):
            with prb.span("kernel"):
                outputs = golden_apply(arr, cfg.window_size, self.kernel)
            fill = traditional_fill_cycles(cfg.window_size, cfg.image_width)
            stats = EngineStats(
                fill_cycles=fill,
                process_cycles=arr.size - fill,
                drain_cycles=0,
                pixels_in=arr.size,
                outputs=outputs.size,
                buffer_bits_peak=cfg.traditional_buffer_bits,
                traditional_buffer_bits=cfg.traditional_buffer_bits,
            )
        run = WindowRun(outputs=outputs, stats=stats)
        if self.probe is not None:
            self.probe.count("repro_frames_total", engine="traditional")
            run.metrics = self.probe.snapshot()
        return run


class TraditionalCycleEngine(SlidingWindowEngine):
    """Cycle-accurate FIFO + shift-register simulator.

    One pixel enters per cycle; line delay FIFOs recirculate each exiting
    row sample into the row above for the next traversal, and the active
    window shift register is checked against the band those columns
    build.  Kernel outputs are one :func:`golden_apply` per traversal over
    that ``N x W`` band, which matches the whole-frame call exactly.
    Intended for validation on small images (cost is ``O(H * W * N^2)``).
    """

    def run(self, image: np.ndarray) -> WindowRun:
        """Simulate every cycle; outputs are produced in raster order."""
        arr = self._validate_image(image).astype(np.int64)
        cfg = self.config
        n, w, h = cfg.window_size, cfg.image_width, cfg.image_height

        fifos: list[deque[int]] = [deque() for _ in range(n - 1)]
        window = np.zeros((n, n), dtype=np.int64)
        band = np.zeros((n, w), dtype=np.int64)
        out_rows: list[np.ndarray] = []
        fill = traditional_fill_cycles(n, w)
        outputs_produced = 0

        for y in range(h):
            for x in range(w):
                # Assemble the incoming column: FIFO outputs feed rows
                # 0..N-2, the raw pixel feeds the bottom row.
                newcol = band[:, x]
                for k in range(n - 1):
                    newcol[k] = fifos[k].popleft() if len(fifos[k]) == w else 0
                newcol[n - 1] = arr[y, x]
                # Each line FIFO receives the sample one row below.
                for k in range(n - 1):
                    fifos[k].append(int(newcol[k + 1]))
                # Shift the active window left; newest column on the right.
                window[:, :-1] = window[:, 1:]
                window[:, -1] = newcol
                if y >= n - 1 and x >= n - 1:
                    if not np.array_equal(window, band[:, x - n + 1 : x + 1]):
                        raise StateError(
                            f"shift-register window diverged at ({y}, {x})"
                        )
                    outputs_produced += 1
            if y >= n - 1:
                out_rows.append(golden_apply(band, n, self.kernel)[0])

        stats = EngineStats(
            fill_cycles=fill,
            process_cycles=arr.size - fill,
            drain_cycles=0,
            pixels_in=arr.size,
            outputs=outputs_produced,
            buffer_bits_peak=cfg.traditional_buffer_bits,
            traditional_buffer_bits=cfg.traditional_buffer_bits,
        )
        return WindowRun(outputs=np.vstack(out_rows), stats=stats)
