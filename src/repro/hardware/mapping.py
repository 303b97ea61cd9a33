"""Table I: the traditional architecture's line-buffer BRAM count.

The compressed architecture's memory plan (Fig 11 / Tables II-V) is
:func:`~repro.hardware.planner.plan_placement`; on its default XC7Z020
portfolio every count is in RAMB18s.  This module keeps the one Table I
figure the paper quotes on its own, computed by the same planner: the
line buffers placed on that default portfolio.
"""

from __future__ import annotations

from ..config import ArchitectureConfig
from .device import XC7Z020
from .planner import line_buffer_fifo, place_fifo


def traditional_bram_count(config: ArchitectureConfig) -> int:
    """Table I: BRAMs used by the traditional line-buffering architecture.

    The paper provisions one FIFO per *window row* (N FIFOs) and realises
    each as ``ceil`` of a W-pixel row over the best BRAM geometry —
    one BRAM up to 2048 eight-bit pixels (2k x 9), two for 3840.
    """
    return place_fifo(line_buffer_fifo(config), XC7Z020.portfolio).units
