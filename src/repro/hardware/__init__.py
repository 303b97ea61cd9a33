"""FPGA hardware substrate models.

The paper evaluates on a Xilinx Zynq XC7Z020 with Vivado 2015.3.  This
package replaces that toolchain with analytical models:

- :mod:`repro.hardware.primitives` — the memory-primitive portfolio
  (BRAM18 / BRAM36 / URAM / LUTRAM) with exact integer config tables
  and Vivado's small-array elision rule;
- :mod:`repro.hardware.planner` — the one design-time memory plan: the
  cost-optimising placement search mapping every FIFO of a design point
  onto a device's portfolio.  On the default XC7Z020 it yields the
  paper's RAMB18 counts (Fig 11 rows-per-BRAM options, Tables II-V), and
  its per-group payload capacities are what
  :class:`~repro.core.window.compressed.CompressedEngine` enforces;
- :mod:`repro.hardware.bram` — the 18 Kb block RAM primitive's geometry
  table (16k x 1 ... 512 x 36);
- :mod:`repro.hardware.mapping` — Table I's traditional line-buffer
  count, placed by the same planner;
- :mod:`repro.hardware.resources` — the LUT / register / Fmax estimator
  calibrated against the paper's published synthesis anchors (Tables VI-X);
- :mod:`repro.hardware.device` — device catalog with per-primitive
  inventories (XC7Z020 and friends, plus UltraScale+ parts).

The public placement surface is the portfolio API (``MemoryPrimitive``,
``Portfolio``, ``Placement``, ``plan_placement``).
"""

from .bram import BRAM_CAPACITY_BITS, BramConfig, BRAM_CONFIGS
from .primitives import (
    BRAM18,
    BRAM36,
    ELISION_LIMIT_BITS,
    LUTRAM,
    URAM,
    BRAM18_COMPAT,
    MemoryPrimitive,
    PortConfig,
    Portfolio,
    portfolio_for,
    small_array_elided,
)
from .planner import (
    CostVector,
    DEFAULT_COST_VECTOR,
    FifoSpec,
    Placement,
    PayloadPlacement,
    PlacementPlan,
    place_fifo,
    place_payload,
    plan_placement,
)
from .mapping import traditional_bram_count
from .resources import (
    ResourceEstimate,
    ResourceModel,
    BLOCK_ANCHORS,
)
from .device import DEVICES, FPGADevice, XC7Z020, ZU7EV
from .ecc import SecdedCodec
from .latency import (
    LatencyReport,
    compressed_latency,
    latency_overhead_percent,
    traditional_latency,
)

__all__ = [
    "BRAM_CAPACITY_BITS",
    "BramConfig",
    "BRAM_CONFIGS",
    "BRAM18",
    "BRAM36",
    "URAM",
    "LUTRAM",
    "BRAM18_COMPAT",
    "ELISION_LIMIT_BITS",
    "MemoryPrimitive",
    "PortConfig",
    "Portfolio",
    "portfolio_for",
    "small_array_elided",
    "CostVector",
    "DEFAULT_COST_VECTOR",
    "FifoSpec",
    "Placement",
    "PayloadPlacement",
    "PlacementPlan",
    "place_fifo",
    "place_payload",
    "plan_placement",
    "traditional_bram_count",
    "ResourceEstimate",
    "ResourceModel",
    "BLOCK_ANCHORS",
    "FPGADevice",
    "DEVICES",
    "XC7Z020",
    "ZU7EV",
    "SecdedCodec",
    "LatencyReport",
    "traditional_latency",
    "compressed_latency",
    "latency_overhead_percent",
]
