"""The FPGA memory-primitive portfolio: BRAM18, BRAM36, URAM, LUTRAM.

The seed model priced every buffer in 18 Kb RAMB18s — the only primitive
the paper's XC7Z020 offers.  Real device families carry a *portfolio* of
memory primitives with very different geometry tables, and a placement
that is optimal in RAMB18s can be far from optimal in silicon.  This
module gives each primitive its exact integer configuration table so the
planner (:mod:`repro.hardware.planner`) can price a FIFO in any of them.

==========  ===========  =========================================
primitive   unit (bits)  port geometries (depth x width)
==========  ===========  =========================================
BRAM18      18432        16k x 1 ... 4k x 4 (16384 usable bits),
                         2k x 9 / 1k x 18 / 512 x 36 (parity lanes)
BRAM36      36864        32k x 1, 16k x 2, 8k x 4, 4k x 9, 2k x 18,
                         1k x 36, 512 x 72
URAM        294912       4k x 72 native; 8k x 36 ... 256k x 1 via
                         the cascade extension modes
LUTRAM      512          32 x 16, 64 x 8 per SLICEM (8 LUTs each)
==========  ===========  =========================================

Capacities are exact powers of two (a RAMB36 in x1 mode holds 32768
words, not "32K"): all arithmetic here must stay integer-exact, because
the planner's feasibility checks feed the same bit-accounting the
memory-unit model enforces at runtime.

Two synthesis behaviours ride along with the tables:

- **Small-array elision** — Vivado does not spend a block RAM on a tiny
  array: a FIFO of ``width * depth <= 1024`` bits (strictly ``< 1024``
  for a plain memory) is folded into slice fabric and costs zero block
  primitives.  7-series synthesis pads depths to powers of two before
  this check, so the rule is only enabled on the UltraScale+ portfolio.
- **Cascading** — a buffer wider or deeper than one primitive's port
  splits across ``ceil(width / w) * ceil(depth / d)`` units.

The RAMB18 table is the paper's own (Section V.E): a 7-series RAMB18
holds 16 K data bits plus 2 K parity bits, and the parity bits are only
addressable in the x9 / x18 / x36 aspect ratios, so the usable capacity
of a configuration is 16384 bits up to 4k x 4 and 18432 bits from 2k x 9
on.  ``BRAM18.configs`` is that table and :data:`BRAM_CAPACITY_BITS`
its nominal unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .device import FPGADevice

#: Vivado's small-array threshold: a FIFO of at most this many bits is
#: elided from block RAM.
ELISION_LIMIT_BITS = 1024

#: Nominal capacity of one 18 Kb BRAM in its parity-capable configurations.
BRAM_CAPACITY_BITS = 18 * 1024  # 18432


@dataclass(frozen=True, slots=True)
class PortConfig:
    """One port geometry (aspect ratio) of a memory primitive."""

    depth: int
    width: int

    @property
    def capacity_bits(self) -> int:
        """Usable bits in this configuration."""
        return self.depth * self.width

    @property
    def name(self) -> str:
        """Conventional name, e.g. ``2k x 9`` or ``64 x 8``."""
        if self.depth % 1024 == 0:
            return f"{self.depth // 1024}k x {self.width}"
        return f"{self.depth} x {self.width}"

    def splits_for(self, n_words: int, word_bits: int) -> tuple[int, int]:
        """``(width_splits, depth_splits)`` cascading one logical buffer.

        Wide words cascade units side by side; deep buffers cascade them
        end to end.  Integer ceilings only — float division would lose
        exactness past the 53-bit double mantissa.
        """
        if n_words < 0 or word_bits < 0:
            raise ConfigError("word count and width must be non-negative")
        if n_words == 0 or word_bits == 0:
            return 0, 0
        return -(-word_bits // self.width), -(-n_words // self.depth)

    def units_for(self, n_words: int, word_bits: int) -> int:
        """Primitive units to hold ``n_words`` words of ``word_bits`` bits."""
        w, d = self.splits_for(n_words, word_bits)
        return w * d


@dataclass(frozen=True, slots=True)
class MemoryPrimitive:
    """One memory primitive: its inventory kind and exact config table."""

    #: Display name, e.g. ``BRAM36``.
    name: str
    #: Device-inventory kind this primitive draws from (``bram18``,
    #: ``bram36``, ``uram``) or ``lutram`` (priced in LUTs, not sites).
    kind: str
    #: Physical bits one unit occupies on the die (parity included).
    unit_bits: int
    #: Port geometries, widest first (the order the allocator scans).
    configs: tuple[PortConfig, ...]
    #: Slice LUTs consumed per unit (LUTRAM only; block RAMs cost none).
    luts_per_unit: int = 0
    #: Legality cap: one logical FIFO may cascade at most this many
    #: units (``None`` = unlimited).  Keeps LUTRAM placements from
    #: swallowing whole CLB columns.
    max_units_per_fifo: int | None = None

    def __post_init__(self) -> None:
        if not self.configs:
            raise ConfigError(f"{self.name} needs at least one port config")
        for cfg in self.configs:
            if cfg.capacity_bits > self.unit_bits:
                raise ConfigError(
                    f"{self.name} config {cfg.name} exceeds the "
                    f"{self.unit_bits}-bit unit"
                )

    def best_config(self, n_words: int, word_bits: int) -> PortConfig:
        """Configuration chosen for a logical ``n_words x word_bits`` buffer.

        Scans the whole table and minimises the unit count, ties
        breaking toward the narrowest geometry (matching the paper's
        published choices).
        """
        if n_words <= 0 or word_bits <= 0:
            raise ConfigError(
                f"buffer must be non-empty, got {n_words} words x "
                f"{word_bits} bits"
            )
        return min(
            self.configs,
            key=lambda c: (c.units_for(n_words, word_bits), c.width),
        )

    def units_for(self, n_words: int, word_bits: int) -> int:
        """Minimum units for a logical buffer (0 when it is empty)."""
        if n_words < 0 or word_bits < 0:
            raise ConfigError("word count and width must be non-negative")
        if n_words == 0 or word_bits == 0:
            return 0
        return self.best_config(n_words, word_bits).units_for(
            n_words, word_bits
        )

    def pool_units(self, bits: int) -> int:
        """Units to hold ``bits`` of width-agnostic packed stream data."""
        if bits < 0:
            raise ConfigError(f"bit count must be non-negative, got {bits}")
        return -(-bits // self.unit_bits)


def small_array_elided(n_words: int, word_bits: int) -> bool:
    """Vivado's small-array rule: does this FIFO cost zero block RAMs?

    A FIFO is elided at ``width * depth <= 1024`` bits.  The boundary is
    exact — 1024-bit FIFOs are elided, 1025-bit FIFOs are not.
    """
    return n_words * word_bits <= ELISION_LIMIT_BITS


#: The 18 Kb RAMB18: the paper's port table, widest geometry first.
BRAM18 = MemoryPrimitive(
    name="BRAM18",
    kind="bram18",
    unit_bits=BRAM_CAPACITY_BITS,
    configs=(
        PortConfig(depth=512, width=36),
        PortConfig(depth=1024, width=18),
        PortConfig(depth=2048, width=9),
        PortConfig(depth=4096, width=4),
        PortConfig(depth=8192, width=2),
        PortConfig(depth=16384, width=1),
    ),
)

#: The 36 Kb RAMB36 tile (two RAMB18 sites; x72 only exists here).
BRAM36 = MemoryPrimitive(
    name="BRAM36",
    kind="bram36",
    unit_bits=2 * BRAM_CAPACITY_BITS,
    configs=(
        PortConfig(depth=512, width=72),
        PortConfig(depth=1024, width=36),
        PortConfig(depth=2048, width=18),
        PortConfig(depth=4096, width=9),
        PortConfig(depth=8192, width=4),
        PortConfig(depth=16384, width=2),
        PortConfig(depth=32768, width=1),
    ),
)

#: The UltraScale+ UltraRAM: 4k x 72 native plus the narrow extension
#: modes reached through the URAM cascade column (288 Kb either way).
URAM = MemoryPrimitive(
    name="URAM",
    kind="uram",
    unit_bits=4096 * 72,
    configs=(
        PortConfig(depth=4096, width=72),
        PortConfig(depth=8192, width=36),
        PortConfig(depth=16384, width=18),
        PortConfig(depth=32768, width=9),
        PortConfig(depth=65536, width=4),
        PortConfig(depth=131072, width=2),
        PortConfig(depth=262144, width=1),
    ),
)

#: Distributed RAM: one SLICEM (8 LUTs) holds 512 bits as 32 x 16 or
#: 64 x 8.  Capped at 64 units per FIFO so a "cheap" placement cannot
#: silently consume half a CLB column.
LUTRAM = MemoryPrimitive(
    name="LUTRAM",
    kind="lutram",
    unit_bits=512,
    configs=(
        PortConfig(depth=32, width=16),
        PortConfig(depth=64, width=8),
    ),
    luts_per_unit=8,
    max_units_per_fifo=64,
)


@dataclass(frozen=True, slots=True)
class Portfolio:
    """The memory primitives a placement search may draw from."""

    name: str
    #: Preference order for cost ties (earlier wins).
    primitives: tuple[MemoryPrimitive, ...]
    #: Apply Vivado's small-array elision rule (UltraScale+ behaviour;
    #: 7-series pads depths before the check, so it stays off there).
    small_array_elision: bool = False
    #: Rows-per-unit options for payload pooling; ``None`` means every
    #: divisor of the window size, scanned most aggressive first.
    payload_options: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.primitives:
            raise ConfigError(f"portfolio {self.name!r} has no primitives")
        kinds = [p.kind for p in self.primitives]
        if len(set(kinds)) != len(kinds):
            raise ConfigError(
                f"portfolio {self.name!r} repeats a primitive kind"
            )

    def primitive(self, kind: str) -> MemoryPrimitive:
        """The member primitive of inventory ``kind``."""
        for prim in self.primitives:
            if prim.kind == kind:
                return prim
        raise ConfigError(
            f"portfolio {self.name!r} has no {kind!r} primitive; "
            f"members: {[p.kind for p in self.primitives]}"
        )


#: The compatibility default: exactly the seed model — RAMB18 only, no
#: elision, Fig 11's (8, 4, 2, 1) pooling options.  Every BRAM figure
#: the repo published before the planner existed reproduces bit-for-bit
#: through this portfolio.
BRAM18_COMPAT = Portfolio(
    name="bram18-compat",
    primitives=(BRAM18,),
    small_array_elision=False,
    payload_options=(8, 4, 2, 1),
)


def portfolio_for(device: "FPGADevice") -> Portfolio:
    """The placement portfolio matching one device's silicon.

    7-series parts get the compatibility portfolio (their RAMB36 tiles
    are just RAMB18 pairs for our purposes, and 7-series synthesis does
    not apply the elision rule).  UltraScale+ parts get the full
    portfolio; URAM is included only when the part actually has URAM
    columns (e.g. a ZU3EG has none).
    """
    if device.family == "7series":
        return BRAM18_COMPAT
    prims: tuple[MemoryPrimitive, ...] = (BRAM18, BRAM36)
    if device.uram > 0:
        prims = prims + (URAM,)
    prims = prims + (LUTRAM,)
    return Portfolio(
        name=device.family,
        primitives=prims,
        small_array_elision=True,
        payload_options=None,
    )
