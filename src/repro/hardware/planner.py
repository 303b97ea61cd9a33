"""Cost-optimising FIFO placement over a memory-primitive portfolio.

The seed model answered one question — "how many RAMB18s?" — with
formulas specialised to the XC7Z020.  The planner generalises the same
arithmetic to a portfolio: for every FIFO in a memory-mapping plan (the
shallow NBits / BitMap management streams, the deep packed payload
rows, and the traditional architecture's kernel line buffers) it
enumerates every legal ``(primitive, port config, cascade)`` placement
offered by the device's :class:`~repro.hardware.primitives.Portfolio`
and keeps the cheapest.

Legality rules, in one place:

- a placement must cover the FIFO: ``width_splits * depth_splits``
  units of the chosen port configuration hold the declared geometry;
- ``storage="block"`` FIFOs (payload rows, line buffers — the RTL
  instantiates them as block FIFOs) never map to LUTRAM; ``"auto"``
  considers every primitive;
- LUTRAM placements respect the primitive's per-FIFO unit cap;
- on an elision-enabled portfolio, a small array
  (:func:`~repro.hardware.primitives.small_array_elided`) costs zero
  units — the synthesiser folds it into slice fabric.

Payload rows are special: Fig 11 pools ``r`` adjacent window rows into
one primitive, so their placement is a *joint* choice of ``(primitive,
rows-per-unit)``.  Option ``r`` is feasible when every aligned group of
``r`` worst-case row sizes fits one unit; when nothing fits, rows
cascade individually (``r = 1``) across ``ceil(bits / unit)`` units —
exactly the seed fallback, generalised from RAMB18 to any primitive.

A placement costs its physical storage bits, so "cheapest" means
"fewest memory bits committed": candidates sort by ``(storage_bits,
units, portfolio index)``, ties breaking toward fewer units, then
portfolio preference order.  Inside each primitive the port
configuration is the exhaustive minimum-unit choice
(:meth:`~repro.hardware.primitives.MemoryPrimitive.best_config`).

:func:`plan_placement` is the one design-time memory plan.  Its
default device (XC7Z020) resolves to the RAMB18-only compatibility
portfolio, where every figure of the paper's Tables I-V reproduces;
:class:`PlacementPlan` carries those tables' names (``rows_per_bram``,
``packed_brams``, ...).  The same plan's :class:`PayloadPlacement` is
the only source of row grouping and per-group capacity that
:class:`~repro.core.window.compressed.CompressedEngine` enforces at run
time.

Everything here is integer arithmetic (REP001): the planner's counts
feed the engine's runtime capacity enforcement, so a float would poison
the bit-exactness contract.  The two saving percentages are the only
ratios, each behind an explicit waiver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..config import ArchitectureConfig
from ..errors import ConfigError
from .device import XC7Z020
from .primitives import (
    ELISION_LIMIT_BITS,
    MemoryPrimitive,
    Portfolio,
    PortConfig,
    small_array_elided,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .device import FPGADevice

#: FIFO storage directives understood by :func:`place_fifo`.
STORAGE_HINTS: tuple[str, ...] = ("auto", "block")


@dataclass(frozen=True, slots=True)
class FifoSpec:
    """One logical FIFO the planner must place."""

    name: str
    #: Words the FIFO holds.
    depth: int
    #: Bits per word.
    width: int
    #: Identical instances (e.g. one line buffer per window row).
    count: int = 1
    #: ``auto`` | ``block`` — see module docstring.
    storage: str = "auto"

    def __post_init__(self) -> None:
        if self.depth < 0 or self.width < 0:
            raise ConfigError(
                f"{self.name}: depth and width must be non-negative"
            )
        if self.count < 1:
            raise ConfigError(f"{self.name}: count must be >= 1")
        if self.storage not in STORAGE_HINTS:
            raise ConfigError(
                f"{self.name}: storage must be one of {STORAGE_HINTS}, "
                f"got {self.storage!r}"
            )

    @property
    def bits_each(self) -> int:
        """Declared bits of one instance."""
        return self.depth * self.width


@dataclass(frozen=True, slots=True)
class Placement:
    """The chosen realisation of one :class:`FifoSpec`."""

    fifo: FifoSpec
    #: ``None`` when the array is elided into slice fabric.
    primitive: MemoryPrimitive | None
    config: PortConfig | None
    #: Total units across all ``fifo.count`` instances.
    units: int
    #: Cascade shape of one instance.
    width_splits: int
    depth_splits: int
    #: Slice LUTs the placement consumes (LUTRAM only).
    luts: int
    elided: bool = False

    @property
    def kind(self) -> str:
        """Inventory kind (``elided`` for zero-block placements)."""
        if self.primitive is None:
            return "elided"
        return self.primitive.kind

    @property
    def storage_bits(self) -> int:
        """Physical memory bits committed (0 when elided)."""
        if self.primitive is None:
            return 0
        return self.units * self.primitive.unit_bits

    def describe(self) -> str:
        """One report line, e.g. ``8 x LUTRAM (64 x 8)``."""
        if self.primitive is None or self.config is None:
            reason = "<= 1024 bits" if self.elided else "empty"
            return f"elided ({reason})"
        shape = self.config.name
        if self.width_splits * self.depth_splits > 1:
            shape += f", {self.width_splits}w x {self.depth_splits}d cascade"
        return f"{self.units} x {self.primitive.name} ({shape})"


@dataclass(frozen=True, slots=True)
class PayloadPlacement:
    """Joint (primitive, rows-per-unit) choice for the packed row FIFOs."""

    primitive: MemoryPrimitive
    #: Fig 11 pooling factor: window rows sharing one unit.
    rows_per_group: int
    #: Units allocated to each aligned group (0 = group elided).
    per_group_units: tuple[int, ...]

    @property
    def n_groups(self) -> int:
        """Aligned row groups (``window_size / rows_per_group``)."""
        return len(self.per_group_units)

    @property
    def units(self) -> int:
        """Total primitive units across all groups."""
        return sum(self.per_group_units)

    @property
    def storage_bits(self) -> int:
        """Physical memory bits committed."""
        return self.units * self.primitive.unit_bits

    @property
    def elided_groups(self) -> int:
        """Groups folded into slice fabric by the elision rule."""
        return sum(1 for u in self.per_group_units if u == 0)

    def group_capacity_bits(self, group: int) -> int:
        """Enforceable bit capacity of one group's allocation.

        An elided group is bounded by the elision limit itself: holding
        more than 1024 bits would have required a block primitive.
        """
        units = self.per_group_units[group]
        if units == 0:
            return ELISION_LIMIT_BITS
        return units * self.primitive.unit_bits

    def group_capacity_list(self) -> tuple[int, ...]:
        """Per-group enforceable capacities, in group order."""
        return tuple(
            self.group_capacity_bits(g) for g in range(self.n_groups)
        )

    def describe(self) -> str:
        """One report line, e.g. ``1 x URAM, 64 rows/group``."""
        note = (
            f" ({self.elided_groups} group(s) elided)"
            if self.elided_groups
            else ""
        )
        return (
            f"{self.units} x {self.primitive.name}, "
            f"{self.rows_per_group} rows/group{note}"
        )


def _empty_placement(spec: FifoSpec, *, elided: bool) -> Placement:
    return Placement(
        fifo=spec,
        primitive=None,
        config=None,
        units=0,
        width_splits=0,
        depth_splits=0,
        luts=0,
        elided=elided,
    )


def place_fifo(spec: FifoSpec, portfolio: Portfolio) -> Placement:
    """Cheapest legal placement of one FIFO on ``portfolio``."""
    if spec.bits_each == 0:
        return _empty_placement(spec, elided=False)
    candidates: list[tuple[tuple[int, int, int], Placement]] = []
    if portfolio.small_array_elision and small_array_elided(
        spec.depth, spec.width
    ):
        candidates.append(
            ((0, 0, -1), _empty_placement(spec, elided=True))
        )
    for index, prim in enumerate(portfolio.primitives):
        if spec.storage == "block" and prim.kind == "lutram":
            continue
        config = prim.best_config(spec.depth, spec.width)
        width_splits, depth_splits = config.splits_for(
            spec.depth, spec.width
        )
        per_instance = width_splits * depth_splits
        if (
            prim.max_units_per_fifo is not None
            and per_instance > prim.max_units_per_fifo
        ):
            continue
        units = per_instance * spec.count
        candidates.append(
            (
                (units * prim.unit_bits, units, index),
                Placement(
                    fifo=spec,
                    primitive=prim,
                    config=config,
                    units=units,
                    width_splits=width_splits,
                    depth_splits=depth_splits,
                    luts=prim.luts_per_unit * units,
                ),
            )
        )
    if not candidates:
        raise ConfigError(
            f"no legal placement for {spec.name} "
            f"({spec.depth} x {spec.width}, storage={spec.storage!r}) "
            f"on portfolio {portfolio.name!r}"
        )
    return min(candidates, key=lambda c: c[0])[1]


def _divisors_descending(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(n, 0, -1) if n % d == 0)


def _payload_on_primitive(
    rows: np.ndarray,
    primitive: MemoryPrimitive,
    options: tuple[int, ...],
    *,
    elide: bool,
) -> tuple[int, tuple[int, ...]]:
    """Best (rows_per_group, per-group units) of one primitive.

    Scans the pooling options; feasible options allocate one unit per
    group, the ``r = 1`` cascade fallback is always a candidate.  Picks
    minimum units, ties toward the more aggressive pooling.  With the
    compatibility option list (8, 4, 2, 1) and elision off this is the
    seed RAMB18 rule: the most aggressive option whose every aligned
    group fits one unit, else one row per unit cascaded.
    """
    n = rows.size

    def _group_units(group_bits: int) -> int:
        if elide and group_bits <= ELISION_LIMIT_BITS:
            return 0
        return 1

    best: tuple[tuple[int, int], int, tuple[int, ...]] | None = None
    for r in options:
        if r < 1 or n % r:
            continue
        sums = rows.reshape(n // r, r).sum(axis=1)
        if int(sums.max()) > primitive.unit_bits:
            continue
        per_group = tuple(_group_units(int(s)) for s in sums)
        key = (sum(per_group), -r)
        if best is None or key < best[0]:
            best = (key, r, per_group)
    # Cascade fallback: every row on its own, across as many units as
    # its worst-case size needs (the seed's max(1, ceil(...)) rule).
    per_row = tuple(
        0
        if (elide and int(b) <= ELISION_LIMIT_BITS)
        else max(1, -(-int(b) // primitive.unit_bits))
        for b in rows
    )
    key = (sum(per_row), -1)
    if best is None or key < best[0]:
        best = (key, 1, per_row)
    return best[1], best[2]


def place_payload(
    window_size: int,
    stored_row_bits: np.ndarray,
    portfolio: Portfolio,
) -> PayloadPlacement:
    """Cheapest pooled placement of the packed payload row FIFOs.

    ``stored_row_bits`` holds the worst-case *stored* size of each
    window row stream (protection expansion applied).  The packed
    streams are width-agnostic bit pools, so feasibility compares group
    sums against whole units; LUTRAM is excluded — the RTL instantiates
    the payload FIFOs as block memories.
    """
    rows = np.asarray(stored_row_bits, dtype=np.int64)
    if rows.ndim != 1 or rows.size != window_size:
        raise ConfigError(
            f"expected {window_size} stored row sizes, got shape {rows.shape}"
        )
    if rows.size and int(rows.min()) < 0:
        raise ConfigError("stored row sizes must be non-negative")
    options = (
        portfolio.payload_options
        if portfolio.payload_options is not None
        else _divisors_descending(window_size)
    )
    best: tuple[tuple[int, int, int], PayloadPlacement] | None = None
    for index, prim in enumerate(portfolio.primitives):
        if prim.kind == "lutram":
            continue
        r, per_group = _payload_on_primitive(
            rows, prim, options, elide=portfolio.small_array_elision
        )
        units = sum(per_group)
        key = (units * prim.unit_bits, units, index)
        if best is None or key < best[0]:
            best = (
                key,
                PayloadPlacement(
                    primitive=prim,
                    rows_per_group=r,
                    per_group_units=per_group,
                ),
            )
    if best is None:
        raise ConfigError(
            f"portfolio {portfolio.name!r} has no block primitive for "
            "the payload rows"
        )
    return best[1]


@dataclass(frozen=True, slots=True)
class PlacementPlan:
    """Per-FIFO placement report for one architecture configuration."""

    config: ArchitectureConfig
    portfolio: Portfolio = field(repr=False)
    protection: str
    payload: PayloadPlacement
    nbits: Placement
    bitmap: Placement
    #: The traditional architecture's N line buffers, placed on the
    #: same portfolio — the like-for-like savings baseline.
    line_buffers: Placement

    @property
    def management(self) -> tuple[Placement, ...]:
        """The shallow management-stream placements."""
        return (self.nbits, self.bitmap)

    # The paper's Tables I-V names, in units of the chosen primitives
    # (RAMB18s on the default XC7Z020 portfolio).

    @property
    def rows_per_bram(self) -> int:
        """Fig 11 option: window rows pooled into one payload group."""
        return self.payload.rows_per_group

    @property
    def packed_brams(self) -> int:
        """Units holding the packed payload rows."""
        return self.payload.units

    @property
    def management_brams(self) -> int:
        """Units holding the NBits and BitMap streams."""
        return sum(p.units for p in self.management)

    @property
    def total_brams(self) -> int:
        """Packed plus management units."""
        return self.packed_brams + self.management_brams

    @property
    def traditional_brams(self) -> int:
        """Units of the traditional architecture's line buffers."""
        return self.line_buffers.units

    @property
    def bram_saving_percent(self) -> float:
        """Eq. (5) over unit counts (0 when there is no baseline)."""
        trad = self.traditional_brams
        if trad == 0:
            return 0.0  # reprolint: disable=REP001
        return (1.0 - self.total_brams / trad) * 100.0  # reprolint: disable=REP001

    @property
    def nominal_saving_percent(self) -> float:
        """Fig 11's nominal saving of the chosen option: ``1 - 1/r``."""
        return (1.0 - 1.0 / self.rows_per_bram) * 100.0  # reprolint: disable=REP001

    @property
    def storage_bits(self) -> int:
        """Physical memory bits of the compressed architecture."""
        return self.payload.storage_bits + sum(
            p.storage_bits for p in self.management
        )

    @property
    def luts(self) -> int:
        """Slice LUTs consumed by LUTRAM placements."""
        return sum(p.luts for p in self.management)

    @property
    def traditional_storage_bits(self) -> int:
        """Physical memory bits of the traditional line buffers."""
        return self.line_buffers.storage_bits

    @property
    def storage_saving_bits(self) -> int:
        """Memory bits saved vs the traditional architecture."""
        return self.traditional_storage_bits - self.storage_bits

    def unit_counts(self) -> dict[str, int]:
        """Compressed-architecture units per primitive kind."""
        counts: dict[str, int] = {}
        if self.payload.units:
            kind = self.payload.primitive.kind
            counts[kind] = counts.get(kind, 0) + self.payload.units
        for placement in self.management:
            if placement.units:
                kind = placement.kind
                counts[kind] = counts.get(kind, 0) + placement.units
        return counts

    def usage(self) -> dict[str, int]:
        """Device-inventory demand of the compressed architecture.

        LUTRAM units surface as ``luts`` — distributed RAM draws from
        the slice fabric, not from a dedicated site inventory.
        """
        demand = {
            kind: units
            for kind, units in self.unit_counts().items()
            if kind != "lutram"
        }
        if self.luts:
            demand["luts"] = self.luts
        return demand

    def fits(self, device: "FPGADevice") -> bool:
        """True when the compressed plan fits ``device``'s inventories."""
        return device.accommodates(self.usage())

    def render(self) -> str:
        """The per-FIFO placement report as aligned text."""
        header = (
            f"placement — {self.config.describe()} on "
            f"{self.portfolio.name}"
            + (f" [{self.protection} ECC]" if self.protection != "none" else "")
        )
        rows: list[tuple[str, str, int, int]] = [
            (
                f"payload x{self.config.window_size}",
                self.payload.describe(),
                self.payload.storage_bits,
                0,
            )
        ]
        for placement in self.management:
            rows.append(
                (
                    placement.fifo.name,
                    placement.describe(),
                    placement.storage_bits,
                    placement.luts,
                )
            )
        rows.append(
            (
                f"line x{self.line_buffers.fifo.count} (trad)",
                self.line_buffers.describe(),
                self.line_buffers.storage_bits,
                self.line_buffers.luts,
            )
        )
        name_w = max(len(r[0]) for r in rows)
        desc_w = max(len(r[1]) for r in rows)
        lines = [header]
        for name, desc, bits, luts in rows:
            lines.append(
                f"  {name.ljust(name_w)}  {desc.ljust(desc_w)}  "
                f"{bits} bits" + (f"  {luts} LUTs" if luts else "")
            )
        lines.append(
            f"  compressed {self.storage_bits} bits vs traditional "
            f"{self.traditional_storage_bits} bits "
            f"(saves {self.storage_saving_bits})"
        )
        return "\n".join(lines)


def line_buffer_fifo(config: ArchitectureConfig) -> FifoSpec:
    """The traditional architecture's N line buffers (Table I).

    One block FIFO per window row, each holding one W-pixel image row.
    """
    return FifoSpec(
        name="line",
        depth=config.image_width,
        width=config.pixel_bits,
        count=config.window_size,
        storage="block",
    )


def plan_placement(
    config: ArchitectureConfig,
    row_bits_worst: np.ndarray,
    *,
    device: "FPGADevice | None" = None,
    protection: object | None = None,
) -> PlacementPlan:
    """Place every FIFO of one design point on a device's portfolio.

    ``row_bits_worst`` carries the worst-case *raw* packed bits per
    window row, the largest seen across the provisioning frames
    (Section V.E's "worst-case scenario").  Protection expansion (the
    resilience overhead) is applied here, so an ECC'd plan provisions
    for its stored size.  With no ``device`` the plan is placed on the
    XC7Z020's compatibility portfolio.
    """
    # Imported lazily: resolve_policy pulls the resilience layer in
    # only when a plan is actually built.
    from ..resilience.protection import resolve_policy

    portfolio = (device if device is not None else XC7Z020).portfolio
    policy = resolve_policy(protection)
    rows = np.asarray(row_bits_worst, dtype=np.int64)
    if rows.ndim != 1 or rows.size != config.window_size:
        raise ConfigError(
            f"expected {config.window_size} row sizes, got shape {rows.shape}"
        )
    stored_rows = np.asarray(
        policy.payload.scaled_bits(rows), dtype=np.int64
    )
    payload = place_payload(config.window_size, stored_rows, portfolio)
    cols = config.buffered_columns
    nbits = place_fifo(
        FifoSpec(
            name="nbits",
            depth=cols,
            width=int(policy.nbits.scaled_bits(2 * config.nbits_field_width)),
        ),
        portfolio,
    )
    bitmap = place_fifo(
        FifoSpec(
            name="bitmap",
            depth=cols,
            width=int(policy.bitmap.scaled_bits(config.window_size)),
        ),
        portfolio,
    )
    line_buffers = place_fifo(line_buffer_fifo(config), portfolio)
    return PlacementPlan(
        config=config,
        portfolio=portfolio,
        protection=policy.name,
        payload=payload,
        nbits=nbits,
        bitmap=bitmap,
        line_buffers=line_buffers,
    )
