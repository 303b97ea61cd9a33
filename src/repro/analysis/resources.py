"""Device-portfolio memory planning sweep (``repro resources --device``).

The seed pipeline answered "how many RAMB18s does each design point
cost on the XC7Z020?".  This module asks the generalised question: on a
*given* device — 7-series or UltraScale+ — where does the cost-optimal
placement put every FIFO, and how many memory bits does the compressed
architecture commit against the traditional line buffers?

Each sweep point runs the one planner
(:func:`~repro.hardware.planner.plan_placement`) twice:

- on its default XC7Z020 portfolio (the ``compat`` block), RAMB18-only,
  whose counts must stay bit-identical to the published tables; and
- on the target device's portfolio, which on UltraScale+ parts moves
  shallow management streams into LUTRAM and deep payload pools into
  BRAM36 / URAM.

Both plans provision from one suite sweep,
:func:`~repro.analysis.experiments.suite_worst_row_bits`, the same call
that sizes Tables II-V.

``write_resources_json`` / ``load_resources_json`` serialise the sweep
under the ``repro-resources/2`` schema so CI can diff a machine-checked
artifact instead of a rendered table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..config import PAPER_WINDOW_SIZES, ArchitectureConfig
from ..errors import ConfigError
from ..hardware.device import DEVICES, FPGADevice
from ..hardware.planner import PlacementPlan, plan_placement
from .experiments import suite_worst_row_bits
from .tables import render_table

#: Version tag of the ``repro resources --format json`` payload.
RESOURCES_SCHEMA = "repro-resources/2"

#: Keys every serialised sweep point must carry.
_POINT_KEYS = (
    "window",
    "threshold",
    "compat",
    "placement",
    "fits",
)

#: Keys of the seed-compatible accounting block inside a point.
_COMPAT_KEYS = ("rows_per_bram", "packed_brams", "management_brams", "total_brams")

#: Keys of the portfolio-placement block inside a point.
_PLACEMENT_KEYS = (
    "units",
    "storage_bits",
    "traditional_storage_bits",
    "payload",
    "nbits",
    "bitmap",
)


@dataclass(frozen=True, slots=True)
class ResourcesOptions:
    """Knobs of one device-sweep run."""

    device: str = "XC7Z020"
    width: int = 512
    windows: tuple[int, ...] = PAPER_WINDOW_SIZES
    threshold: int = 0
    n_images: int = 3
    protection: str | None = None

    def __post_init__(self) -> None:
        if self.device not in DEVICES:
            raise ConfigError(
                f"unknown device {self.device!r}; choose from {sorted(DEVICES)}"
            )
        if self.width < 2:
            raise ConfigError(f"width must be >= 2, got {self.width}")
        if not self.windows or any(n < 2 for n in self.windows):
            raise ConfigError(f"windows must all be >= 2, got {self.windows}")
        if self.n_images < 1:
            raise ConfigError(f"n_images must be >= 1, got {self.n_images}")

    @property
    def target(self) -> FPGADevice:
        """The resolved device entry."""
        return DEVICES[self.device]


@dataclass(frozen=True, slots=True)
class ResourcePoint:
    """Both accounting models at one (window, threshold) design point."""

    window: int
    threshold: int
    #: RAMB18-only plan on the default portfolio (always bit-identical
    #: to the published Tables II-V arithmetic).
    compat: PlacementPlan
    #: Cost-optimal placement on the target device's portfolio.
    placement: PlacementPlan
    #: Whether the compressed placement fits the device inventories.
    fits: bool

    @property
    def saving_percent(self) -> float:
        """Memory bits saved vs the traditional line buffers (percent)."""
        trad = self.placement.traditional_storage_bits
        if trad == 0:
            return 0.0
        return 100.0 * self.placement.storage_saving_bits / trad

    def units_summary(self) -> str:
        """Compact per-kind unit counts, e.g. ``1 uram + 504 luts``."""
        usage = self.placement.usage()
        if not usage:
            return "elided"
        return " + ".join(f"{units} {kind}" for kind, units in sorted(usage.items()))


@dataclass(frozen=True)
class ResourcesReport:
    """The full device sweep."""

    options: ResourcesOptions
    device: FPGADevice
    points: tuple[ResourcePoint, ...]

    def point(self, window: int) -> ResourcePoint:
        """The sweep point at window size ``window``."""
        for p in self.points:
            if p.window == window:
                return p
        raise ConfigError(f"no sweep point for window {window}")

    def render(self) -> str:
        """Aligned text table plus the per-FIFO report of each point."""
        rows = []
        for p in self.points:
            rows.append(
                (
                    p.window,
                    p.compat.total_brams,
                    p.placement.payload.describe(),
                    p.placement.storage_bits,
                    p.placement.traditional_storage_bits,
                    f"{p.saving_percent:.1f}%",
                    p.units_summary(),
                    "yes" if p.fits else "NO",
                )
            )
        table = render_table(
            (
                "window",
                "BRAM18 (compat)",
                "payload placement",
                "bits",
                "trad bits",
                "saved",
                "device units",
                "fits",
            ),
            rows,
            title=(
                f"Memory placement on {self.device.name} "
                f"({self.device.family}), {self.options.width}x"
                f"{self.options.width}, T={self.options.threshold}"
            ),
        )
        details = "\n\n".join(p.placement.render() for p in self.points)
        return f"{table}\n\n{details}"

    def to_json_dict(self) -> dict:
        """The ``repro-resources/2`` payload."""
        points = []
        for p in self.points:
            points.append(
                {
                    "window": p.window,
                    "threshold": p.threshold,
                    "compat": {
                        "rows_per_bram": p.compat.rows_per_bram,
                        "packed_brams": p.compat.packed_brams,
                        "management_brams": p.compat.management_brams,
                        "total_brams": p.compat.total_brams,
                    },
                    "placement": {
                        "units": p.placement.unit_counts(),
                        "usage": p.placement.usage(),
                        "storage_bits": p.placement.storage_bits,
                        "traditional_storage_bits": (
                            p.placement.traditional_storage_bits
                        ),
                        "payload": {
                            "primitive": p.placement.payload.primitive.kind,
                            "rows_per_group": p.placement.payload.rows_per_group,
                            "units": p.placement.payload.units,
                        },
                        "nbits": {
                            "kind": p.placement.nbits.kind,
                            "units": p.placement.nbits.units,
                        },
                        "bitmap": {
                            "kind": p.placement.bitmap.kind,
                            "units": p.placement.bitmap.units,
                        },
                    },
                    "fits": p.fits,
                }
            )
        return {
            "schema": RESOURCES_SCHEMA,
            "device": {
                "name": self.device.name,
                "family": self.device.family,
                "bram18k": self.device.bram18k,
                "uram": self.device.uram,
            },
            "geometry": {
                "width": self.options.width,
                "threshold": self.options.threshold,
                "images": self.options.n_images,
            },
            "protection": self.options.protection or "none",
            "points": points,
        }


def measure_resources(
    options: ResourcesOptions = ResourcesOptions(),
) -> ResourcesReport:
    """Sweep window sizes on one device, both accounting models per point.

    As in :func:`~repro.analysis.experiments.bram_table`, the plan
    provisions for the worst compressed row sizes observed across the
    first ``options.n_images`` suite images (Section V.E's "worst-case
    scenario").
    """
    device = options.target
    points: list[ResourcePoint] = []
    for n in options.windows:
        config = ArchitectureConfig(
            image_width=options.width,
            image_height=options.width,
            window_size=n,
            threshold=options.threshold,
        )
        worst = suite_worst_row_bits(
            options.width,
            n,
            options.threshold,
            n_images=options.n_images,
            processes=1,
        )
        compat = plan_placement(config, worst, protection=options.protection)
        placement = plan_placement(
            config, worst, device=device, protection=options.protection
        )
        points.append(
            ResourcePoint(
                window=n,
                threshold=options.threshold,
                compat=compat,
                placement=placement,
                fits=placement.fits(device),
            )
        )
    return ResourcesReport(options=options, device=device, points=tuple(points))


def write_resources_json(report: ResourcesReport, path: Path) -> None:
    """Serialise ``report`` as a ``repro-resources/2`` artifact."""
    path.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")


def load_resources_json(path: Path) -> dict:
    """Load and structurally validate a ``repro-resources/2`` file.

    Every point must carry both accounting blocks with their full key
    sets, and the compat block must be internally consistent
    (``total = packed + management``) — a cheap invariant that catches
    hand-edited or truncated artifacts.
    """
    payload = json.loads(path.read_text())
    if payload.get("schema") != RESOURCES_SCHEMA:
        raise ConfigError(
            f"unexpected resources schema {payload.get('schema')!r} in "
            f"{path}; expected {RESOURCES_SCHEMA!r}"
        )
    for key in ("device", "geometry", "protection", "points"):
        if key not in payload:
            raise ConfigError(f"{path} lacks top-level key {key!r}")
    for key in ("name", "family"):
        if key not in payload["device"]:
            raise ConfigError(f"{path}: device block lacks {key!r}")
    if not payload["points"]:
        raise ConfigError(f"{path} has no sweep points")
    for point in payload["points"]:
        for key in _POINT_KEYS:
            if key not in point:
                raise ConfigError(
                    f"{path}: point {point.get('window')!r} lacks {key!r}"
                )
        compat = point["compat"]
        for key in _COMPAT_KEYS:
            if key not in compat:
                raise ConfigError(
                    f"{path}: compat block of window {point['window']} "
                    f"lacks {key!r}"
                )
        if compat["total_brams"] != (
            compat["packed_brams"] + compat["management_brams"]
        ):
            raise ConfigError(
                f"{path}: compat totals of window {point['window']} "
                "are inconsistent"
            )
        placement = point["placement"]
        for key in _PLACEMENT_KEYS:
            if key not in placement:
                raise ConfigError(
                    f"{path}: placement block of window {point['window']} "
                    f"lacks {key!r}"
                )
    return payload
