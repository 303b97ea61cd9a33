"""FPGA device catalog with per-primitive memory inventories.

The paper targets the Zynq-7000 XC7Z020 ("it has a total of 53,200 LUTs
and 106,400 registers" and "a total on-chip memory of 5,018 Kb").
Sibling 7-series parts are included so feasibility sweeps can ask
"which device fits window size 128?" — the paper's Table X marks that
point as exceeding the Z020 — and two Zynq UltraScale+ parts carry the
portfolio the placement planner needs: a ZU3EG-class part (block RAM
only, no URAM columns) and a ZU7EV-class part (96 URAM blocks).

Inventories are per primitive kind: ``luts``, ``registers``, ``bram18``
(RAMB18 sites — one RAMB36 tile provides two), ``bram36`` and ``uram``.
The block-RAM kinds share silicon: a design's demand fits when
``bram18 + 2 * bram36`` stays within the RAMB18 site count *and* the
RAMB36 tiles asked for exist.  Distributed RAM has no site inventory —
LUTRAM placements charge the ``luts`` pool.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .primitives import Portfolio

#: Inventory kinds every device can be queried for.
RESOURCE_KINDS: tuple[str, ...] = (
    "luts",
    "registers",
    "bram18",
    "bram36",
    "uram",
)


@dataclass(frozen=True, slots=True)
class FPGADevice:
    """Resource envelope of one FPGA part."""

    name: str
    luts: int
    registers: int
    #: RAMB18 sites (two per RAMB36 tile).
    bram18k: int
    #: UltraRAM blocks (0 on every 7-series part).
    uram: int = 0
    #: Device family: ``7series`` or ``ultrascale+``.
    family: str = "7series"

    @property
    def bram36(self) -> int:
        """RAMB36 tiles (each usable as two RAMB18s)."""
        return self.bram18k // 2

    @property
    def bram_bits(self) -> int:
        """Total block RAM bits (18 Kb per RAMB18)."""
        return self.bram18k * 18 * 1024

    @property
    def uram_bits(self) -> int:
        """Total UltraRAM bits (288 Kb per block)."""
        return self.uram * 4096 * 72

    @property
    def bram_kbits(self) -> float:
        """Total block RAM in Kb (the paper quotes 5,018 Kb for the Z020)."""
        return self.bram_bits / 1024

    @property
    def portfolio(self) -> "Portfolio":
        """The placement portfolio matching this part's silicon."""
        from .primitives import portfolio_for

        return portfolio_for(self)

    def capacity(self, kind: str) -> int:
        """Inventory size of one resource ``kind``.

        Raises :class:`~repro.errors.ConfigError` on unknown kinds — a
        typo'd resource must fail loudly, not count as "fits".
        """
        if kind == "luts":
            return self.luts
        if kind == "registers":
            return self.registers
        if kind == "bram18":
            return self.bram18k
        if kind == "bram36":
            return self.bram36
        if kind == "uram":
            return self.uram
        raise ConfigError(
            f"unknown resource kind {kind!r}; expected one of "
            f"{RESOURCE_KINDS}"
        )

    def accommodates(self, usage: Mapping[str, int]) -> bool:
        """True when a per-kind demand mapping fits this device.

        The block-RAM kinds share silicon: RAMB18 and RAMB36 demand is
        jointly checked against the RAMB18 site count (one tile = two
        sites) on top of the per-kind checks.
        """
        for kind, used in usage.items():
            if used < 0:
                raise ConfigError(
                    f"usage for {kind!r} must be non-negative, got {used}"
                )
            if used > self.capacity(kind):
                return False
        shared = usage.get("bram18", 0) + 2 * usage.get("bram36", 0)
        return shared <= self.bram18k

    def utilisation(self, usage: Mapping[str, int]) -> dict[str, float]:
        """Percentage utilisation for every kind named in ``usage``."""
        result: dict[str, float] = {}
        for kind, used in usage.items():
            cap = self.capacity(kind)
            if used < 0:
                raise ConfigError(
                    f"usage for {kind!r} must be non-negative, got {used}"
                )
            if cap == 0:
                result[kind] = 0.0 if used == 0 else float("inf")
            else:
                result[kind] = 100.0 * used / cap
        return result


#: The paper's evaluation device.
XC7Z020 = FPGADevice(name="XC7Z020", luts=53200, registers=106400, bram18k=280)

#: The UltraScale+ part the two-family resource sweep targets.
ZU7EV = FPGADevice(
    name="ZU7EV",
    luts=230400,
    registers=460800,
    bram18k=624,
    uram=96,
    family="ultrascale+",
)

#: Catalog keyed by part name.
DEVICES: dict[str, FPGADevice] = {
    d.name: d
    for d in (
        FPGADevice(name="XC7Z010", luts=17600, registers=35200, bram18k=120),
        XC7Z020,
        FPGADevice(name="XC7Z030", luts=78600, registers=157200, bram18k=530),
        FPGADevice(name="XC7Z045", luts=218600, registers=437200, bram18k=1090),
        FPGADevice(
            name="ZU3EG",
            luts=70560,
            registers=141120,
            bram18k=432,
            uram=0,
            family="ultrascale+",
        ),
        ZU7EV,
    )
}
