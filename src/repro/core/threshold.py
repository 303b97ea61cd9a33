"""Threshold policies, including the paper's future-work adaptive controller.

Section V.E (*Current Limitations*) notes the compression ratio — and hence
the threshold — is fixed at design time, and Section VII proposes "making
this automatically adjustable at runtime based on the previous frame
compression ratio".  :class:`AdaptiveThresholdController` implements that
extension: a step controller that walks the threshold up when the observed
compressed footprint exceeds the provisioned memory and back down (with
hysteresis) when there is comfortable slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError

#: The threshold ladder: the paper's evaluation thresholds 0, 2, 4, 6
#: extended to 8 and 10 for headroom.  The adaptive controller walks it
#: frame by frame, and an engine with ``overflow="tighten"`` climbs it
#: within a frame that overflows its memory plan.
THRESHOLD_LADDER: tuple[int, ...] = (0, 2, 4, 6, 8, 10)


@dataclass(slots=True)
class AdaptiveThresholdController:
    """Frame-rate threshold controller (future-work extension).

    Parameters
    ----------
    budget_bits:
        The memory-unit capacity the compressed footprint must stay under.
    levels:
        Ordered threshold ladder to walk (default
        :data:`THRESHOLD_LADDER`).
    downshift_margin:
        Fraction of the budget the footprint must drop below before the
        controller relaxes the threshold one step (hysteresis against
        oscillation between two levels).
    """

    budget_bits: int
    levels: tuple[int, ...] = THRESHOLD_LADDER
    downshift_margin: float = 0.75
    _index: int = field(default=0, init=False)
    history: list[tuple[int, int]] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.budget_bits <= 0:
            raise ConfigError(f"budget_bits must be positive, got {self.budget_bits}")
        if len(self.levels) < 1 or list(self.levels) != sorted(set(self.levels)):
            raise ConfigError("levels must be strictly increasing")
        if not 0.0 < self.downshift_margin < 1.0:
            raise ConfigError(
                f"downshift_margin must be in (0, 1), got {self.downshift_margin}"
            )

    @property
    def threshold(self) -> int:
        """Threshold the next frame should be encoded with."""
        return self.levels[self._index]

    def observe(self, frame_bits: int) -> int:
        """Record one frame's compressed footprint; returns the new threshold.

        Over budget -> tighten one step; under ``downshift_margin * budget``
        -> relax one step; otherwise hold.
        """
        self.history.append((self.threshold, int(frame_bits)))
        if frame_bits > self.budget_bits and self._index + 1 < len(self.levels):
            self._index += 1
        elif (
            frame_bits < self.downshift_margin * self.budget_bits and self._index > 0
        ):
            self._index -= 1
        return self.threshold

    @property
    def saturated(self) -> bool:
        """True when the controller is already at its most lossy level."""
        return self._index == len(self.levels) - 1
