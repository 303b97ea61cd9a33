"""Frame-stream processing with capacity enforcement and adaptation.

Ties together the pieces the paper's *Current Limitations* and *Future
Work* sections describe: a fixed design-time memory provisioning
(:class:`~repro.hardware.planner.PlacementPlan`), frames whose
compressibility varies, the resulting overflow hazard, and the adaptive
threshold controller that mitigates it.

Overflow policies:

- ``"raise"``  — propagate :class:`~repro.errors.CapacityError` (the
  unprotected hardware behaviour);
- ``"drop"``   — mark the frame dropped, leave the previous threshold
  (a design that invalidates the frame's outputs);
- ``"degrade"``— retry the same frame at increasing thresholds until it
  fits (requires in-frame re-processing, the strongest mitigation).

The same three policies govern *soft-error* outcomes when the stream runs
with a :class:`~repro.resilience.injector.FaultInjector` and/or a
protection level: an uncorrectable upset raises under ``"raise"``,
invalidates the frame under ``"drop"``, and re-syncs (zero-fill, counted
on the :class:`FrameRecord`) under ``"degrade"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Iterable

import numpy as np

from ..config import ArchitectureConfig
from ..errors import CapacityError, ConfigError
from ..resilience.band import ResilientBandCodec
from ..resilience.injector import FaultInjector
from ..resilience.protection import ProtectionPolicy, resolve_policy
from .stats import analyze_image, iter_bands
from .threshold import AdaptiveThresholdController

#: Supported overflow policies.
OVERFLOW_POLICIES = ("raise", "drop", "degrade")


@dataclass(frozen=True, slots=True)
class FrameRecord:
    """Outcome of one processed frame."""

    index: int
    threshold: int
    peak_buffer_bits: int
    fits: bool
    dropped: bool
    retries: int
    #: Soft-error outcome (zeros when the stream runs without injection).
    flips: int = 0
    corrected_words: int = 0
    uncorrectable_words: int = 0
    resyncs: int = 0
    corrupted_pixels: int = 0


@dataclass(slots=True)
class FrameStreamProcessor:
    """Process a sequence of frames against a fixed memory budget.

    Parameters
    ----------
    config:
        Architecture geometry (threshold field is ignored; the stream's
        controller owns the threshold).
    budget_bits:
        Provisioned memory-unit capacity (peak buffered bits).
    policy:
        Overflow *and* fault policy, see module docstring.
    controller:
        Optional adaptive controller; when None a fixed ``threshold`` is
        used for every frame.
    threshold:
        Fixed threshold when no controller is given.
    row_stride:
        Band sampling passed to the analyzer (None = window size).
    protection:
        Memory-path protection level (name or
        :class:`~repro.resilience.protection.ProtectionPolicy`).  The
        scheme's payload storage expansion scales the frame's peak-bits
        demand, so enabling protection genuinely costs budget headroom.
    injector:
        Optional SEU injector; sampled bands of every kept frame pass
        through the protected memory path and the fault outcome lands on
        the frame's record.
    """

    config: ArchitectureConfig
    budget_bits: int
    policy: str = "degrade"
    controller: AdaptiveThresholdController | None = None
    threshold: int = 0
    row_stride: int | None = None
    protection: ProtectionPolicy | str | None = None
    injector: FaultInjector | None = None
    records: list[FrameRecord] = field(default_factory=list, init=False)
    _policy_resolved: ProtectionPolicy = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.policy not in OVERFLOW_POLICIES:
            raise ConfigError(
                f"policy must be one of {OVERFLOW_POLICIES}, got {self.policy!r}"
            )
        if self.budget_bits <= 0:
            raise ConfigError(f"budget_bits must be positive, got {self.budget_bits}")
        self._policy_resolved = resolve_policy(self.protection)

    def _frame_threshold(self) -> int:
        return self.controller.threshold if self.controller else self.threshold

    def _peak_bits(self, frame: np.ndarray, threshold: int) -> int:
        report = analyze_image(
            self.config.with_threshold(threshold),
            frame,
            row_stride=self.row_stride,
        )
        # Protection is stored, so its expansion consumes real headroom.
        return ceil(
            report.peak_buffer_bits * self._policy_resolved.payload.expansion
        )

    def _assess_faults(
        self, frame: np.ndarray, threshold: int
    ) -> tuple[int, int, int, int, int]:
        """Stream sampled bands through the protected path; sum the damage."""
        codec = ResilientBandCodec(
            self.config.with_threshold(threshold),
            self._policy_resolved,
            injector=self.injector,
            on_uncorrectable="raise" if self.policy == "raise" else "resync",
        )
        flips = corrected = uncorrectable = resyncs = corrupted = 0
        for _, band in iter_bands(self.config, frame, row_stride=self.row_stride):
            _, report, _ = codec.roundtrip(band)
            flips += report.flips_injected
            corrected += report.corrected_words
            uncorrectable += report.uncorrectable_words
            resyncs += report.resync_rows + report.resync_bands
            corrupted += report.corrupted_pixels
        return flips, corrected, uncorrectable, resyncs, corrupted

    def process(self, frames: Iterable[np.ndarray]) -> list[FrameRecord]:
        """Run every frame through the provisioned memory model."""
        faulted = self.injector is not None or not self._policy_resolved.is_trivial
        for index, frame in enumerate(frames):
            arr = np.asarray(frame).astype(np.int64)
            threshold = self._frame_threshold()
            peak = self._peak_bits(arr, threshold)
            retries = 0
            dropped = False
            if peak > self.budget_bits:
                if self.policy == "raise":
                    raise CapacityError(
                        f"frame {index} needs {peak} bits at T={threshold}, "
                        f"budget is {self.budget_bits}"
                    )
                if self.policy == "drop":
                    dropped = True
                else:  # degrade
                    ladder = (
                        self.controller.levels
                        if self.controller
                        else (0, 2, 4, 6, 8, 10)
                    )
                    for t in ladder:
                        if t <= threshold:
                            continue
                        retries += 1
                        peak = self._peak_bits(arr, t)
                        threshold = t
                        if peak <= self.budget_bits:
                            break
                    else:
                        dropped = True
            fits = peak <= self.budget_bits
            flips = corrected = uncorrectable = resyncs = corrupted = 0
            if faulted and not dropped:
                flips, corrected, uncorrectable, resyncs, corrupted = (
                    self._assess_faults(arr, threshold)
                )
                if self.policy == "drop" and (uncorrectable or resyncs):
                    # A detected corruption invalidates the frame's outputs.
                    dropped = True
            if self.controller:
                self.controller.observe(peak)
            self.records.append(
                FrameRecord(
                    index=index,
                    threshold=threshold,
                    peak_buffer_bits=peak,
                    fits=fits,
                    dropped=dropped,
                    retries=retries,
                    flips=flips,
                    corrected_words=corrected,
                    uncorrectable_words=uncorrectable,
                    resyncs=resyncs,
                    corrupted_pixels=corrupted,
                )
            )
        return self.records

    @property
    def drop_rate(self) -> float:
        """Fraction of processed frames that were dropped."""
        if not self.records:
            return 0.0
        return sum(r.dropped for r in self.records) / len(self.records)

    @property
    def corrupted_pixel_total(self) -> int:
        """Corrupted pixels summed over every kept frame."""
        return sum(r.corrupted_pixels for r in self.records)
