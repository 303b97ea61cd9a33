"""Cross-engine validation: prove every model computes the same thing.

Runs the same image and kernel through the golden oracle, the traditional
engines (analytic + cycle-accurate) and the compressed engines (fast,
bit-exact and register-level), then checks the paper's functional claims:
all lossless paths agree exactly, and the lossy paths agree with each
other.  Used by the test suite and exposed via ``repro validate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ArchitectureConfig
from ..core.window.compressed import CompressedCycleEngine, CompressedEngine
from ..core.window.golden import GoldenEngine
from ..core.window.traditional import TraditionalCycleEngine, TraditionalEngine
from ..errors import ConfigError
from ..kernels.base import WindowKernel
from .tables import render_table


@dataclass(frozen=True, slots=True)
class EngineComparison:
    """One engine's agreement with the golden reference."""

    name: str
    matches_reference: bool
    max_output_delta: float


@dataclass(frozen=True)
class ValidationReport:
    """Aggregate validation outcome."""

    config: ArchitectureConfig
    comparisons: tuple[EngineComparison, ...]

    @property
    def all_consistent(self) -> bool:
        """True when every compared engine met its expectation."""
        return all(c.matches_reference for c in self.comparisons)

    def render(self) -> str:
        """Render the result as an aligned text table."""
        rows = [
            [
                c.name,
                "OK" if c.matches_reference else "MISMATCH",
                f"{c.max_output_delta:.2e}",
            ]
            for c in self.comparisons
        ]
        return render_table(
            ["engine", "status", "max |delta| vs reference"],
            rows,
            title=f"Engine validation — {self.config.describe()}",
        )


def validate_engines(
    config: ArchitectureConfig,
    image: np.ndarray,
    kernel: WindowKernel,
    *,
    include_cycle_engines: bool = True,
) -> ValidationReport:
    """Cross-check every engine on one input.

    For a lossless config every engine must match the golden oracle
    bit-for-bit.  For a lossy config the reference becomes the fast
    compressed engine, and the bit-exact / register-level engines must
    match *it* exactly (the traditional engines are skipped — they see
    raw pixels by design).
    """
    arr = np.asarray(image)
    golden = GoldenEngine(config, kernel).run(arr).outputs

    def delta(a: np.ndarray, b: np.ndarray) -> float:
        """Maximum absolute output difference vs the reference."""
        if a.shape != b.shape:
            raise ConfigError(f"output shapes differ: {a.shape} vs {b.shape}")
        return float(np.max(np.abs(np.asarray(a, float) - np.asarray(b, float))))

    comparisons: list[EngineComparison] = []
    compressed_fast = CompressedEngine(config, kernel).run(arr).outputs

    if config.lossless:
        reference = golden
        candidates: list[tuple[str, np.ndarray]] = [
            ("traditional (analytic)", TraditionalEngine(config, kernel).run(arr).outputs),
            ("compressed (fast)", compressed_fast),
            (
                "compressed (bit-exact)",
                CompressedEngine(config, kernel, bit_exact=True).run(arr).outputs,
            ),
        ]
        if include_cycle_engines:
            candidates.append(
                (
                    "traditional (cycle)",
                    TraditionalCycleEngine(config, kernel).run(arr).outputs,
                )
            )
            candidates.append(
                (
                    "compressed (register-level)",
                    CompressedCycleEngine(config, kernel).run(arr).outputs,
                )
            )
    else:
        reference = compressed_fast
        candidates = [
            (
                "compressed (bit-exact)",
                CompressedEngine(config, kernel, bit_exact=True).run(arr).outputs,
            ),
        ]
        if include_cycle_engines:
            candidates.append(
                (
                    "compressed (register-level)",
                    CompressedCycleEngine(config, kernel).run(arr).outputs,
                )
            )

    for name, outputs in candidates:
        d = delta(reference, outputs)
        comparisons.append(
            EngineComparison(name=name, matches_reference=d == 0.0, max_output_delta=d)
        )
    return ValidationReport(config=config, comparisons=tuple(comparisons))
