"""Experiment harness: statistics, rendering, sweeps and the registry.

- :mod:`repro.analysis.ci` — mean / confidence-interval helpers (Fig 13
  plots 90 % CIs over the ten-image suite).
- :mod:`repro.analysis.tables` — plain-text table rendering for benches
  and the CLI.
- :mod:`repro.analysis.sweep` — multiprocessing parameter sweeps.
- :mod:`repro.analysis.experiments` — one entry point per paper artifact
  (Fig 3, Fig 13, Tables I-X, the MSE sweep, ablations, throughput).
- :mod:`repro.analysis.artifacts` — :data:`ARTIFACTS`, the registry that
  pairs each artifact with its golden geometry and renderer; the
  artifact bench, ``repro artifact`` and ``repro report`` all read it.
- :mod:`repro.analysis.faults` — the soft-error injection campaign over
  the protected memory path.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .artifacts import ARTIFACTS, Artifact
    from .ci import ConfidenceInterval, mean_confidence_interval, t_quantile
    from .coding import (
        CodingEfficiencyReport,
        coding_efficiency,
        empirical_entropy_bits,
    )
    from .faults import (
        FaultCampaignPoint,
        FaultCampaignResult,
        fault_campaign,
        measured_storage_overhead,
    )
    from .sensitivity import SensitivityResult, sensitivity_sweep
    from .sweep import run_parallel
    from .tables import render_table
    from .tradeoff import TradeoffResult, bram_lut_tradeoff
    from .validation import ValidationReport, validate_engines

#: The submodule behind each re-exported name, imported on first access,
#: so ``import repro.analysis.ci`` loads ``ci`` alone.
_SOURCES = {
    "mean_confidence_interval": "ci",
    "t_quantile": "ci",
    "ConfidenceInterval": "ci",
    "render_table": "tables",
    "run_parallel": "sweep",
    "coding_efficiency": "coding",
    "CodingEfficiencyReport": "coding",
    "empirical_entropy_bits": "coding",
    "sensitivity_sweep": "sensitivity",
    "SensitivityResult": "sensitivity",
    "validate_engines": "validation",
    "ValidationReport": "validation",
    "bram_lut_tradeoff": "tradeoff",
    "TradeoffResult": "tradeoff",
    "fault_campaign": "faults",
    "measured_storage_overhead": "faults",
    "FaultCampaignPoint": "faults",
    "FaultCampaignResult": "faults",
    "ARTIFACTS": "artifacts",
    "Artifact": "artifacts",
}


def __getattr__(name: str) -> Any:
    source = _SOURCES.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{source}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__all__ = [
    "mean_confidence_interval",
    "t_quantile",
    "ConfidenceInterval",
    "render_table",
    "run_parallel",
    "coding_efficiency",
    "CodingEfficiencyReport",
    "empirical_entropy_bits",
    "sensitivity_sweep",
    "SensitivityResult",
    "validate_engines",
    "ValidationReport",
    "bram_lut_tradeoff",
    "TradeoffResult",
    "fault_campaign",
    "measured_storage_overhead",
    "FaultCampaignPoint",
    "FaultCampaignResult",
    "ARTIFACTS",
    "Artifact",
]
