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

from .ci import mean_confidence_interval, t_quantile, ConfidenceInterval
from .tables import render_table
from .sweep import run_parallel
from .coding import coding_efficiency, CodingEfficiencyReport, empirical_entropy_bits
from .sensitivity import sensitivity_sweep, SensitivityResult
from .validation import validate_engines, ValidationReport
from .tradeoff import bram_lut_tradeoff, TradeoffResult
from .faults import (
    fault_campaign,
    measured_storage_overhead,
    FaultCampaignPoint,
    FaultCampaignResult,
)
from .artifacts import ARTIFACTS, Artifact

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
