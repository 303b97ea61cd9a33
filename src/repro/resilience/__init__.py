"""Soft-error resilience: fault injection, protected storage, degradation.

The compressed sliding-window architecture concentrates many image rows
into few BRAMs, so a single event upset (SEU) corrupts far more output
pixels than in the traditional line-buffer design.  This package
quantifies and hardens that trade:

- :mod:`repro.resilience.injector` — deterministic, seedable bit-flip
  injection into the modelled storage streams (packed payload, NBits,
  BitMap);
- :mod:`repro.resilience.protection` — selectable protection levels
  (``none`` / ``parity`` / ``tmr-nbits`` / ``secded``) with per-stream
  storage-overhead accounting;
- :mod:`repro.resilience.band` — the protected band round-trip with
  graceful column re-sync, plus the :class:`FaultRecord` /
  :class:`EngineFaultSummary` reporting types the campaign sweeps consume.

The campaign driver lives in :mod:`repro.analysis.faults` and is exposed
as the ``repro fault-campaign`` CLI subcommand.

Process-level faults are the other half of the resilience story:
:mod:`repro.resilience.chaos` injects worker kills, in-worker raises,
delays and dropped results into the streaming runtime (driven by
:mod:`repro.analysis.chaos` / ``repro bench chaos``), and
:mod:`repro.runtime.supervision` is the recovery layer those faults
exercise.
"""

from .chaos import CHAOS_FAULTS, ChaosSpec, apply_worker_chaos
from .injector import STREAM_NAMES, FaultInjector
from .protection import (
    PROTECTION_LEVELS,
    NoProtection,
    ParityProtection,
    ProtectionPolicy,
    ProtectionScheme,
    SecdedProtection,
    StreamDecode,
    TmrProtection,
    resolve_policy,
)
from .band import (
    BandFaultReport,
    EngineFaultSummary,
    FaultRecord,
    ResilientBandCodec,
)

__all__ = [
    "CHAOS_FAULTS",
    "ChaosSpec",
    "apply_worker_chaos",
    "STREAM_NAMES",
    "FaultInjector",
    "PROTECTION_LEVELS",
    "NoProtection",
    "ParityProtection",
    "ProtectionPolicy",
    "ProtectionScheme",
    "SecdedProtection",
    "StreamDecode",
    "TmrProtection",
    "resolve_policy",
    "BandFaultReport",
    "EngineFaultSummary",
    "FaultRecord",
    "ResilientBandCodec",
]
