"""The reprolint rule registry.

One module per rule family; :func:`default_rules` builds the full set
the CLI and the repo-consistency gate run.  Rules are instantiated
fresh per call so callers can safely customise one instance (e.g. a
narrowed bit-exact scope in tests) without affecting others.

REP001–REP004 are the syntactic rules; REP006–REP009 ride the
CFG/dataflow engine (``lint/cfg.py`` + ``lint/dataflow.py``) or extend
the invariant surface to the process boundary and the bench schemas.
"""

from __future__ import annotations

from ..framework import Rule
from .bitexact import BIT_EXACT_MODULES, BitExactRule
from .intwidth import IntWidthRule
from .ipcsafety import IPC_CLASSES, IpcSafetyRule
from .layering import ALLOWED_IMPORTS, LAYER_PREFIXES, LayeringRule
from .lifecycle import ResourceLifecycleRule
from .lifecycle_flow import FlowLifecycleRule
from .probes import ProbePurityRule
from .schema import SchemaDriftRule

__all__ = [
    "ALLOWED_IMPORTS",
    "BIT_EXACT_MODULES",
    "IPC_CLASSES",
    "LAYER_PREFIXES",
    "BitExactRule",
    "FlowLifecycleRule",
    "IntWidthRule",
    "IpcSafetyRule",
    "LayeringRule",
    "ProbePurityRule",
    "ResourceLifecycleRule",
    "SchemaDriftRule",
    "default_rules",
]


def default_rules() -> tuple[Rule, ...]:
    """Fresh instances of every REP rule, in code order."""
    return (
        BitExactRule(),
        ResourceLifecycleRule(),
        ProbePurityRule(),
        LayeringRule(),
        IntWidthRule(),
        FlowLifecycleRule(),
        IpcSafetyRule(),
        SchemaDriftRule(),
    )
