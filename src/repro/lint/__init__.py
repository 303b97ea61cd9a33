"""reprolint — the repo's domain-invariant static analyser.

Generic linters (ruff) and type checkers (mypy) cannot see the
invariants this reproduction actually rests on; ``repro.lint`` encodes
them as AST rules, the way hardware flows encode design rules as lint
checks run before synthesis.  Since PR 10 the framework is
flow-sensitive: a per-function CFG builder (:mod:`.cfg`) and a worklist
dataflow engine (:mod:`.dataflow`) feed rules that reason over paths
and value ranges, not just syntax:

========  ======================  ==========================================
Code      Name                    Invariant
========  ======================  ==========================================
REP000    unused-waiver           A ``reprolint: disable`` comment that
                                  suppresses nothing is itself reported.
REP001    bit-exact-integers      No floats / true division / np.float*
                                  dtypes in the bit-exact datapath modules.
REP003    probe-purity            probe params default to None; probe-guarded
                                  branches only call probe methods.
REP004    import-layering         Imports follow the layer DAG; __all__
                                  entries exist.
REP006    int64-width             Interval abstract interpretation: bit-exact
                                  arithmetic provably fits the int64 native
                                  ABI; ctypes declarations use sized types.
REP007    flow-lifecycle          Must-release dataflow over every CFG path:
                                  no exit with a held slot/segment/task; a
                                  self.<attr> acquired in __init__ must be
                                  released before an exception leaves.
REP008    ipc-safety              Process-boundary types are frozen
                                  dataclasses, immutable, stdlib-picklable.
REP009    schema-drift            Every repro-*/N bench schema has a
                                  load_*_json validator + test references.
========  ======================  ==========================================

Run it with ``repro lint src/`` (or ``--format json`` for the CI gate,
``--native`` to also run the C codec's bit-identity corpus under an
ASan/UBSan build); waive a finding with ``# reprolint: disable=REPxxx``
on the offending line.  Exit codes: 0 clean, 1 findings, 2 the linter
itself crashed.  The package sits at the bottom of the layer DAG (it
may import only :mod:`repro.errors`) so that linting never executes the
code under analysis.
"""

from __future__ import annotations

from .cfg import CFG, Block, Edge, build_cfg, iter_functions
from .dataflow import (
    Interval,
    IntervalAnalysis,
    LiveVariables,
    ReachingDefinitions,
    solve,
)
from .framework import (
    FunctionRule,
    LintReport,
    ModuleSource,
    Rule,
    RuleCrash,
    Violation,
    analyze_module,
    iter_python_files,
    lint_paths,
)
from .reporting import (
    JSON_SCHEMA,
    diff_reports,
    load_report_json,
    render_diff,
    render_json,
    render_rule_table,
    render_text,
)
from .rules import default_rules

__all__ = [
    "CFG",
    "JSON_SCHEMA",
    "Block",
    "Edge",
    "FunctionRule",
    "Interval",
    "IntervalAnalysis",
    "LintReport",
    "LiveVariables",
    "ModuleSource",
    "ReachingDefinitions",
    "Rule",
    "RuleCrash",
    "Violation",
    "analyze_module",
    "build_cfg",
    "default_rules",
    "diff_reports",
    "iter_functions",
    "iter_python_files",
    "lint_paths",
    "load_report_json",
    "render_diff",
    "render_json",
    "render_rule_table",
    "render_text",
    "solve",
]
