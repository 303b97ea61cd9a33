"""Reporters for reprolint results: human text and machine JSON.

The text form is the conventional compiler style one-violation-per-line
plus a summary; the JSON form (schema ``reprolint/1``) is what the CI
gate consumes and archives, so its shape is part of the tool's contract
and validated by :func:`load_report_json`.  :func:`diff_reports` is the
CI baseline gate: it compares a branch report against the ``main``
artifact and renders only the *new* findings, so a PR fails on what it
introduced rather than on the absolute count.
"""

from __future__ import annotations

import json
from typing import Any

from ..errors import ConfigError
from .framework import LintReport

#: Version tag embedded in every JSON report.
JSON_SCHEMA = "reprolint/1"


def render_text(report: LintReport) -> str:
    """One line per violation plus a ``N violation(s) ...`` summary."""
    lines = [v.format() for v in report.violations]
    lines.extend(c.format() for c in report.crashes)
    n = len(report.violations)
    noun = "violation" if n == 1 else "violations"
    summary = (
        f"{n} {noun} in {len({v.path for v in report.violations})} file(s) "
        f"({report.files_checked} checked)"
        if n
        else f"clean: {report.files_checked} file(s) checked"
    )
    if report.crashes:
        summary += f"; {len(report.crashes)} rule crash(es)"
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    """The ``reprolint/1`` JSON document for CI consumption."""
    payload = {
        "schema": JSON_SCHEMA,
        "files_checked": report.files_checked,
        "elapsed_seconds": round(report.elapsed_seconds, 6),
        "rules": [
            {"code": r.code, "name": r.name, "description": r.description}
            for r in report.rules
        ],
        "violations": [
            {
                "rule": v.rule,
                "path": v.path,
                "line": v.line,
                "col": v.col,
                "message": v.message,
            }
            for v in report.violations
        ],
        "crashes": [
            {"rule": c.rule, "path": c.path, "error": c.error}
            for c in report.crashes
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def load_report_json(text: str) -> dict[str, Any]:
    """Parse + validate a ``reprolint/1`` document (the CI-side check).

    Fields have been added to and dropped from the payload without a
    version bump, so only the original keys are required and any other
    key is ignored: a ``main`` baseline from either side of such a
    change keeps loading.
    """
    payload = json.loads(text)
    if payload.get("schema") != JSON_SCHEMA:
        raise ConfigError(
            f"not a {JSON_SCHEMA} document: schema={payload.get('schema')!r}"
        )
    for key in ("files_checked", "rules", "violations"):
        if key not in payload:
            raise ConfigError(f"reprolint report lacks key {key!r}")
    for violation in payload["violations"]:
        missing = {"rule", "path", "line", "col", "message"} - set(violation)
        if missing:
            raise ConfigError(
                f"violation record lacks keys {sorted(missing)}"
            )
    return payload


def diff_reports(
    base: dict[str, Any], head: dict[str, Any]
) -> list[dict[str, Any]]:
    """Findings in ``head`` that are not in ``base`` (the CI gate).

    Records are matched on ``(rule, path, message)`` — line/col move
    with unrelated edits, and a finding that merely slid down a file is
    not *new*.  Both arguments are loaded ``reprolint/1`` payloads.
    """
    seen = {
        (v["rule"], v["path"], v["message"]) for v in base["violations"]
    }
    return [
        v
        for v in head["violations"]
        if (v["rule"], v["path"], v["message"]) not in seen
    ]


def render_diff(new_findings: list[dict[str, Any]]) -> str:
    """Human rendering of a baseline diff (empty string when clean)."""
    if not new_findings:
        return ""
    lines = [
        f"{v['path']}:{v['line']}:{v['col']}: {v['rule']} {v['message']}"
        for v in new_findings
    ]
    n = len(new_findings)
    noun = "finding" if n == 1 else "findings"
    lines.append(f"{n} new {noun} vs baseline")
    return "\n".join(lines)


def render_rule_table(report: LintReport) -> str:
    """A ``CODE  name  description`` listing of the rules that ran."""
    rows = []
    for rule in report.rules:
        rows.append(f"{rule.code}  {rule.name:24s} {rule.description}")
    return "\n".join(rows)
