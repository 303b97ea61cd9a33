"""Metric exporters: JSON-lines snapshots and Prometheus text format.

Two wire formats cover the consumption paths a production deployment
needs:

- **JSON lines** (schema ``repro-metrics/1``): one metric per line, each
  line a self-describing JSON object.  Written by ``repro bench probe
  --jsonl`` and validated through :func:`load_metrics_jsonl`.
- **Prometheus exposition text** (version 0.0.4): ``# HELP`` / ``# TYPE``
  blocks with ``_bucket`` / ``_sum`` / ``_count`` series for histograms,
  ready for a scrape endpoint or the textfile collector.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from ..errors import ConfigError
from .metrics import MetricsRegistry

#: Version tag of the JSON-lines metrics schema.
METRICS_SCHEMA = "repro-metrics/1"

#: Instrument kinds a JSON-lines record may carry.
_RECORD_TYPES = ("counter", "gauge", "histogram")


def snapshot_records(snapshot: Mapping) -> list[dict]:
    """Flatten a registry snapshot into schema'd one-per-metric records."""
    records: list[dict] = []
    for entry in snapshot.get("counters", ()):
        records.append(
            {
                "schema": METRICS_SCHEMA,
                "type": "counter",
                "name": entry["name"],
                "labels": dict(entry.get("labels", {})),
                "value": entry["value"],
            }
        )
    for entry in snapshot.get("gauges", ()):
        records.append(
            {
                "schema": METRICS_SCHEMA,
                "type": "gauge",
                "name": entry["name"],
                "labels": dict(entry.get("labels", {})),
                "value": entry["value"],
            }
        )
    for entry in snapshot.get("histograms", ()):
        records.append(
            {
                "schema": METRICS_SCHEMA,
                "type": "histogram",
                "name": entry["name"],
                "labels": dict(entry.get("labels", {})),
                "buckets": list(entry["buckets"]),
                "bucket_counts": list(entry["bucket_counts"]),
                "sum": entry["sum"],
                "count": entry["count"],
            }
        )
    return records


def write_metrics_jsonl(
    snapshot: Mapping | MetricsRegistry, path: Path
) -> int:
    """Write one snapshot as JSON lines; returns the record count."""
    if isinstance(snapshot, MetricsRegistry):
        snapshot = snapshot.snapshot()
    records = snapshot_records(snapshot)
    with Path(path).open("w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return len(records)


def load_metrics_jsonl(path: Path) -> list[dict]:
    """Load and structurally validate a ``repro-metrics/1`` JSON-lines file.

    Every line must parse, carry the schema tag, name one of the three
    instrument kinds and satisfy the kind's invariants — histograms must
    have ``sum(bucket_counts) == count`` and one more count than bounds.
    """
    records: list[dict] = []
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{lineno}: not JSON: {exc}") from exc
        if record.get("schema") != METRICS_SCHEMA:
            raise ConfigError(
                f"{path}:{lineno}: schema {record.get('schema')!r} != "
                f"{METRICS_SCHEMA!r}"
            )
        kind = record.get("type")
        if kind not in _RECORD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown type {kind!r}")
        if not record.get("name"):
            raise ConfigError(f"{path}:{lineno}: record lacks a name")
        if kind in ("counter", "gauge"):
            if "value" not in record:
                raise ConfigError(f"{path}:{lineno}: {kind} lacks a value")
        else:
            for key in ("buckets", "bucket_counts", "sum", "count"):
                if key not in record:
                    raise ConfigError(f"{path}:{lineno}: histogram lacks {key!r}")
            if len(record["bucket_counts"]) != len(record["buckets"]) + 1:
                raise ConfigError(
                    f"{path}:{lineno}: histogram needs len(buckets)+1 counts"
                )
            if sum(record["bucket_counts"]) != record["count"]:
                raise ConfigError(
                    f"{path}:{lineno}: bucket counts sum to "
                    f"{sum(record['bucket_counts'])}, count says {record['count']}"
                )
        records.append(record)
    if not records:
        raise ConfigError(f"{path}: no metric records")
    return records


def _escape_label(value: str) -> str:
    """Escape a label value for the Prometheus text format."""
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _label_str(labels: Mapping[str, str], extra: Mapping[str, str] | None = None) -> str:
    """Render a ``{k="v",...}`` label block (empty string when no labels)."""
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    """Render a sample value (Prometheus spells infinity ``+Inf``)."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def write_prometheus(
    snapshot: Mapping | MetricsRegistry,
    path: Path | None = None,
    *,
    help_text: Mapping[str, str] | None = None,
) -> str:
    """Render a snapshot in Prometheus exposition text format.

    Returns the text; additionally writes it to ``path`` when given.
    Histograms emit cumulative ``_bucket`` series (``le`` upper bounds,
    ``+Inf`` last) plus ``_sum`` and ``_count``, exactly as a scrape
    endpoint would expose them.
    """
    helps: dict[str, str] = dict(help_text or {})
    if isinstance(snapshot, MetricsRegistry):
        registry = snapshot
        for inst in (
            registry.counters() + registry.gauges() + registry.histograms()
        ):
            text = registry.help_text(inst.name)
            if text:
                helps.setdefault(inst.name, text)
        snapshot = registry.snapshot()

    lines: list[str] = []
    typed: set[str] = set()

    def _head(name: str, kind: str) -> None:
        """Emit HELP/TYPE once per metric name."""
        if name in typed:
            return
        typed.add(name)
        if name in helps:
            lines.append(f"# HELP {name} {helps[name]}")
        lines.append(f"# TYPE {name} {kind}")

    for entry in snapshot.get("counters", ()):
        _head(entry["name"], "counter")
        lines.append(
            f"{entry['name']}{_label_str(entry.get('labels', {}))} "
            f"{_format_value(entry['value'])}"
        )
    for entry in snapshot.get("gauges", ()):
        _head(entry["name"], "gauge")
        lines.append(
            f"{entry['name']}{_label_str(entry.get('labels', {}))} "
            f"{_format_value(entry['value'])}"
        )
    for entry in snapshot.get("histograms", ()):
        name = entry["name"]
        _head(name, "histogram")
        labels = entry.get("labels", {})
        cumulative = 0
        for bound, count in zip(
            list(entry["buckets"]) + [math.inf],
            entry["bucket_counts"],
        ):
            cumulative += int(count)
            le = "+Inf" if math.isinf(bound) else repr(float(bound))
            lines.append(
                f"{name}_bucket{_label_str(labels, {'le': le})} {cumulative}"
            )
        lines.append(
            f"{name}_sum{_label_str(labels)} {_format_value(entry['sum'])}"
        )
        lines.append(f"{name}_count{_label_str(labels)} {int(entry['count'])}")

    text = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def parse_prometheus_names(text: str) -> set[str]:
    """Metric family names declared by ``# TYPE`` lines (test helper)."""
    names: set[str] = set()
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            names.add(line.split()[2])
    return names


@dataclass(frozen=True, slots=True)
class SpanRow:
    """One probe span path of the stage table."""

    path: str
    calls: int
    total_seconds: float
    #: Total minus the totals of the direct child spans: the time the
    #: span spent in its own code, which names the optimisation target.
    self_seconds: float


def stage_table(snapshot: Mapping | MetricsRegistry) -> list[SpanRow]:
    """Fold the ``repro_span_seconds`` histograms into per-span rows.

    Series carry the full span path in their ``span`` label; series of
    one path (other labels differing) are summed.  Rows come back by
    descending total — the software analogue of a per-stage cycle-count
    report.
    """
    if isinstance(snapshot, MetricsRegistry):
        snapshot = snapshot.snapshot()
    totals: dict[str, tuple[int, float]] = {}
    for entry in snapshot.get("histograms", ()):
        path = dict(entry.get("labels", {})).get("span")
        if entry["name"] != "repro_span_seconds" or not path:
            continue
        calls, seconds = totals.get(path, (0, 0.0))
        totals[path] = (calls + int(entry["count"]), seconds + float(entry["sum"]))
    rows = []
    for path, (calls, seconds) in totals.items():
        children = sum(
            totals[p][1]
            for p in totals
            if p.startswith(path + "/") and "/" not in p[len(path) + 1 :]
        )
        rows.append(SpanRow(path, calls, seconds, max(seconds - children, 0.0)))
    rows.sort(key=lambda r: -r.total_seconds)
    return rows
