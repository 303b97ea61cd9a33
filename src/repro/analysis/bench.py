"""One harness for the in-tree measurement suites.

The paper's results are numbers — BRAM counts, and throughput at one
pixel per cycle — and this repo measures its own software model the
same way.  Five suites do the measuring, each in its own module
(:data:`SUITE_MODULES`):

- ``perf`` — pixels/s of every engine strategy over an N x T sweep;
- ``stream`` — frames/s of the streaming runtime per worker count;
- ``serve`` — the HTTP gateway under an offered-load sweep;
- ``chaos`` — recovery of the supervised runtime under injected faults;
- ``probe`` — probe overhead, plus the per-span table of the same run.

Every suite returns the same thing: a :class:`BenchRun` of flat
:class:`BenchRecord` rows, one ``(metric, value, unit)`` reading each,
keyed by case and geometry.  This module owns everything the suites
share — the record, the one ``repro-bench/1`` file format with its
writer and loader, the pivot renderer, the best-of-N timer and the
suite registry — so a new suite writes a measurement loop and nothing
else.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

from ..errors import ConfigError
from .tables import render_table

#: Version tag of every ``BENCH_*.json`` file.
BENCH_SCHEMA = "repro-bench/1"

#: Suite name -> module under :mod:`repro.analysis` defining its ``SUITE``.
SUITE_MODULES = {
    "perf": "perf",
    "stream": "stream_perf",
    "serve": "serve_perf",
    "chaos": "chaos",
    "probe": "metrics_perf",
}

#: Metrics that must read 0 wherever they appear: each one counts a
#: broken promise (a lost frame, a leaked ring slot, a quarantined frame
#: that inline degradation should have computed, a failed request).
ZERO_METRICS = frozenset(
    {"frames_lost", "slots_leaked", "inline_failures", "errors"}
)

#: Metrics whose total over a file must be positive: a sweep that
#: completed nothing measured nothing.
POSITIVE_TOTALS = frozenset({"completed"})

#: Context facts a suite's file must carry for its records to be
#: readable (a flat stream curve means nothing without ``scaling_gated``).
REQUIRED_CONTEXT: dict[str, dict[str, tuple[type, ...]]] = {
    "stream": {"scaling_gated": (bool,)},
    "chaos": {"deadline_seconds": (int, float)},
}

#: A context value: one flat scalar.
Scalar = str | int | float | bool | None

T = TypeVar("T")


def available_cores() -> int:
    """CPU cores actually schedulable for this process.

    Container CPU quotas show up in the scheduling affinity mask, not in
    ``os.cpu_count()``; the affinity set is what decides whether a
    multi-worker speedup is physically possible here.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


@dataclass(frozen=True, slots=True)
class BenchRecord:
    """One reading: ``metric = value unit`` for one case at one geometry."""

    suite: str
    #: What was measured: an engine strategy, a worker count, an offered
    #: load level, a chaos scenario, a span path.
    case: str
    width: int
    height: int
    window: int
    threshold: int
    #: Codec tier that actually ran (``numpy`` for engines without tiers).
    codec: str
    #: Worker processes; 0 when the case ran in this process.
    workers: int
    metric: str
    #: Finite, or ``None`` when the metric has no value (a latency
    #: quantile of a level that completed nothing).
    value: float | None
    unit: str
    #: True when every output behind the reading matched its reference
    #: bit for bit.
    bit_identical: bool

    @property
    def row_key(self) -> tuple[object, ...]:
        """Everything but the reading: one row of the pivot table."""
        return (
            self.case,
            self.width,
            self.height,
            self.window,
            self.threshold,
            self.codec,
            self.workers,
        )


#: JSON types each record field must have.
_FIELD_TYPES: dict[str, tuple[type, ...]] = {
    "suite": (str,),
    "case": (str,),
    "width": (int,),
    "height": (int,),
    "window": (int,),
    "threshold": (int,),
    "codec": (str,),
    "workers": (int,),
    "metric": (str,),
    "value": (int, float, type(None)),
    "unit": (str,),
    "bit_identical": (bool,),
}


def _is_a(value: object, kinds: tuple[type, ...]) -> bool:
    """``isinstance``, except that a bool is never a number."""
    return isinstance(value, kinds) and (
        bool in kinds or not isinstance(value, bool)
    )


def case_records(
    suite: str,
    case: str,
    *,
    resolution: int,
    window: int,
    threshold: int,
    codec: str,
    workers: int,
    bit_identical: bool,
    metrics: Iterable[tuple[str, float | None, str]],
) -> list[BenchRecord]:
    """Records of one case on a square frame, one per ``(metric, value, unit)``.

    Non-finite values become ``None``, so a NaN quantile is stored as
    ``null`` and never as a number.
    """
    return [
        BenchRecord(
            suite=suite,
            case=case,
            width=resolution,
            height=resolution,
            window=window,
            threshold=threshold,
            codec=codec,
            workers=workers,
            metric=metric,
            value=None if value is None or not math.isfinite(value) else value,
            unit=unit,
            bit_identical=bit_identical,
        )
        for metric, value, unit in metrics
    ]


@dataclass(frozen=True, slots=True)
class BenchRun:
    """One suite run: its records plus the facts needed to read them."""

    suite: str
    records: tuple[BenchRecord, ...]
    #: Flat suite facts (``device``, ``scaling_gated``, ``seed``, ...).
    context: dict[str, Scalar] = field(default_factory=dict)
    #: Schedulable cores when the run was measured (the affinity mask,
    #: which is what gates multi-worker claims, not the host's count).
    cpu_count: int = field(default_factory=available_cores)

    @property
    def cases(self) -> tuple[str, ...]:
        """Case names in first-measured order."""
        return tuple(dict.fromkeys(r.case for r in self.records))

    def value(self, case: str, metric: str) -> float | None:
        """The first ``metric`` reading of ``case``.

        Suites measure their headline geometry first, so for a swept
        case this is the headline reading.
        """
        for r in self.records:
            if r.case == case and r.metric == metric:
                return r.value
        raise ConfigError(f"{self.suite}: no {metric!r} reading for case {case!r}")

    @property
    def bit_identical(self) -> bool:
        """True when every record's outputs matched their reference."""
        return all(r.bit_identical for r in self.records)


def best_of(repeats: int, *calls: Callable[[], T]) -> list[tuple[float, T]]:
    """Best-of-``repeats`` wall-clock seconds of each call, and its last result.

    Each call runs once untimed first, so allocator growth, lazy imports
    and cold caches land outside the timed runs.  With several calls the
    timed runs are interleaved (a, b, a, b, ...) so host-speed drift
    biases them all alike.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    results = [call() for call in calls]
    best = [math.inf] * len(calls)
    for _ in range(repeats):
        for i, call in enumerate(calls):
            t0 = time.perf_counter()
            results[i] = call()
            best[i] = min(best[i], time.perf_counter() - t0)
    return list(zip(best, results))


def write_bench_json(run: BenchRun, path: Path) -> None:
    """Write ``run`` as a ``repro-bench/1`` file."""
    payload = {
        "schema": BENCH_SCHEMA,
        "suite": run.suite,
        "cpu_count": run.cpu_count,
        "context": run.context,
        "records": [asdict(r) for r in run.records],
    }
    Path(path).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def load_bench_json(path: Path) -> BenchRun:
    """Load a ``repro-bench/1`` file and enforce every suite's promises.

    Beyond shape (the header keys, every record field with its type,
    finite-or-null values, the suite's required context facts) a file
    is rejected when it has no records, when any record was not
    bit-identical to its reference, when a :data:`ZERO_METRICS` reading
    is non-zero, when a case's ``*_p99`` is below its ``*_p50``, or when
    a :data:`POSITIVE_TOTALS` metric sums to zero.
    """
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or payload.get("schema") != BENCH_SCHEMA:
        tag = payload.get("schema") if isinstance(payload, dict) else None
        raise ConfigError(
            f"{path}: schema {tag!r} is not {BENCH_SCHEMA!r}; regenerate it "
            "with `repro bench <suite> --json`"
        )
    header = {
        "suite": (str,),
        "cpu_count": (int,),
        "context": (dict,),
        "records": (list,),
    }
    for key, kinds in header.items():
        if not _is_a(payload.get(key), kinds):
            raise ConfigError(
                f"{path}: header {key!r} missing or not a {kinds[0].__name__}"
            )
    suite = payload["suite"]
    context = payload["context"]
    for key, value in context.items():
        if not _is_a(value, (str, int, float, bool, type(None))) or (
            isinstance(value, float) and not math.isfinite(value)
        ):
            raise ConfigError(f"{path}: context {key!r} is not a finite scalar")
    for key, kinds in REQUIRED_CONTEXT.get(suite, {}).items():
        if not _is_a(context.get(key), kinds):
            raise ConfigError(
                f"{path}: context {key!r} missing or not a {kinds[0].__name__}"
            )
    if not payload["records"]:
        raise ConfigError(f"{path}: no records")
    records = tuple(_record(path, suite, raw) for raw in payload["records"])
    _check_promises(path, records)
    return BenchRun(
        suite=suite,
        records=records,
        context=context,
        cpu_count=payload["cpu_count"],
    )


def _record(path: Path, suite: str, raw: object) -> BenchRecord:
    """Type-check one record object and build it."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: record is not an object: {raw!r}")
    for name, kinds in _FIELD_TYPES.items():
        if name not in raw or not _is_a(raw[name], kinds):
            raise ConfigError(
                f"{path}: record field {name!r} must be "
                f"{'/'.join(k.__name__ for k in kinds)}, got {raw.get(name)!r}"
            )
    extra = set(raw) - set(_FIELD_TYPES)
    if extra:
        raise ConfigError(f"{path}: record has unknown fields {sorted(extra)}")
    value = raw["value"]
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}: {raw['case']} {raw['metric']} is not finite")
    if raw["suite"] != suite:
        raise ConfigError(
            f"{path}: record of suite {raw['suite']!r} in a {suite!r} file"
        )
    return BenchRecord(**raw)


def _check_promises(path: Path, records: tuple[BenchRecord, ...]) -> None:
    """The suite-independent promises every measured file must keep."""
    totals: dict[str, float] = {}
    quantiles: dict[tuple[tuple[object, ...], str], dict[str, float]] = {}
    for r in records:
        where = f"{path}: {r.case} {r.metric}"
        if not r.bit_identical:
            raise ConfigError(f"{where}: outputs were not bit-identical")
        if r.metric in ZERO_METRICS and r.value != 0:
            raise ConfigError(f"{where} = {r.value}, must be 0")
        if r.metric in POSITIVE_TOTALS:
            totals[r.metric] = totals.get(r.metric, 0.0) + (r.value or 0.0)
        for q in ("p50", "p99"):
            if r.metric.endswith(f"_{q}") and r.value is not None:
                stem = r.metric[: -len(q) - 1]
                quantiles.setdefault((r.row_key, stem), {})[q] = r.value
    for (key, stem), q in quantiles.items():
        if "p50" in q and "p99" in q and q["p99"] < q["p50"]:
            raise ConfigError(
                f"{path}: {key[0]} has {stem}_p99 {q['p99']} < "
                f"{stem}_p50 {q['p50']}"
            )
    for metric, total in totals.items():
        if total <= 0:
            raise ConfigError(
                f"{path}: {metric} totals {total}; the run completed nothing"
            )


def _heading(record: BenchRecord) -> str:
    """Column heading of a metric: its name, then its unit unless a count."""
    if record.unit == "count":
        return record.metric
    return f"{record.metric} [{record.unit}]"


def render_bench(run: BenchRun) -> str:
    """Pivot table of ``run``: a row per case and geometry, a column per metric."""
    metrics = list(dict.fromkeys(_heading(r) for r in run.records))
    rows: dict[tuple[object, ...], dict[str, float | None]] = {}
    identical: dict[tuple[object, ...], bool] = {}
    for r in run.records:
        rows.setdefault(r.row_key, {})[_heading(r)] = r.value
        identical[r.row_key] = identical.get(r.row_key, True) and r.bit_identical
    table_rows = []
    for key, readings in rows.items():
        case, width, height, window, threshold, codec, workers = key
        cells = [readings.get(m, "-") for m in metrics]
        table_rows.append(
            (
                case,
                f"{width}x{height}",
                window,
                threshold,
                codec,
                workers,
                *("-" if c is None else c for c in cells),
                "yes" if identical[key] else "NO",
            )
        )
    table = render_table(
        ("case", "frame", "N", "T", "codec", "workers", *metrics, "bit-identical"),
        table_rows,
        title=f"repro bench {run.suite}",
    )
    facts = "".join(f"; {k}={v}" for k, v in run.context.items())
    return f"{table}\n\n{run.cpu_count} schedulable CPU core(s){facts}"


@dataclass(frozen=True, slots=True)
class Suite:
    """One measurement suite: its loop plus its default and smoke options."""

    name: str
    #: ``options -> BenchRun``; the options are the suite's own dataclass.
    measure: Callable[[Any], BenchRun]
    default: Any
    #: The small run CI and ``--smoke`` use.
    smoke: Any

    def options(self, smoke: bool = False, **overrides: object) -> Any:
        """Default (or smoke) options with every non-``None`` override applied.

        Overrides that are not option fields are ignored, so a parsed
        CLI namespace can be passed whole; lists become tuples.
        """
        base = self.smoke if smoke else self.default
        names = {f.name for f in fields(base)}
        given = {
            k: tuple(v) if isinstance(v, list) else v
            for k, v in overrides.items()
            if k in names and v is not None
        }
        return replace(base, **given)


def suite(name: str) -> Suite:
    """The registered suite ``name`` (its module is imported on demand)."""
    module = SUITE_MODULES.get(name)
    if module is None:
        raise ConfigError(
            f"unknown bench suite {name!r}; choose from {sorted(SUITE_MODULES)}"
        )
    found: Suite = importlib.import_module(f"{__package__}.{module}").SUITE
    return found
