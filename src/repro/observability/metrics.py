"""Zero-dependency metrics primitives: counters, gauges, histograms.

The observability layer mirrors what the paper's evaluation needed from
hardware instrumentation — per-stage cycle counters, FIFO high-water
marks, per-band size distributions — as three process-local instrument
kinds held in a :class:`MetricsRegistry`:

- :class:`Counter` — monotonically increasing totals (frames processed,
  SEUs injected, FIFO overflows);
- :class:`Gauge` — point-in-time values with an optional high-water mode
  (queue depth, FIFO peak bits);
- :class:`Histogram` — fixed-bucket distributions with exact ``sum`` and
  ``count`` (span latencies, per-band NBits / occupancy / zero-ratio).

Everything is plain Python + numpy (for vectorised histogram fills), is
thread-safe (the streaming runtime observes from its result-callback
thread), and snapshots to plain dicts the exporters in
:mod:`repro.observability.export` serialise.  Registries merge — worker
processes snapshot their registry and the owner folds the snapshots in —
which is how streaming metrics aggregate across processes.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

import numpy as np

from ..errors import ConfigError

#: Canonical label encoding: sorted ``(key, value)`` pairs.
LabelPairs = tuple[tuple[str, str], ...]

#: Default latency buckets (seconds) — spans from ~10 us to 10 s.
TIME_BUCKETS: tuple[float, ...] = (
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    0.1,
    1.0,
    10.0,
)

#: Default buckets for small integer distributions (NBits fields).
SMALL_INT_BUCKETS: tuple[float, ...] = tuple(float(v) for v in range(0, 13))

#: Default buckets for ratios in ``[0, 1]`` (band zero-ratio).
RATIO_BUCKETS: tuple[float, ...] = tuple(i / 10.0 for i in range(0, 11))

#: Default buckets for bit counts (powers of two up to 16 Mb).
BITS_BUCKETS: tuple[float, ...] = tuple(float(1 << p) for p in range(6, 25, 2))


def labels_key(labels: Mapping[str, str] | None) -> LabelPairs:
    """Canonicalise a label mapping into sorted ``(key, value)`` pairs."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ConfigError(f"{self.name}: counters only increase, got {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value; ``set_max`` turns it into a high-water mark."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)

    def set_max(self, value: float) -> None:
        """Record ``value`` only if it exceeds the held one (high-water)."""
        if value > self.value:
            self.value = float(value)


class Histogram:
    """A fixed-bucket distribution with exact ``sum`` and ``count``.

    ``buckets`` are the inclusive upper bounds of the finite buckets, in
    strictly increasing order; one implicit overflow bucket (``+Inf``)
    catches everything beyond the last bound, so
    ``sum(bucket_counts) == count`` always holds (the invariant the test
    suite pins).
    """

    __slots__ = (
        "name",
        "labels",
        "bounds",
        "bucket_counts",
        "sum",
        "count",
        "_int_base",
    )

    def __init__(
        self, name: str, buckets: Iterable[float], labels: LabelPairs = ()
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigError(f"{name}: histogram needs at least one bucket")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ConfigError(
                f"{name}: bucket bounds must strictly increase, got {bounds}"
            )
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0
        # Consecutive-integer bounds (0,1,2,...) admit a shift+clip+bincount
        # bulk path that skips the per-element binary search — the hot case
        # for the per-band NBits distributions.
        self._int_base: int | None = (
            int(bounds[0])
            if all(
                b.is_integer() and b == bounds[0] + i
                for i, b in enumerate(bounds)
            )
            else None
        )

    def observe(self, value: float) -> None:
        """Record one sample."""
        idx = int(np.searchsorted(self.bounds, value, side="left"))
        self.bucket_counts[idx] += 1
        self.sum += float(value)
        self.count += 1

    def observe_many(self, values: np.ndarray) -> None:
        """Record a whole array of samples in one vectorised pass."""
        arr = np.asarray(values).ravel()
        if arr.size == 0:
            return
        if self._int_base is not None and arr.dtype.kind in "iu":
            # Equivalent to searchsorted(side="left") for integer samples
            # against consecutive integer bounds, minus the binary search.
            # Signed, so unsigned samples below the base do not wrap.
            offset = np.subtract(arr, self._int_base, dtype=np.int64)
            idx = np.clip(offset, 0, len(self.bounds))
        else:
            idx = np.searchsorted(
                self.bounds, arr.astype(np.float64, copy=False), side="left"
            )
        fills = np.bincount(idx, minlength=len(self.bucket_counts))
        for i, n in enumerate(fills):
            self.bucket_counts[i] += int(n)
        self.sum += float(arr.sum())
        self.count += int(arr.size)

    @property
    def mean(self) -> float:
        """Sample mean (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear bucket interpolation.

        Follows the Prometheus ``histogram_quantile`` convention: the
        target rank is located in the cumulative bucket counts, then
        interpolated linearly inside that bucket (the first finite
        bucket's lower edge is 0 — all recorded distributions here are
        non-negative).  A rank landing in the ``+Inf`` overflow bucket
        returns the last finite bound (the estimate cannot exceed what
        the buckets resolve).  Returns ``nan`` for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"{self.name}: quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        target = q * self.count
        cumulative = 0
        for idx, bucket_count in enumerate(self.bucket_counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative < target or bucket_count == 0:
                continue
            if idx >= len(self.bounds):
                return self.bounds[-1]
            lower = 0.0 if idx == 0 else self.bounds[idx - 1]
            upper = self.bounds[idx]
            fraction = (target - previous) / bucket_count
            return lower + (upper - lower) * fraction
        return self.bounds[-1]  # pragma: no cover - cumulative == count


class MetricsRegistry:
    """Get-or-create home of every instrument, with snapshot and merge.

    Instruments are keyed by ``(name, labels)``; re-requesting the same
    key returns the same instrument, and requesting an existing name with
    a different instrument kind raises :class:`~repro.errors.ConfigError`
    (one name, one kind — the Prometheus exposition rule).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, LabelPairs], Counter] = {}
        self._gauges: dict[tuple[str, LabelPairs], Gauge] = {}
        self._histograms: dict[tuple[str, LabelPairs], Histogram] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}

    # -- instrument factories -------------------------------------------

    def _claim(self, name: str, kind: str, help: str | None) -> None:
        seen = self._kinds.get(name)
        if seen is None:
            self._kinds[name] = kind
        elif seen != kind:
            raise ConfigError(
                f"metric {name!r} already registered as a {seen}, "
                f"cannot re-register as a {kind}"
            )
        if help:
            self._help.setdefault(name, help)

    def counter(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        *,
        help: str | None = None,
    ) -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        key = (name, labels_key(labels))
        with self._lock:
            self._claim(name, "counter", help)
            inst = self._counters.get(key)
            if inst is None:
                inst = Counter(name, key[1])
                self._counters[key] = inst
            return inst

    def gauge(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        *,
        help: str | None = None,
    ) -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        key = (name, labels_key(labels))
        with self._lock:
            self._claim(name, "gauge", help)
            inst = self._gauges.get(key)
            if inst is None:
                inst = Gauge(name, key[1])
                self._gauges[key] = inst
            return inst

    def histogram(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        *,
        buckets: Iterable[float] = TIME_BUCKETS,
        help: str | None = None,
    ) -> Histogram:
        """Get or create the histogram ``name`` with ``labels``.

        ``buckets`` only applies on first creation; later requests reuse
        the existing bounds (and must not contradict them).
        """
        key = (name, labels_key(labels))
        with self._lock:
            self._claim(name, "histogram", help)
            inst = self._histograms.get(key)
            if inst is None:
                inst = Histogram(name, buckets, key[1])
                self._histograms[key] = inst
            return inst

    # -- introspection ---------------------------------------------------

    def counters(self) -> list[Counter]:
        """Every registered counter (stable order)."""
        with self._lock:
            return [self._counters[k] for k in sorted(self._counters)]

    def gauges(self) -> list[Gauge]:
        """Every registered gauge (stable order)."""
        with self._lock:
            return [self._gauges[k] for k in sorted(self._gauges)]

    def histograms(self) -> list[Histogram]:
        """Every registered histogram (stable order)."""
        with self._lock:
            return [self._histograms[k] for k in sorted(self._histograms)]

    def help_text(self, name: str) -> str:
        """The help string registered for ``name`` (may be empty)."""
        return self._help.get(name, "")

    # -- snapshot / merge ------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict copy of every instrument (JSON-serialisable)."""
        with self._lock:
            return {
                "counters": [
                    {
                        "name": c.name,
                        "labels": dict(c.labels),
                        "value": c.value,
                    }
                    for k, c in sorted(self._counters.items())
                ],
                "gauges": [
                    {
                        "name": g.name,
                        "labels": dict(g.labels),
                        "value": g.value,
                    }
                    for k, g in sorted(self._gauges.items())
                ],
                "histograms": [
                    {
                        "name": h.name,
                        "labels": dict(h.labels),
                        "buckets": list(h.bounds),
                        "bucket_counts": list(h.bucket_counts),
                        "sum": h.sum,
                        "count": h.count,
                    }
                    for k, h in sorted(self._histograms.items())
                ],
            }

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histograms add; gauges take the maximum (every gauge
        the engines emit is a high-water mark, so max is the aggregation
        that preserves its meaning across processes).
        """
        for entry in snapshot.get("counters", ()):
            self.counter(entry["name"], entry.get("labels")).inc(entry["value"])
        for entry in snapshot.get("gauges", ()):
            self.gauge(entry["name"], entry.get("labels")).set_max(entry["value"])
        for entry in snapshot.get("histograms", ()):
            hist = self.histogram(
                entry["name"],
                entry.get("labels"),
                buckets=entry["buckets"],
            )
            if tuple(float(b) for b in entry["buckets"]) != hist.bounds:
                raise ConfigError(
                    f"{entry['name']}: cannot merge histograms with "
                    f"different bucket bounds"
                )
            for i, n in enumerate(entry["bucket_counts"]):
                hist.bucket_counts[i] += int(n)
            hist.sum += float(entry["sum"])
            hist.count += int(entry["count"])
