"""The `Probe` seam the engines and the runtime report through.

Every instrumented component (engines, the resilient band codec, the fault
injector, the streaming runtime) takes an optional ``probe``.  ``None``
means *not observed* — the call sites guard on it, so an unprobed run
executes the exact seed-code path.  A :class:`MetricsProbe` records into
a :class:`~repro.observability.metrics.MetricsRegistry`; the
:class:`NullProbe` is a do-nothing stand-in for code that wants to hold a
probe unconditionally.

Spans are the stage timers: ``with probe.span("transform"): ...`` times
the block and records it under its *nesting path* (``run/transform``
inside ``probe.span("run")``), so the recorded label reconstructs the
pipeline structure — the software analogue of per-stage cycle counters
in the paper's instrumented RTL.

The probe MUST NOT change engine results: implementations only read
values handed to them and never mutate arguments (the probe-on/off
bit-identity property is pinned by the test suite).
"""

from __future__ import annotations

import threading
import time
from contextlib import AbstractContextManager
from typing import Protocol, runtime_checkable

import numpy as np

from .metrics import (
    BITS_BUCKETS,
    RATIO_BUCKETS,
    SMALL_INT_BUCKETS,
    TIME_BUCKETS,
    MetricsRegistry,
)

#: Bucket layout chosen per metric name family by :class:`MetricsProbe`.
_BUCKETS_BY_SUFFIX: tuple[tuple[str, tuple[float, ...]], ...] = (
    ("_seconds", TIME_BUCKETS),
    ("_ratio", RATIO_BUCKETS),
    ("_bits", BITS_BUCKETS),
    ("_nbits", SMALL_INT_BUCKETS),
)


def default_buckets(name: str) -> tuple[float, ...]:
    """Histogram buckets inferred from a metric name's unit suffix."""
    for suffix, buckets in _BUCKETS_BY_SUFFIX:
        if name.endswith(suffix):
            return buckets
    return TIME_BUCKETS


@runtime_checkable
class Probe(Protocol):
    """What an instrumented component may call on its probe."""

    def span(self, name: str) -> AbstractContextManager[object]:
        """A context manager timing one named stage."""

    def count(self, name: str, amount: float = 1.0, **labels: str) -> None:
        """Increment a counter."""

    def observe(self, name: str, value: float, **labels: str) -> None:
        """Record one histogram sample."""

    def observe_many(self, name: str, values: np.ndarray, **labels: str) -> None:
        """Record an array of histogram samples."""

    def gauge_set(self, name: str, value: float, **labels: str) -> None:
        """Record a gauge's current value."""

    def gauge_max(self, name: str, value: float, **labels: str) -> None:
        """Record a gauge high-water mark."""

    def snapshot(self) -> dict[str, object] | None:
        """The backing registry's snapshot (``None`` when unbacked)."""


class _NullSpan:
    """Reusable no-op context manager (cheaper than a generator)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        """No-op."""
        return self

    def __exit__(self, *exc_info: object) -> bool:
        """No-op; never swallows exceptions."""
        return False


_NULL_SPAN = _NullSpan()


class NullProbe:
    """A probe that records nothing (for unconditional probe holders)."""

    __slots__ = ()

    def span(self, name: str) -> _NullSpan:
        """No-op span."""
        return _NULL_SPAN

    def count(self, name: str, amount: float = 1.0, **labels: str) -> None:
        """No-op."""

    def observe(self, name: str, value: float, **labels: str) -> None:
        """No-op."""

    def observe_many(self, name: str, values: np.ndarray, **labels: str) -> None:
        """No-op."""

    def gauge_set(self, name: str, value: float, **labels: str) -> None:
        """No-op."""

    def gauge_max(self, name: str, value: float, **labels: str) -> None:
        """No-op."""

    def snapshot(self) -> None:
        """A null probe has no registry to snapshot."""
        return None


#: Shared do-nothing probe instance.
NULL_PROBE = NullProbe()


class _Span:
    """One active span: times the block, records under the nesting path."""

    __slots__ = ("_probe", "_name", "_t0")

    def __init__(self, probe: "MetricsProbe", name: str) -> None:
        self._probe = probe
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        """Push onto the probe's span stack and start the clock."""
        self._probe._stack_local().append(self._name)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        """Stop the clock, pop the stack, record the sample."""
        elapsed = time.perf_counter() - self._t0
        stack = self._probe._stack_local()
        path = "/".join(stack)
        stack.pop()
        self._probe.registry.histogram(
            "repro_span_seconds",
            {"span": path},
            buckets=TIME_BUCKETS,
            help="Wall-clock seconds per instrumented stage (by nesting path)",
        ).observe(elapsed)
        return False


class MetricsProbe:
    """A probe backed by a :class:`MetricsRegistry`.

    One probe serves one logical pipeline.  Span nesting is tracked
    per-thread, so concurrent streaming callbacks cannot corrupt each
    other's paths.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._local = threading.local()

    def _stack_local(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @property
    def span_stack(self) -> tuple[str, ...]:
        """The currently open span names, outermost first (this thread)."""
        return tuple(self._stack_local())

    def span(self, name: str) -> _Span:
        """Time a stage; records ``repro_span_seconds{span=<path>}``."""
        return _Span(self, name)

    def count(self, name: str, amount: float = 1.0, **labels: str) -> None:
        """Increment the counter ``name`` by ``amount``."""
        self.registry.counter(name, labels or None).inc(amount)

    def observe(self, name: str, value: float, **labels: str) -> None:
        """Record one sample into the histogram ``name``."""
        self.registry.histogram(
            name, labels or None, buckets=default_buckets(name)
        ).observe(value)

    def observe_many(self, name: str, values: np.ndarray, **labels: str) -> None:
        """Record an array of samples into the histogram ``name``."""
        self.registry.histogram(
            name, labels or None, buckets=default_buckets(name)
        ).observe_many(values)

    def gauge_set(self, name: str, value: float, **labels: str) -> None:
        """Record the gauge ``name``'s current value."""
        self.registry.gauge(name, labels or None).set(value)

    def gauge_max(self, name: str, value: float, **labels: str) -> None:
        """Raise the gauge ``name``'s high-water mark to ``value``."""
        self.registry.gauge(name, labels or None).set_max(value)

    def snapshot(self) -> dict:
        """The backing registry's snapshot."""
        return self.registry.snapshot()
