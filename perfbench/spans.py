"""Spans around calls into the program's layers, installed from outside.

The tracer replaces module or class attributes of ``repro`` with thin
wrappers that record ``(layer, start, end, parent, self)`` for every call and
put the original back on :meth:`Tracer.remove`.  Nothing under ``src/``
knows about it.  Start and end are ``time.monotonic()`` stamps, one
clock for every process of the host, so spans recorded in the gateway
can be lined up with request times taken in the load generator.

A span's parent is the innermost traced call still open on the same
thread; coroutine spans (``FrameBridge.process``, ``read_request``) are
recorded without a parent, because coroutines interleave on one thread.

``read_request`` also waits on an idle keep-alive connection for the
next request.  Its span therefore starts when the load generator began
writing the request the read returned, a ``time.monotonic()`` stamp the
load generator sends in the :data:`SENT_HEADER` header; a read that
returns no request counts zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: Native-tier entry points (everything the wrapper module exports that
#: does arithmetic; the loader helpers are not on a frame's path).
NATIVE_ENTRY_POINTS = (
    "pair_transform",
    "threshold_inplace",
    "pair_reduce",
    "stack_nbits",
    "bit_widths",
    "occupancy_peaks",
    "pack_values",
    "unpack_values",
    "pack_column",
)

#: ``(owner, attribute, layer)``: ``owner`` is a module path, or
#: ``module:Class`` for a method.  Layers take their module names.
IN_PROCESS_LAYERS: tuple[tuple[str, str, str], ...] = (
    ("repro.core.window.compressed", "golden_apply", "kernels.golden_apply"),
    ("repro.core.window.compressed", "band_stack_sizes", "core.stats.band_stack_sizes"),
    ("repro.core.window.compressed", "analyze_band", "core.stats.analyze_band"),
    ("repro.core.window.compressed", "sliding_occupancy", "core.stats.sliding_occupancy"),
    ("repro.core.stats", "forward_inplace", "core.transform.forward"),
    ("repro.core.stats", "inverse_inplace", "core.transform.inverse"),
) + tuple(
    ("repro.core.packing.native", name, "core.packing.native")
    for name in NATIVE_ENTRY_POINTS
)

SERVE_LAYERS: tuple[tuple[str, str, str], ...] = (
    ("repro.serve.gateway", "read_request", "serve.http.read"),
    ("repro.serve.gateway", "decode_frame", "serve.payload.decode"),
    ("repro.serve.gateway", "encode_array", "serve.payload.encode"),
    ("repro.serve.gateway", "json_response", "serve.http.render"),
    ("repro.serve.bridge:FrameBridge", "process", "serve.bridge.process"),
    ("repro.runtime.streaming:StreamingProcessor", "submit", "runtime.submit"),
    ("repro.runtime.streaming:StreamingProcessor", "poll", "runtime.poll_wait"),
    ("repro.runtime.ring:FrameRing", "acquire", "runtime.slot_wait"),
)

#: Request header with the load generator's send stamp.
SENT_HEADER = "X-Perfbench-Sent"


def _request_sent(request: Any) -> float | None:
    """The send stamp of a parsed request; ``None`` when it returned none."""
    if request is None:
        return None
    stamp = request.headers.get(SENT_HEADER.lower())
    return float(stamp) if stamp is not None else None


#: Layers whose span starts at a stamp read from the call's result.
START_FROM_RESULT: dict[str, Callable[[Any], "float | None"]] = {
    "serve.http.read": _request_sent,
}

#: One recorded call: layer, start, end, parent layer (or None), and
#: self seconds (the call's duration minus its traced children).
Span = tuple[str, float, float, "str | None", float]


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class Tracer:
    """Installs span-recording wrappers and collects their spans."""

    def __init__(self, layers: tuple[tuple[str, str, str], ...]) -> None:
        self.layers = layers
        self.spans: list[Span] = []
        self._open = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        return stack

    def _wrap(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        spans = self.spans
        clock = time.monotonic
        if inspect.iscoroutinefunction(fn):
            start_of = START_FROM_RESULT.get(layer)

            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    end = clock()
                    if start_of is not None:
                        stamp = start_of(result)
                        start = end if stamp is None else min(max(start, stamp), end)
                    spans.append((layer, start, end, None, end - start))

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            frame = [layer, 0.0]  # [layer, time spent in traced children]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += end - start
                spans.append(
                    (layer, start, end, parent[0] if parent else None,
                     end - start - frame[1])
                )

        return traced

    def install(self) -> "Tracer":
        """Replace every listed attribute with its traced wrapper."""
        for owner, attr, layer in self.layers:
            target = _resolve(owner)
            original = target.__dict__[attr]
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(original, layer))
        return self

    def remove(self) -> None:
        """Put every original attribute back."""
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def drain(self) -> list[Span]:
        """The spans recorded so far; the tracer starts a fresh list."""
        taken = self.spans[:]
        del self.spans[:]
        return taken

    def dump(self, path: Path) -> None:
        """Write every recorded span to ``path`` as JSON."""
        path.write_text(json.dumps(self.spans))


def frame_breakdown(spans: list[Span], latency_s: float) -> dict[str, float]:
    """One frame's per-layer inclusive ms, call counts and self ms.

    ``<layer>_ms`` is the inclusive time of the layer's calls,
    ``<layer>_calls`` their count and ``<layer>_self_ms`` the inclusive
    time minus traced children.  ``core.window.self_ms`` is the frame's
    latency minus every span without a traced parent: the engine's own
    Python between calls.  The self times of all layers plus
    ``core.window.self_ms`` add up to the frame's latency.
    """
    out: dict[str, float] = {}
    top = 0.0
    for layer, start, end, parent, self_s in spans:
        for key, value in (
            (f"{layer}_ms", (end - start) * 1e3),
            (f"{layer}_calls", 1.0),
            (f"{layer}_self_ms", self_s * 1e3),
        ):
            out[key] = out.get(key, 0.0) + value
        if parent is None:
            top += end - start
    out["core.window.self_ms"] = (latency_s - top) * 1e3
    return out
