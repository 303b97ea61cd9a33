"""Benchmark entry point: one workload, one run, one JSON result line.

Usage::

    python3 perfbench/run.py --workload frame-fast --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics, taken with span wrappers
installed around the program's layers from this directory's code.  The
last line of standard output is the result object; the line before it
records the environment and the host counters of the run.  ``--frames``
and ``--corrupt-expected`` exist for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import spans
from pinning import ROOT, environment_info, pin_environment

# ``inproc`` and ``serving`` import NumPy, so they are imported only
# after ``pin_environment()`` has set the BLAS thread counts.

#: Least share of the traced latency the named layers must account for
#: (``trace.accounted_frac``), per workload; the share can never exceed 1.
#: The residual is the engine's own Python (in process) or socket writes,
#: event-loop scheduling and request parsing (gateway).  Each floor lies a
#: little below what full-length runs read (README.md), so a wrapper that
#: is missing or never called fails the benchmark's tests.
ACCOUNTED_FLOOR = {"frame-fast": 0.90, "frame-recirc": 0.80, "serve-small": 0.60}


def median(values: list[float]) -> float:
    """Median, 0.0 for no values."""
    return statistics.median(values) if values else 0.0


def end_to_end(
    setup_s: list[float],
    latencies_s: list[float],
    segments: list[tuple[int, int, float, float]],
    peak_rss_mb: float,
) -> dict[str, float]:
    """The end-to-end figures every workload measures.

    ``segments`` cut the timed phase into consecutive parts, each given
    as ``(good frames, frames, wall s, CPU s)``.  Rate and CPU cost are
    medians over the segments, like the latency over the frames, so a
    burst of host contention that slows a few segments does not move
    them.
    """
    return {
        "setup_s": median(setup_s),
        "frames_per_s": median([good / wall for good, _, wall, _ in segments]),
        "latency_ms_p50": median(latencies_s) * 1e3,
        "latency_ms_p90": statistics.quantiles(latencies_s, n=10, method="inclusive")[8] * 1e3,
        "cpu_ms_per_frame": median([cpu * 1e3 / n for _, n, _, cpu in segments]),
        "peak_rss_mb": peak_rss_mb,
    }


def in_process(args: argparse.Namespace) -> tuple[dict, dict, int, int]:
    """Run a frame workload; returns (metrics, info, attempted, failed)."""
    import inproc

    workload = inproc.WORKLOADS[args.workload]
    raw = inproc.measure(
        workload, args.seed, args.seconds, trace=bool(args.trace),
        frames=args.frames, corrupt=args.corrupt_expected,
    )  # fmt: skip
    info = {
        "frames": raw["frames"],
        "setup_samples_s": raw["setup_s"],
        "steal_frac": raw["steal_frac"],
        **segment_totals(raw["segments"]),
    }
    if not args.trace:
        metrics = end_to_end(
            raw["setup_s"], raw["latencies"], raw["segments"], raw["peak_rss_mb"]
        )
        return metrics, info, raw["attempted"], raw["failed"]

    traced = [lat for lat, t in zip(raw["latencies"], raw["traced"]) if t]
    untraced = [lat for lat, t in zip(raw["latencies"], raw["traced"]) if not t]
    rows = raw["breakdowns"]
    layers = list(dict.fromkeys(layer for _, _, layer in spans.IN_PROCESS_LAYERS))
    metrics = {
        layer + suffix: median([row.get(layer + suffix, 0.0) for row in rows])
        for layer in layers
        for suffix in ("_ms", "_calls", "_self_ms")
    }
    metrics["core.window.self_ms"] = median([r["core.window.self_ms"] for r in rows])
    # Per frame, the named layers' self times over the frame's latency.
    accounted = [
        sum(row.get(f"{layer}_self_ms", 0.0) for layer in layers) / (lat * 1e3)
        for row, lat in zip(rows, traced)
    ]
    metrics.update(trace_summary(traced, untraced, median(accounted)))
    metrics["host.steal_frac"] = raw["steal_frac"]
    return metrics, info, raw["attempted"], raw["failed"]


def segment_totals(segments: list[tuple[int, int, float, float]]) -> dict[str, float]:
    """Whole-phase rate and CPU cost, for the info line."""
    good, frames, wall, cpu = (sum(column) for column in zip(*segments))
    return {"mean_frames_per_s": good / wall, "mean_cpu_ms_per_frame": cpu * 1e3 / frames}


def trace_summary(traced: list[float], untraced: list[float], accounted: float) -> dict:
    """Traced vs untraced median latency and the accounting ratio."""
    t50, u50 = median(traced) * 1e3, median(untraced) * 1e3
    return {
        "trace.latency_ms_p50": t50,
        "trace.untraced_latency_ms_p50": u50,
        "trace.overhead_frac": t50 / u50 - 1.0,
        "trace.accounted_frac": accounted,
    }


def serve_small(args: argparse.Namespace) -> tuple[dict, dict, int, int]:
    """Run the gateway workload; returns (metrics, info, attempted, failed)."""
    import serving

    ref = serving.Reference.build(args.seed)
    if args.corrupt_expected:
        ref.outputs[-1] = ref.outputs[-1].copy()
        ref.outputs[-1][0, 0] += 1
    count = args.frames if args.frames is not None else serving.frame_count(args.seconds)
    if not args.trace:
        setup_s, phases, lost = serving.measure(ref, count)
        phase = serving.combine(phases)
        failed = lost + sum(not r.ok for r in phase.requests)
        lat = [r.done - r.sent for r in phase.requests]
        segments = [
            (sum(r.ok for r in p.requests), len(p.requests), p.wall_s, p.server_cpu_s)
            for p in phases
        ]
        metrics = end_to_end(setup_s, lat, segments, phase.peak_rss_mb)
        info = {
            **serve_info(phase, count, lost),
            **segment_totals(segments),
            "setup_samples_s": setup_s,
        }
        return metrics, info, count + len(setup_s), failed

    spans_path = serving.WORK_DIR / "serve.spans.json"
    plain, traced, lost = serving.alternate(ref, count, spans_path)
    requests = plain.requests + traced.requests
    failed = lost + sum(not r.ok for r in requests)
    frames = len(plain.requests)
    metrics = serve_layers(traced, json.loads(spans_path.read_text()))
    metrics.update(
        {
            "serve.gateway.cpu_ms_per_frame": serving.gateway_cpu_s(plain) * 1e3 / frames,
            "runtime.worker.cpu_ms_per_frame": plain.worker_cpu_s * 1e3 / frames,
            "runtime.worker_engine_ms": median([r.engine_s for r in traced.requests]) * 1e3,
            "runtime.retried_frames": sum(r.attempts > 1 for r in requests),
            "runtime.degraded_frames": sum(r.degraded for r in requests),
            "serve.shed_frames": sum(r.status == 429 for r in requests),
            "host.steal_frac": plain.steal_frac,
            "host.loadgen_cpu_ms_per_frame": plain.loadgen_cpu_s * 1e3 / frames,
        }
    )
    lat_traced = [r.done - r.sent for r in traced.requests]
    parts = sum(
        metrics[k]
        for k in ("serve.http.read_ms", "serve.payload.decode_ms", "serve.bridge.process_ms",
                  "serve.payload.encode_ms", "serve.http.render_ms")
    )  # fmt: skip
    mean_ms = statistics.fmean(lat_traced) * 1e3
    metrics.update(
        trace_summary(lat_traced, [r.done - r.sent for r in plain.requests], parts / mean_ms)
    )
    info = serve_info(plain, frames, lost)
    return metrics, info, len(requests), failed


def serve_layers(phase, recorded: list) -> dict[str, float]:
    """Per-frame mean ms of each gateway layer inside the timed windows."""
    totals: dict[str, float] = {}
    for layer, start, end, _parent, _self in recorded:
        if any(lo <= end <= hi for lo, hi in phase.windows):
            totals[layer] = totals.get(layer, 0.0) + (end - start)
    return {
        f"{layer}_ms": totals.get(layer, 0.0) * 1e3 / len(phase.requests)
        for _, _, layer in spans.SERVE_LAYERS
    }


def serve_info(phase, frames: int, lost: int) -> dict:
    """Host and per-process counters of one gateway phase."""
    import serving

    return {
        "frames": frames,
        "steal_frac": phase.steal_frac,
        "gateway_cpu_ms_per_frame": serving.gateway_cpu_s(phase) * 1e3 / frames,
        "worker_cpu_ms_per_frame": phase.worker_cpu_s * 1e3 / frames,
        "loadgen_cpu_ms_per_frame": phase.loadgen_cpu_s * 1e3 / frames,
        # Wrong warm-up frames, leaked segments, outliving processes.
        "server_failures": lost,
    }


RUNNERS = {"frame-fast": in_process, "frame-recirc": in_process, "serve-small": serve_small}


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for a mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    """Parse flags, run one workload, print the result line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--frames", type=int, default=None, help="override the frame count")
    parser.add_argument(
        "--corrupt-expected", action="store_true",
        help="perturb one expected output (the correctness check must catch it)",
    )  # fmt: skip
    args = parser.parse_args(argv)
    pin_environment()
    env = environment_info()  # also warms the native cache before any timing
    units = declared_metrics(args.trace)
    metrics, info, attempted, failed = RUNNERS[args.workload](args)
    if args.trace:
        # A layer this workload never calls reads 0 (see README.md).
        metrics = {**dict.fromkeys(units, 0.0), **metrics}
    else:
        # Figures measured but not gated (latency_ms_p90, see README.md).
        info.update({k: v for k, v in metrics.items() if k not in units})
    print(json.dumps({"info": {"workload": args.workload, "env": env, **info}}))
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
