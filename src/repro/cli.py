"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands map one-to-one onto the experiment registry so every paper
artifact can be regenerated from a shell::

    repro fig3
    repro fig13 --resolution 1024 --row-stride 64
    repro table 1
    repro table 4 --images 4
    repro resources overall
    repro mse
    repro dataset --out /tmp/scenes --resolution 512
    repro headline
    repro ablation wavelets
    repro fault-campaign --schemes none secded --rates 1e-3
    repro bench perf --json BENCH_perf.json --strategy sequential fast
    repro bench stream --workers 1 2 4 --json BENCH_stream.json
    repro bench chaos --smoke
    repro bench probe --jsonl metrics.jsonl --prometheus metrics.prom

Each command imports the modules it runs only when it runs, so
``repro serve`` starts without the analysis stack.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from .config import PAPER_IMAGE_WIDTHS


def add_common_engine_flags(
    p: argparse.ArgumentParser,
    *,
    resolution: int,
    window: int,
    threshold: int | None = 0,
    codec: bool = False,
    device: bool = False,
) -> None:
    """Attach the engine-geometry flags shared by the engine commands.

    ``serve`` and ``fault-campaign`` describe the same thing — one
    engine geometry to run — so they share one flag vocabulary instead
    of drifting copies.  Pass ``threshold=None`` to skip the
    ``--threshold`` flag (``fault-campaign`` sweeps a plural
    ``--thresholds`` instead); ``codec=True`` adds the codec-tier flag
    for commands that build compressed engines; ``device=True`` adds the
    target-device flag for commands whose results are device-dependent.
    """
    p.add_argument(
        "--resolution",
        type=int,
        default=resolution,
        help=f"square frame resolution (default {resolution})",
    )
    p.add_argument(
        "--window",
        type=int,
        default=window,
        help=f"window size N (default {window})",
    )
    if threshold is not None:
        p.add_argument(
            "--threshold",
            type=int,
            default=threshold,
            help=f"compression threshold T (default {threshold})",
        )
    if codec:
        p.add_argument(
            "--codec",
            choices=("auto", "numpy", "native"),
            default="auto",
            help="pack/size codec tier (default auto: native when available)",
        )
    if device:
        add_device_flag(p)


def add_device_flag(p: argparse.ArgumentParser) -> None:
    """Attach the ``--device`` target-part flag (default XC7Z020)."""
    from .hardware.device import DEVICES

    p.add_argument(
        "--device",
        choices=sorted(DEVICES),
        default="XC7Z020",
        help="target FPGA part (default XC7Z020, the paper's device)",
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--images", type=int, default=10, help="suite size (default 10)")
    p.add_argument(
        "--row-stride",
        type=int,
        default=None,
        help="band sampling stride (default: window size)",
    )
    p.add_argument(
        "--processes", type=int, default=None, help="sweep workers (default: auto)"
    )


def _add_bench_parser(
    sub: argparse._SubParsersAction[argparse.ArgumentParser],
) -> None:
    """``repro bench <suite>``: run one measurement suite.

    Every option flag defaults to ``None``: the suite's own options,
    defined once next to its measurement loop, supply the defaults, and
    ``--smoke`` swaps in the suite's small run.  Each flag's ``dest`` is
    the options field it sets.
    """
    from .hardware.device import DEVICES

    p_bench = sub.add_parser(
        "bench", help="run one measurement suite (repro-bench/1 records)"
    )
    suites = p_bench.add_subparsers(dest="suite", required=True)
    helps = {
        "perf": "wall-clock pixels/sec of every engine strategy",
        "stream": "multi-frame streaming throughput vs worker count",
        "serve": "closed-loop offered-load sweep against the gateway",
        "chaos": "fault-injection campaign against the streaming runtime",
        "probe": "probe overhead plus the per-span total/self table",
    }
    parsers = {
        name: suites.add_parser(name, help=text) for name, text in helps.items()
    }
    for p in parsers.values():
        p.add_argument("--resolution", type=int, help="square frame resolution")
        p.add_argument("--window", type=int, help="window size N")
        p.add_argument("--threshold", type=int, help="compression threshold T")
        p.add_argument(
            "--codec",
            choices=("auto", "numpy", "native"),
            help="pack/size codec tier (default auto: native when available)",
        )
        p.add_argument(
            "--smoke", action="store_true", help="the suite's small CI run"
        )
        p.add_argument(
            "--json", type=Path, help="also write the repro-bench/1 file here"
        )
    perf = parsers["perf"]
    perf.add_argument(
        "--strategy",
        dest="strategies",
        nargs="+",
        choices=("golden", "traditional", "sequential", "fast"),
        help="strategy subset to time (the sequential baseline always is)",
    )
    perf.add_argument(
        "--repeats", type=int, help="timed repeats after one warm-up (best kept)"
    )
    perf.add_argument(
        "--device", choices=sorted(DEVICES), help="target FPGA part recorded"
    )
    stream = parsers["stream"]
    stream.add_argument("--frames", type=int, help="frames per timed pass")
    stream.add_argument(
        "--workers",
        dest="worker_counts",
        type=int,
        nargs="+",
        help="worker counts to sweep",
    )
    serve = parsers["serve"]
    serve.add_argument(
        "--url", help="target an already-running gateway (default: start one)"
    )
    serve.add_argument(
        "--levels", type=int, nargs="+", help="offered concurrency levels"
    )
    serve.add_argument(
        "--frames", dest="frames_per_level", type=int, help="frame jobs per level"
    )
    serve.add_argument("--workers", type=int, help="gateway worker processes")
    chaos = parsers["chaos"]
    chaos.add_argument("--frames", type=int, help="frames per scenario")
    chaos.add_argument("--workers", type=int, help="streaming worker processes")
    chaos.add_argument("--seed", type=int, help="fault-assignment seed")
    chaos.add_argument(
        "--deadline",
        dest="deadline_seconds",
        type=float,
        help="per-attempt supervision deadline in seconds",
    )
    probe = parsers["probe"]
    probe.add_argument(
        "--strategy",
        choices=("fast", "sequential", "traditional"),
        help="engine strategy to probe",
    )
    probe.add_argument(
        "--repeats", type=int, help="timed repeats after one warm-up (best kept)"
    )
    probe.add_argument(
        "--jsonl", type=Path, help="write the snapshot as repro-metrics/1 lines"
    )
    probe.add_argument(
        "--prometheus", type=Path, help="write the snapshot as Prometheus text"
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the IPPS 2017 compressed sliding-window paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig3 = sub.add_parser("fig3", help="Fig 3: buffered bits per sub-band")
    p_fig3.add_argument("--resolution", type=int, default=512)
    p_fig3.add_argument("--window", type=int, default=64)
    p_fig3.add_argument("--threshold", type=int, default=0)

    p_fig13 = sub.add_parser("fig13", help="Fig 13: memory savings with CIs")
    p_fig13.add_argument("--resolution", type=int, default=2048)
    _add_common(p_fig13)

    p_table = sub.add_parser("table", help="Tables I-V: BRAM counts")
    p_table.add_argument("number", type=int, choices=(1, 2, 3, 4, 5))
    _add_common(p_table)

    p_res = sub.add_parser(
        "resources",
        help="Tables VI-X LUT/FF/Fmax, or the device memory-placement sweep",
    )
    p_res.add_argument(
        "module",
        nargs="?",
        default="memory",
        choices=(
            "memory",
            "iwt",
            "bit_packing",
            "bit_unpacking",
            "iiwt",
            "overall",
        ),
        help=(
            "block for the LUT/FF/Fmax table, or 'memory' (default) for "
            "the portfolio placement sweep"
        ),
    )
    add_device_flag(p_res)
    p_res.add_argument(
        "--width", type=int, default=512, help="image width (memory sweep)"
    )
    p_res.add_argument(
        "--threshold", type=int, default=0, help="compression threshold T"
    )
    p_res.add_argument(
        "--images", type=int, default=3, help="benchmark suite size"
    )
    p_res.add_argument(
        "--mode",
        choices=("exhaustive", "greedy"),
        default="exhaustive",
        help="placement search mode (memory sweep)",
    )
    p_res.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="memory-sweep output format (json is the repro-resources/1 schema)",
    )
    p_res.add_argument(
        "--json",
        type=Path,
        default=None,
        help="also write the repro-resources/1 artifact here (memory sweep)",
    )

    p_mse = sub.add_parser("mse", help="MSE vs threshold sweep")
    p_mse.add_argument("--resolution", type=int, default=512)
    p_mse.add_argument("--window", type=int, default=64)
    p_mse.add_argument("--recirculated", action="store_true")
    _add_common(p_mse)

    p_head = sub.add_parser("headline", help="abstract claims sweep")
    _add_common(p_head)

    p_abl = sub.add_parser("ablation", help="design-choice ablations")
    p_abl.add_argument("which", choices=("wavelets", "levels", "nbits"))
    p_abl.add_argument("--resolution", type=int, default=512)
    p_abl.add_argument("--threshold", type=int, default=0)

    sub.add_parser("fig11", help="Fig 11: memory mapping options")
    sub.add_parser("throughput", help="cycles/output of both engines")

    p_val = sub.add_parser("validate", help="cross-check every engine model")
    p_val.add_argument("--resolution", type=int, default=32)
    p_val.add_argument("--window", type=int, default=8)
    p_val.add_argument("--threshold", type=int, default=0)
    p_val.add_argument(
        "--no-cycle", action="store_true", help="skip the slow register-level engine"
    )

    p_cod = sub.add_parser(
        "coding", help="coding-efficiency ladder (NBits / entropy / JPEG-LS)"
    )
    p_cod.add_argument("--resolution", type=int, default=256)
    p_cod.add_argument("--window", type=int, default=32)
    p_cod.add_argument("--threshold", type=int, default=0)

    p_tr = sub.add_parser("tradeoff", help="BRAMs saved vs LUTs spent per window")
    p_tr.add_argument("--width", type=int, default=512)
    p_tr.add_argument("--threshold", type=int, default=6)
    p_tr.add_argument("--images", type=int, default=3)

    p_fc = sub.add_parser(
        "fault-campaign", help="SEU injection sweep over protection schemes"
    )
    add_common_engine_flags(
        p_fc, resolution=96, window=8, threshold=None, codec=True, device=True
    )
    p_fc.add_argument(
        "--schemes",
        nargs="+",
        default=None,
        choices=("none", "parity", "tmr-nbits", "secded"),
        help="protection levels to sweep (default: all)",
    )
    p_fc.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=(1e-4, 1e-3),
        help="per-bit upset probabilities",
    )
    p_fc.add_argument(
        "--thresholds",
        type=int,
        nargs="+",
        default=(0,),
        help="compression thresholds to sweep",
    )
    p_fc.add_argument(
        "--flips-per-word",
        type=int,
        default=None,
        help="exactly-k mode: flip k bits in every stored word",
    )
    p_fc.add_argument("--seed", type=int, default=0)
    p_fc.add_argument(
        "--smoke",
        action="store_true",
        help="tiny fast sweep (none vs secded at one rate)",
    )

    _add_bench_parser(sub)

    p_serve = sub.add_parser(
        "serve", help="asyncio frame-serving gateway over the streaming runtime"
    )
    add_common_engine_flags(p_serve, resolution=128, window=8, codec=True)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8080, help="TCP port (0: ephemeral)"
    )
    p_serve.add_argument(
        "--workers", type=int, default=None, help="worker processes"
    )
    p_serve.add_argument(
        "--slots", type=int, default=None, help="ring depth (frames in flight)"
    )
    p_serve.add_argument(
        "--max-in-flight",
        type=int,
        default=None,
        help="admission budget before 429 shedding (default: 2x ring slots)",
    )
    p_serve.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="per-request deadline in seconds (expiry answers 504)",
    )

    p_lint = sub.add_parser(
        "lint", help="reprolint: domain-invariant static analysis (REP rules)"
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=None,
        help="files/directories to lint (default: src/)",
    )
    p_lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json is the reprolint/1 CI schema)",
    )
    p_lint.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule subset, e.g. REP001,REP004 (default: all)",
    )
    p_lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    p_lint.add_argument(
        "--native",
        action="store_true",
        help=(
            "also run the native codec's bit-identity corpus under an "
            "ASan/UBSan-instrumented build"
        ),
    )
    p_lint.add_argument(
        "--native-corpus",
        default=None,
        help=(
            "pytest corpus for --native (default: tests/packing/test_native.py "
            "and tests/window/test_fast_path.py)"
        ),
    )
    p_lint.add_argument(
        "--no-unused-waivers",
        action="store_true",
        help="do not report stale '# reprolint: disable=...' waivers (REP000)",
    )

    p_rep = sub.add_parser("report", help="one-shot reproduction report")
    p_rep.add_argument("--resolution", type=int, default=512)
    p_rep.add_argument("--images", type=int, default=3)
    p_rep.add_argument("--processes", type=int, default=None)
    p_rep.add_argument("--no-validate", action="store_true")

    p_ds = sub.add_parser("dataset", help="render the benchmark suite to PGM")
    p_ds.add_argument("--out", type=Path, required=True)
    p_ds.add_argument("--resolution", type=int, default=512)
    p_ds.add_argument("--images", type=int, default=10)

    p_c = sub.add_parser("compress", help="compress a PGM image to .rwc")
    p_c.add_argument("input", type=Path)
    p_c.add_argument("output", type=Path)
    p_c.add_argument("--band", type=int, default=16, help="band height N")
    p_c.add_argument("--threshold", type=int, default=0)
    p_c.add_argument("--levels", type=int, default=1)
    p_c.add_argument("--ll-dpcm", action="store_true")

    p_d = sub.add_parser("decompress", help="decompress a .rwc to PGM")
    p_d.add_argument("input", type=Path)
    p_d.add_argument("output", type=Path)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "fig3":
        from .analysis import experiments as ex

        result = ex.fig3_memory_trace(
            resolution=args.resolution, window=args.window, threshold=args.threshold
        )
        print(result.render())
    elif args.command == "fig13":
        from .analysis import experiments as ex

        result = ex.fig13_memory_savings(
            resolution=args.resolution,
            n_images=args.images,
            row_stride=args.row_stride,
            processes=args.processes,
        )
        print(result.render())
    elif args.command == "table":
        from .analysis import experiments as ex

        if args.number == 1:
            print(ex.table1_traditional_brams().render())
        else:
            width = PAPER_IMAGE_WIDTHS[args.number - 2]
            result = ex.bram_table(
                width,
                n_images=args.images,
                row_stride=args.row_stride,
                processes=args.processes,
            )
            print(result.render())
    elif args.command == "resources":
        if args.module == "memory":
            import json as _json

            from .analysis.resources import (
                ResourcesOptions,
                measure_resources,
                write_resources_json,
            )

            report = measure_resources(
                ResourcesOptions(
                    device=args.device,
                    width=args.width,
                    threshold=args.threshold,
                    n_images=args.images,
                    mode=args.mode,
                )
            )
            if args.format == "json":
                print(_json.dumps(report.to_json_dict(), indent=2))
            else:
                print(report.render())
            if args.json is not None:
                write_resources_json(report, args.json)
                # Keep stdout a pure document under --format json.
                print(f"wrote {args.json}", file=sys.stderr)
        else:
            from .analysis import experiments as ex

            print(ex.resource_table(args.module).render())
    elif args.command == "mse":
        from .analysis import experiments as ex

        result = ex.mse_vs_threshold(
            resolution=args.resolution,
            window=args.window,
            n_images=args.images,
            include_recirculated=args.recirculated,
            processes=args.processes,
        )
        print(result.render())
    elif args.command == "headline":
        from .analysis import experiments as ex

        print(
            ex.headline_claims(
                n_images=args.images,
                row_stride=args.row_stride,
                processes=args.processes,
            ).render()
        )
    elif args.command == "ablation":
        from .analysis import experiments as ex

        fn = {
            "wavelets": ex.ablation_wavelets,
            "levels": ex.ablation_levels,
            "nbits": ex.ablation_nbits_granularity,
        }[args.which]
        print(fn(resolution=args.resolution, threshold=args.threshold).render())
    elif args.command == "fig11":
        from .analysis import experiments as ex

        print(ex.fig11_mapping_options().render())
    elif args.command == "throughput":
        from .analysis import experiments as ex

        print(ex.throughput_experiment().render())
    elif args.command == "validate":
        from .analysis.validation import validate_engines
        from .config import ArchitectureConfig
        from .errors import ConfigError
        from .imaging import generate_scene
        from .kernels import BoxFilterKernel

        config = ArchitectureConfig(
            image_width=args.resolution,
            image_height=args.resolution,
            window_size=args.window,
            threshold=args.threshold,
        )
        image = generate_scene(seed=1, resolution=args.resolution)
        try:
            result = validate_engines(
                config,
                image,
                BoxFilterKernel(args.window),
                include_cycle_engines=not args.no_cycle,
            )
        except ConfigError as err:
            raise SystemExit(f"repro validate: {err}") from err
        print(result.render())
        return 0 if result.all_consistent else 1
    elif args.command == "coding":
        from .analysis.coding import coding_efficiency
        from .config import ArchitectureConfig
        from .imaging import generate_scene

        config = ArchitectureConfig(
            image_width=args.resolution,
            image_height=args.resolution,
            window_size=args.window,
            threshold=args.threshold,
        )
        image = generate_scene(seed=1, resolution=args.resolution)
        print(coding_efficiency(config, image).render())
    elif args.command == "tradeoff":
        from .analysis.tradeoff import bram_lut_tradeoff

        print(
            bram_lut_tradeoff(
                width=args.width, threshold=args.threshold, n_images=args.images
            ).render()
        )
    elif args.command == "fault-campaign":
        from .analysis.faults import DEFAULT_SCHEMES, fault_campaign

        if args.smoke:
            result = fault_campaign(
                resolution=48,
                window=4,
                schemes=("none", "secded"),
                upset_rates=(1e-3,),
                thresholds=(0,),
                flips_per_word=args.flips_per_word,
                seed=args.seed,
                codec=args.codec,
                device=args.device,
            )
        else:
            result = fault_campaign(
                resolution=args.resolution,
                window=args.window,
                schemes=tuple(args.schemes) if args.schemes else DEFAULT_SCHEMES,
                upset_rates=tuple(args.rates),
                thresholds=tuple(args.thresholds),
                flips_per_word=args.flips_per_word,
                seed=args.seed,
                codec=args.codec,
                device=args.device,
            )
        print(result.render())
    elif args.command == "bench":
        from .analysis.bench import render_bench, suite, write_bench_json

        bench = suite(args.suite)
        run = bench.measure(bench.options(**vars(args)))
        print(render_bench(run))
        if args.json is not None:
            write_bench_json(run, args.json)
        for key in ("json", "jsonl", "prometheus"):
            if getattr(args, key, None) is not None:
                print(f"wrote {getattr(args, key)}")
    elif args.command == "serve":
        import asyncio
        import signal

        from .serve.gateway import FrameGateway, GatewayConfig

        gateway_config = GatewayConfig(
            host=args.host,
            port=args.port,
            resolution=args.resolution,
            window=args.window,
            threshold=args.threshold,
            codec=args.codec,
            workers=args.workers,
            slots=args.slots,
            max_in_flight=args.max_in_flight,
            request_timeout_seconds=args.request_timeout,
        )

        async def _serve_foreground() -> None:
            # SIGTERM cancels this task like Ctrl-C does, so the gateway
            # closes its frame ring instead of leaking the segment.
            task = asyncio.current_task()
            if task is None:  # pragma: no cover - asyncio.run always has one
                raise RuntimeError("serve must run inside a task")
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, task.cancel
            )
            gateway = FrameGateway(gateway_config)
            try:
                await gateway.start()
                print(
                    f"serving {gateway_config.resolution}x"
                    f"{gateway_config.resolution} frames on "
                    f"http://{gateway_config.host}:{gateway.port} "
                    "(Ctrl-C to stop)",
                    flush=True,
                )
                await gateway.serve_forever()
            except asyncio.CancelledError:
                pass  # SIGTERM or Ctrl-C: an orderly stop, not an error
            finally:
                await gateway.close()

        try:
            asyncio.run(_serve_foreground())
        except KeyboardInterrupt:
            pass
    elif args.command == "lint":
        from .lint import (
            LintReport,
            default_rules,
            lint_paths,
            render_json,
            render_rule_table,
            render_text,
        )

        rules = default_rules()
        if args.rules is not None:
            wanted = {code.strip() for code in args.rules.split(",")}
            unknown = wanted - {r.code for r in rules}
            if unknown:
                raise SystemExit(f"unknown lint rules: {sorted(unknown)}")
            rules = tuple(r for r in rules if r.code in wanted)
        if args.list_rules:
            print(
                render_rule_table(
                    LintReport(violations=(), files_checked=0, rules=rules)
                )
            )
            return 0
        paths = args.paths if args.paths else [Path("src")]
        report = lint_paths(
            paths, rules, report_unused_waivers=not args.no_unused_waivers
        )
        print(render_json(report) if args.format == "json" else render_text(report))
        # Exit-code contract: 0 clean, 1 findings, 2 the linter itself
        # broke (rule crash) — CI must be able to tell these apart.
        if report.crashes:
            pointer = Path(tempfile.gettempdir()) / "reprolint-crash.log"
            pointer.write_text(
                "\n\n".join(c.traceback for c in report.crashes)
            )
            print(
                f"{len(report.crashes)} rule crash(es); tracebacks: {pointer}",
                file=sys.stderr,
            )
            return 2
        if args.native:
            from .core.packing.native.sanitize import (
                DEFAULT_CORPUS,
                run_corpus,
            )

            corpus = (args.native_corpus,) if args.native_corpus else DEFAULT_CORPUS
            print(f"sanitizer pass: {' '.join(corpus)} under ASan/UBSan ...")
            code, output = run_corpus(corpus)
            if code != 0:
                print(output, file=sys.stderr)
                print(f"sanitizer pass FAILED (exit {code})")
                return 1
            print("sanitizer pass ok")
        return 0 if report.ok else 1
    elif args.command == "report":
        from .analysis.report import ReportOptions, full_report

        print(
            full_report(
                ReportOptions(
                    resolution=args.resolution,
                    n_images=args.images,
                    processes=args.processes,
                    validate=not args.no_validate,
                )
            )
        )
    elif args.command == "dataset":
        from .imaging.dataset import dataset_images
        from .imaging.pgm import write_pgm

        args.out.mkdir(parents=True, exist_ok=True)
        for name, img in dataset_images(args.resolution, n_images=args.images):
            path = args.out / f"{name}.pgm"
            write_pgm(path, img)
            print(f"wrote {path} mean={img.mean():.1f} std={img.std():.1f}")
    elif args.command == "compress":
        from .config import ArchitectureConfig
        from .core.packing.container import compress_image
        from .imaging.pgm import read_pgm

        image = read_pgm(args.input)
        config = ArchitectureConfig(
            image_width=image.shape[1],
            image_height=image.shape[0],
            window_size=args.band,
            threshold=args.threshold,
            decomposition_levels=args.levels,
            ll_dpcm=args.ll_dpcm,
        )
        blob = compress_image(config, image.astype("int64"))
        args.output.write_bytes(blob)
        raw = image.size
        print(
            f"{args.input} ({raw} bytes) -> {args.output} ({len(blob)} bytes), "
            f"ratio {raw / len(blob):.2f}x"
        )
    elif args.command == "decompress":
        from .core.packing.container import decompress_image
        from .imaging.pgm import write_pgm

        image, config = decompress_image(args.input.read_bytes())
        write_pgm(args.output, image)
        print(f"{args.input} -> {args.output} ({config.describe()})")
    else:  # pragma: no cover - argparse enforces choices
        raise AssertionError(args.command)
    return 0


if __name__ == "__main__":
    sys.exit(main())
