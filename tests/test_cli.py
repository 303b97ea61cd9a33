"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig3_defaults(self):
        """Artifact flags default to None: the registry entry holds the
        golden geometry."""
        from repro.analysis.artifacts import ARTIFACTS

        args = build_parser().parse_args(["artifact", "fig3"])
        assert (args.name, args.resolution, args.window) == ("fig3", None, None)
        assert ARTIFACTS["fig3"].geometry == {
            "resolution": 512,
            "window": 64,
            "threshold": 0,
        }

    def test_table_number_choices(self):
        with pytest.raises(SystemExit, match="unknown artifact 'table11'"):
            main(["artifact", "table11"])

    def test_resources_module_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resources", "alu"])

    def test_resources_defaults_to_memory_sweep(self):
        args = build_parser().parse_args(["resources"])
        assert args.device == "XC7Z020"
        assert args.mode == "exhaustive"

    def test_device_flag_choices(self):
        for command in (["resources"], ["bench", "perf"], ["fault-campaign"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args([*command, "--device", "XC9999"])
            args = build_parser().parse_args([*command, "--device", "ZU7EV"])
            assert args.device == "ZU7EV"

    def test_fault_campaign_scheme_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fault-campaign", "--schemes", "raid5"])

    def test_fault_campaign_defaults(self):
        args = build_parser().parse_args(["fault-campaign"])
        assert args.resolution == 96
        assert args.window == 8
        assert not args.smoke


class TestCommands:
    def test_fig3(self, capsys):
        code = main(["artifact", "fig3", "--resolution", "128", "--window", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig 3" in out and "LL" in out

    def test_fig11(self, capsys):
        assert main(["artifact", "fig11"]) == 0
        assert "87.50" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["artifact", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_resources(self, capsys):
        assert main(["artifact", "table6"]) == 0
        out = capsys.readouterr().out
        assert "592.10" in out or "592.1" in out

    def test_throughput(self, capsys):
        assert main(["artifact", "throughput", "--resolution", "64"]) == 0
        assert "traditional" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["table1", "table6", "fig11", "latency"])
    def test_artifact_without_flags_prints_its_golden(self, name, capsys):
        from pathlib import Path

        golden = Path(__file__).parent.parent / "benchmarks" / "out" / f"{name}.txt"
        assert main(["artifact", name]) == 0
        assert capsys.readouterr().out == golden.read_text()

    def test_artifact_refuses_a_flag_its_entry_does_not_take(self):
        with pytest.raises(SystemExit, match="fig11: takes no --images"):
            main(["artifact", "fig11", "--images", "2"])
        with pytest.raises(SystemExit, match="takes no --window"):
            main(["artifact", "table2", "--window", "8"])

    def test_fault_campaign_smoke(self, capsys):
        assert main(["fault-campaign", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "SEU campaign" in out
        assert "secded" in out and "none" in out
        assert "12.5%" in out
        assert "XC7Z020" in out

    def test_fault_campaign_device_in_title(self, capsys):
        assert main(["fault-campaign", "--smoke", "--device", "ZU7EV"]) == 0
        assert "ZU7EV" in capsys.readouterr().out

    def test_mse_small(self, capsys):
        code = main(
            ["artifact", "mse", "--resolution", "128", "--window", "16",
             "--images", "2", "--processes", "1"]
        )
        assert code == 0
        assert "threshold" in capsys.readouterr().out

    def test_fig13_small(self, capsys):
        # Uses the small-resolution path through the same code.
        code = main(
            ["artifact", "fig13", "--resolution", "256", "--images", "2",
             "--processes", "1"]
        )
        assert code == 0
        assert "±" in capsys.readouterr().out

    def test_ablation(self, capsys):
        code = main(
            ["artifact", "ablation_wavelets", "--resolution", "128", "--window", "16"]
        )
        assert code == 0
        assert "haar" in capsys.readouterr().out

    def test_validate(self, capsys):
        code = main(
            ["validate", "--resolution", "16", "--window", "4", "--no-cycle"]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_refuses_empty_lossy_comparison(self, capsys):
        """Lossy without cycle engines compares nothing: exit non-zero."""
        with pytest.raises(SystemExit, match="nothing to compare") as err:
            main(
                [
                    "validate",
                    "--resolution",
                    "16",
                    "--window",
                    "4",
                    "--no-cycle",
                    "--threshold",
                    "4",
                ]
            )
        assert err.value.code != 0
        assert "Engine validation" not in capsys.readouterr().out

    def test_validate_full_small(self, capsys):
        assert main(["validate", "--resolution", "16", "--window", "4"]) == 0
        out = capsys.readouterr().out
        assert "register-level" in out

    def test_coding(self, capsys):
        code = main(
            ["artifact", "coding_efficiency", "--resolution", "128", "--window", "16"]
        )
        assert code == 0
        assert "LOCO" in capsys.readouterr().out

    def test_dataset_render(self, tmp_path, capsys):
        code = main(
            ["dataset", "--out", str(tmp_path), "--resolution", "64", "--images", "2"]
        )
        assert code == 0
        files = sorted(tmp_path.glob("*.pgm"))
        assert len(files) == 2

    def test_compress_decompress_roundtrip(self, tmp_path, capsys):
        import numpy as np

        from repro.imaging import generate_scene
        from repro.imaging.pgm import read_pgm, write_pgm

        src = tmp_path / "in.pgm"
        rwc = tmp_path / "img.rwc"
        back = tmp_path / "out.pgm"
        write_pgm(src, generate_scene(seed=5, resolution=64))
        assert main(["compress", str(src), str(rwc), "--ll-dpcm"]) == 0
        assert "ratio" in capsys.readouterr().out
        assert main(["decompress", str(rwc), str(back)]) == 0
        assert np.array_equal(read_pgm(back), read_pgm(src))  # lossless


class TestResourcesCommand:
    def test_memory_sweep_default_device(self, capsys):
        assert main(["resources", "--images", "2"]) == 0
        out = capsys.readouterr().out
        assert "Memory placement on XC7Z020" in out
        assert "bram18" in out

    def test_memory_sweep_ultrascale(self, capsys):
        assert main(["resources", "--device", "ZU7EV", "--images", "2"]) == 0
        out = capsys.readouterr().out
        assert "Memory placement on ZU7EV" in out
        assert "LUTRAM" in out and "uram" in out

    def test_format_json_and_artifact(self, tmp_path, capsys):
        import json

        out_json = tmp_path / "resources.json"
        code = main(
            [
                "resources",
                "--device",
                "ZU7EV",
                "--images",
                "2",
                "--format",
                "json",
                "--json",
                str(out_json),
            ]
        )
        assert code == 0
        from repro.analysis.resources import RESOURCES_SCHEMA, load_resources_json

        stdout_payload = json.loads(capsys.readouterr().out)
        assert stdout_payload["schema"] == RESOURCES_SCHEMA
        payload = load_resources_json(out_json)
        assert payload == stdout_payload
        kinds = {
            pt["placement"]["payload"]["primitive"] for pt in payload["points"]
        }
        assert "uram" in kinds

    def test_module_tables_are_artifacts(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resources", "overall"])
        assert main(["artifact", "table10"]) == 0
        assert "LUT" in capsys.readouterr().out


def bench_options(*argv: str):
    """The suite options ``repro bench <argv>`` would run with."""
    from repro.analysis.bench import suite

    args = build_parser().parse_args(["bench", *argv])
    return suite(args.suite).options(**vars(args))


class TestPerfCommand:
    def test_perf_smoke(self, tmp_path, capsys):
        out_json = tmp_path / "BENCH_perf.json"
        code = main(
            [
                "bench",
                "perf",
                "--smoke",
                "--resolution",
                "64",
                "--window",
                "8",
                "--json",
                str(out_json),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fast" in out
        assert "speedup_vs_seed" in out
        from repro.analysis.bench import load_bench_json

        run = load_bench_json(out_json)
        assert run.value("fast", "pixels_per_sec") > 0
        assert {r.window for r in run.records} == {8}

    def test_perf_strategy_subset(self, tmp_path, capsys):
        out_json = tmp_path / "BENCH_perf.json"
        code = main(
            [
                "bench",
                "perf",
                "--smoke",
                "--resolution",
                "64",
                "--window",
                "8",
                "--strategy",
                "sequential",
                "--json",
                str(out_json),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "golden" not in out
        from repro.analysis.bench import load_bench_json

        assert load_bench_json(out_json).cases == ("sequential",)

    def test_perf_strategy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "perf", "--strategy", "warp-drive"])

    def test_perf_device_rides_on_payload(self, tmp_path):
        out_json = tmp_path / "BENCH_perf.json"
        code = main(
            [
                "bench",
                "perf",
                "--smoke",
                "--resolution",
                "64",
                "--window",
                "8",
                "--device",
                "ZU3EG",
                "--strategy",
                "sequential",
                "--json",
                str(out_json),
            ]
        )
        assert code == 0
        from repro.analysis.bench import load_bench_json

        assert load_bench_json(out_json).context["device"] == "ZU3EG"

    def test_smoke_keeps_given_flags(self):
        options = bench_options("perf", "--smoke", "--repeats", "4")
        assert options.repeats == 4
        assert options.windows == ()
        assert bench_options("perf").repeats == 3


class TestStreamCommand:
    def test_stream_defaults(self):
        options = bench_options("stream")
        assert options.resolution == 512
        assert options.frames == 8
        assert options.worker_counts == (1, 2, 4)
        assert bench_options("stream", "--workers", "1", "3").worker_counts == (1, 3)

    def test_stream_smoke(self, tmp_path, capsys):
        out_json = tmp_path / "BENCH_stream.json"
        code = main(["bench", "stream", "--smoke", "--json", str(out_json)])
        assert code == 0
        out = capsys.readouterr().out
        assert "single-process" in out
        assert "workers=2" in out
        from repro.analysis.bench import load_bench_json

        run = load_bench_json(out_json)
        assert run.cases == ("single-process", "workers=1", "workers=2")
        assert run.bit_identical


class TestServeAndChaosFlags:
    def test_serve_flags_map_onto_options(self):
        options = bench_options(
            "serve", "--levels", "1", "3", "--frames", "5", "--workers", "2",
            "--url", "127.0.0.1:9000",
        )
        assert options.levels == (1, 3)
        assert options.frames_per_level == 5
        assert options.workers == 2
        assert options.url == "127.0.0.1:9000"

    def test_chaos_flags_map_onto_options(self):
        options = bench_options(
            "chaos", "--smoke", "--seed", "7", "--deadline", "3.5", "--frames", "6"
        )
        assert (options.seed, options.deadline_seconds, options.frames) == (7, 3.5, 6)
        assert options.resolution == 96

    def test_old_subcommands_are_gone(self):
        for command in (
            "perf", "stream", "loadgen", "chaos", "metrics", "profile",
            "fig3", "fig11", "fig13", "table", "mse", "headline", "ablation",
            "throughput", "coding", "tradeoff",
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command])


class TestImports:
    def test_parser_does_not_import_analysis_or_scipy(self):
        """``repro serve`` enters through the CLI: building the parser
        must not pull in the analysis stack (or scipy under it)."""
        import subprocess
        import sys

        code = (
            "import sys, repro.cli; repro.cli.build_parser(); "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('repro.analysis', 'scipy'))))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert out.strip() == "[]"


class TestMetricsCommand:
    def test_metrics_defaults(self):
        options = bench_options("probe")
        assert options.resolution == 256
        assert options.window == 16
        assert options.strategy == "fast"
        assert options.repeats == 3

    def test_common_engine_flags_are_uniform(self):
        """Every bench suite shares one geometry and codec vocabulary."""
        for name in ("perf", "stream", "serve", "chaos", "probe"):
            options = bench_options(
                name, "--resolution", "100", "--window", "4", "--threshold", "2",
                "--codec", "numpy",
            )
            assert (options.resolution, options.window, options.threshold) == (
                100,
                4,
                2,
            )
            assert options.codec == "numpy"
        fc = build_parser().parse_args(
            ["fault-campaign", "--resolution", "100", "--window", "4"]
        )
        assert (fc.resolution, fc.window) == (100, 4)

    def test_metrics_engine_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "probe", "--strategy", "quantum"])
        assert bench_options("probe", "--strategy", "traditional").strategy == (
            "traditional"
        )

    def test_metrics_run_and_exports(self, tmp_path, capsys):
        jsonl = tmp_path / "metrics.jsonl"
        prom = tmp_path / "metrics.prom"
        code = main(
            [
                "bench",
                "probe",
                "--resolution",
                "64",
                "--window",
                "8",
                "--repeats",
                "1",
                "--jsonl",
                str(jsonl),
                "--prometheus",
                str(prom),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "overhead_pct" in out
        assert "self_ms" in out
        assert f"wrote {jsonl}" in out
        from repro.observability.export import (
            load_metrics_jsonl,
            parse_prometheus_names,
        )

        records = load_metrics_jsonl(jsonl)
        assert any(r["name"] == "repro_frames_total" for r in records)
        names = parse_prometheus_names(prom.read_text())
        assert "repro_span_seconds" in names
