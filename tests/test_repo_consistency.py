"""Repository consistency checks: docs, benches and deliverables agree."""

from __future__ import annotations

import importlib
import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


class TestDeliverables:
    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "pyproject.toml"):
            assert (ROOT / name).is_file(), name

    def test_minimum_example_count(self):
        examples = list((ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3
        assert (ROOT / "examples" / "quickstart.py").exists()

    def test_every_paper_table_and_figure_has_a_bench(self):
        benches = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
        required = (
            {"bench_fig3.py", "bench_fig11.py", "bench_fig12.py", "bench_fig13.py"}
            | {f"bench_table{i}.py" for i in range(1, 11)}
            | {"bench_mse.py", "bench_headline.py", "bench_throughput.py"}
        )
        missing = required - benches
        assert not missing, f"missing benches: {sorted(missing)}"


class TestDesignDoc:
    def test_design_references_every_bench(self):
        design = (ROOT / "DESIGN.md").read_text()
        for bench in (ROOT / "benchmarks").glob("bench_*.py"):
            if bench.name in (
                # Helper-adjacent benches documented collectively.
                "bench_tradeoff.py",
            ):
                continue
            assert bench.name in design or bench.stem in design, bench.name

    def test_design_confirms_paper_identity(self):
        design = (ROOT / "DESIGN.md").read_text()
        assert "Paper identity check" in design

    def test_experiments_records_deviations(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for marker in ("3840", "recirculat", "Deviation"):
            assert marker in text, marker


class TestBenchHygiene:
    def test_every_bench_uses_the_benchmark_fixture(self):
        """--benchmark-only must run every bench, so each test needs the
        fixture."""
        for bench in (ROOT / "benchmarks").glob("bench_*.py"):
            source = bench.read_text()
            assert "def test_" in source, bench.name
            assert "benchmark" in source, bench.name

    def test_every_bench_reports_an_artifact(self):
        for bench in (ROOT / "benchmarks").glob("bench_*.py"):
            source = bench.read_text()
            # Directly, or via a shared runner (_bram_tables /
            # _resource_tables) that reports and asserts internally.
            assert any(
                marker in source
                for marker in ("report(", "assert", "run_bram_table", "run_resource_table")
            ), bench.name


class TestBenchmarkSpans:
    def test_every_span_owner_resolves(self):
        """``perfbench/spans.py`` wraps program names from outside, by
        string: a rename under ``src/`` must fail here rather than drop
        a layer from the benchmark's traces."""
        path = ROOT / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        assert spec is not None and spec.loader is not None
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        layers = spans.IN_PROCESS_LAYERS + spans.SERVE_LAYERS
        assert layers
        for owner, attribute, layer in layers:
            module_name, _, class_name = owner.partition(":")
            target = importlib.import_module(module_name)
            if class_name:
                target = getattr(target, class_name)
            assert callable(getattr(target, attribute, None)), (
                f"{layer}: {owner}.{attribute} does not resolve"
            )


class TestStaticAnalysis:
    def test_repro_lint_clean_on_src(self):
        """`repro lint src/` must be clean: the rules gate the repo itself."""
        from repro.lint import lint_paths

        report = lint_paths([ROOT / "src"])
        assert report.ok, "\n".join(v.format() for v in report.violations)

    def test_no_bytecode_or_caches_tracked(self):
        tracked = subprocess.run(
            ["git", "ls-files"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.splitlines()
        offenders = [
            f
            for f in tracked
            if f.endswith((".pyc", ".pyo"))
            or "__pycache__" in f
            or ".egg-info/" in f
        ]
        assert not offenders, offenders

    def test_gitignore_covers_bytecode(self):
        text = (ROOT / ".gitignore").read_text()
        assert "__pycache__/" in text
        assert "*.py[cod]" in text

    @pytest.mark.skipif(
        shutil.which("ruff") is None, reason="ruff not installed"
    )
    def test_ruff_clean(self):
        proc = subprocess.run(
            ["ruff", "check", "src", "tests", "benchmarks"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    @pytest.mark.skipif(
        shutil.which("mypy") is None, reason="mypy not installed"
    )
    def test_mypy_strict_clean(self):
        proc = subprocess.run(
            ["mypy", "--strict", "src/repro"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestDocstringCoverage:
    def test_every_module_has_a_docstring(self):
        import ast

        for path in (ROOT / "src").rglob("*.py"):
            tree = ast.parse(path.read_text())
            assert ast.get_docstring(tree), f"{path} lacks a module docstring"

    def test_every_public_function_and_class_documented(self):
        import ast

        undocumented: list[str] = []
        for path in (ROOT / "src").rglob("*.py"):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    if node.name.startswith("_"):
                        continue
                    if not ast.get_docstring(node):
                        undocumented.append(f"{path.name}:{node.name}")
        assert not undocumented, undocumented
