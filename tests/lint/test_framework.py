"""Framework-level reprolint tests: suppressions, drivers, reporters."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.lint import (
    LintReport,
    ModuleSource,
    Violation,
    check_module,
    default_rules,
    iter_python_files,
    lint_paths,
    load_report_json,
    render_json,
    render_rule_table,
    render_text,
)
from repro.lint.framework import suppressed_lines
from repro.lint.rules import BitExactRule


def _src(text: str, module: str = "repro.core.transform.fake") -> ModuleSource:
    return ModuleSource.from_source(text, module=module)


class TestModuleSource:
    def test_module_name_derivation(self, tmp_path):
        pkg = tmp_path / "mypkg" / "sub"
        pkg.mkdir(parents=True)
        (tmp_path / "mypkg" / "__init__.py").write_text('"""p."""\n')
        (pkg / "__init__.py").write_text('"""s."""\n')
        mod = pkg / "leaf.py"
        mod.write_text('"""l."""\nx = 1\n')
        source = ModuleSource.from_path(mod)
        assert source.module == "mypkg.sub.leaf"
        assert not source.is_package
        init = ModuleSource.from_path(pkg / "__init__.py")
        assert init.module == "mypkg.sub"
        assert init.is_package

    def test_parent_links(self):
        source = _src("x = 1 + 2\n")
        import ast

        binop = next(
            n for n in ast.walk(source.tree) if isinstance(n, ast.BinOp)
        )
        chain = list(source.ancestors(binop))
        assert isinstance(chain[0], ast.Assign)
        assert chain[-1] is source.tree


class TestSuppressions:
    def test_same_line_suppression(self):
        clean = _src("x = 1.5  # reprolint: disable=REP001\n")
        assert check_module(clean, [BitExactRule()]) == []

    def test_line_above_suppression(self):
        clean = _src("# reprolint: disable=REP001\nx = 1.5\n")
        assert check_module(clean, [BitExactRule()]) == []

    def test_unrelated_code_not_suppressed(self):
        dirty = _src("x = 1.5  # reprolint: disable=REP002\n")
        assert len(check_module(dirty, [BitExactRule()])) == 1

    def test_file_wide_suppression(self):
        clean = _src(
            "# reprolint: disable-file=REP001\nx = 1.5\ny = 2.5\n"
        )
        assert check_module(clean, [BitExactRule()]) == []

    def test_disable_all(self):
        clean = _src("x = 1.5  # reprolint: disable=all\n")
        assert check_module(clean, [BitExactRule()]) == []

    def test_suppressed_lines_parser(self):
        per_line, file_wide = suppressed_lines(
            _src(
                "# reprolint: disable=REP001,REP002\n"
                "x = 1\n"
                "y = 2  # reprolint: disable-file=REP004\n"
            )
        )
        assert per_line[1] == {"REP001", "REP002"}
        assert per_line[2] == {"REP001", "REP002"}  # comment-only line above
        assert file_wide == {"REP004"}


class TestDrivers:
    def test_iter_python_files_skips_pycache(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "a.cpython-311.py").write_text("x = 1\n")
        files = list(iter_python_files([tmp_path]))
        assert [p.name for p in files] == ["a.py"]

    def test_iter_python_files_missing_path(self, tmp_path):
        with pytest.raises(ConfigError):
            list(iter_python_files([tmp_path / "nope"]))

    def test_lint_paths_counts_files(self, tmp_path):
        (tmp_path / "a.py").write_text('"""a."""\nx = 1\n')
        (tmp_path / "b.py").write_text('"""b."""\ny = 2\n')
        report = lint_paths([tmp_path])
        assert report.files_checked == 2
        assert report.ok
        assert len(report.rules) == 8

    def test_violations_sorted_by_position(self):
        source = _src("y = a / b\nx = 1.5\n")
        found = check_module(source, [BitExactRule()])
        assert [v.line for v in found] == [1, 2]


class TestReporters:
    def _report(self) -> LintReport:
        violation = Violation(
            rule="REP001",
            path="src/x.py",
            line=3,
            col=4,
            message="float literal 1.5",
        )
        return LintReport(
            violations=(violation,),
            files_checked=7,
            rules=tuple(default_rules()),
        )

    def test_violation_format(self):
        assert (
            self._report().violations[0].format()
            == "src/x.py:3:4: REP001 float literal 1.5"
        )

    def test_render_text_with_violations(self):
        text = render_text(self._report())
        assert "src/x.py:3:4: REP001" in text
        assert "1 violation in 1 file(s) (7 checked)" in text

    def test_render_text_clean(self):
        clean = LintReport(violations=(), files_checked=7)
        assert render_text(clean) == "clean: 7 file(s) checked"

    def test_json_roundtrip(self):
        payload = load_report_json(render_json(self._report()))
        assert payload["schema"] == "reprolint/1"
        assert payload["files_checked"] == 7
        assert payload["violations"][0]["rule"] == "REP001"
        assert {r["code"] for r in payload["rules"]} == {
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP006",
            "REP007",
            "REP008",
            "REP009",
        }

    def test_load_rejects_wrong_schema(self):
        with pytest.raises(ConfigError):
            load_report_json(json.dumps({"schema": "other/1"}))

    def test_load_rejects_missing_violation_keys(self):
        bad = {
            "schema": "reprolint/1",
            "files_checked": 1,
            "rules": [],
            "violations": [{"rule": "REP001"}],
        }
        with pytest.raises(ConfigError):
            load_report_json(json.dumps(bad))

    def test_rule_table_lists_all_codes(self):
        table = render_rule_table(self._report())
        for code in ("REP001", "REP002", "REP003", "REP004", "REP006"):
            assert code in table
