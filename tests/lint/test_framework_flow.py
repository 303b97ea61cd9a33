"""PR 10 framework features: REP000, crash capture, AST cache, baseline diff."""

from __future__ import annotations

import ast
import json

import pytest

from repro.lint import (
    AstCache,
    ModuleSource,
    RuleCrash,
    analyze_module,
    default_rules,
    diff_reports,
    lint_paths,
    load_report_json,
    render_diff,
    render_json,
)
from repro.lint.rules import ProbePurityRule


class _CrashingRule:
    code = "REPXXX"
    name = "crashes"
    description = "raises on every module (test double)"

    def check(self, source):
        raise RuntimeError("rule exploded")


class _CrashingFunctionRule:
    code = "REPYYY"
    name = "crashes-per-function"
    description = "raises on every function (test double)"

    def check(self, source):
        return iter(())

    def check_function(self, source, func, cfg):
        raise RuntimeError("function rule exploded")


def _src(text: str, module: str = "") -> ModuleSource:
    return ModuleSource.from_source(text, module=module)


class TestUnusedWaivers:
    def test_stale_waiver_reported_as_rep000(self):
        result = analyze_module(
            _src("x = 1  # reprolint: disable=REP003\n"),
            [ProbePurityRule()],
        )
        assert result.violations == ()
        assert [v.rule for v in result.unused_waivers] == ["REP000"]
        assert "REP003" in result.unused_waivers[0].message

    def test_used_waiver_not_reported(self):
        result = analyze_module(
            _src('def f(probe):  # reprolint: disable=REP003\n    """F."""\n'),
            [ProbePurityRule()],
        )
        assert result.violations == ()
        assert result.unused_waivers == ()

    def test_waiver_for_rule_that_did_not_run_is_not_judged(self):
        # Only codes among the rules that actually ran can be declared
        # stale — a REP001 waiver is unknowable when REP001 didn't run.
        result = analyze_module(
            _src("x = 1  # reprolint: disable=REP001\n"),
            [ProbePurityRule()],
        )
        assert result.unused_waivers == ()

    def test_docstring_mention_is_not_a_waiver(self):
        result = analyze_module(
            _src(
                '"""Docs: waive with ``# reprolint: disable=REP003``."""\n'
                "x = 1\n"
            ),
            [ProbePurityRule()],
        )
        assert result.unused_waivers == ()

    def test_stale_file_wide_waiver_reported(self):
        result = analyze_module(
            _src("# reprolint: disable-file=REP003\nx = 1\n"),
            [ProbePurityRule()],
        )
        assert [v.rule for v in result.unused_waivers] == ["REP000"]

    def test_lint_paths_surfaces_and_suppresses_rep000(self, tmp_path):
        target = tmp_path / "stale.py"
        target.write_text('"""S."""\n\nx = 1  # reprolint: disable=REP003\n')
        flagged = lint_paths([target])
        assert [v.rule for v in flagged.violations] == ["REP000"]
        quiet = lint_paths([target], report_unused_waivers=False)
        assert quiet.violations == ()


class TestCrashCapture:
    def test_module_rule_crash_recorded_not_raised(self):
        result = analyze_module(_src("x = 1\n"), [_CrashingRule()])
        assert result.violations == ()
        (crash,) = result.crashes
        assert isinstance(crash, RuleCrash)
        assert crash.rule == "REPXXX"
        assert "rule exploded" in crash.traceback

    def test_function_rule_crash_recorded(self):
        result = analyze_module(
            _src("def f():\n    return 1\n"), [_CrashingFunctionRule()]
        )
        assert any(c.rule == "REPYYY" for c in result.crashes)

    def test_crash_does_not_abort_other_rules(self):
        result = analyze_module(
            _src('def f(probe):\n    """F."""\n'),
            [_CrashingRule(), ProbePurityRule()],
        )
        assert [v.rule for v in result.violations] == ["REP003"]
        assert len(result.crashes) == 1

    def test_report_not_ok_on_crash(self, tmp_path):
        target = tmp_path / "fine.py"
        target.write_text('"""F."""\n\nx = 1\n')
        report = lint_paths([target], [_CrashingRule()])
        assert not report.ok
        assert report.violations == ()


class TestAstCache:
    def test_miss_then_hit(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        cache = AstCache(tmp_path / "cache")
        assert cache.load(target) is None
        tree = ast.parse(target.read_text())
        cache.store(target, tree)
        loaded = cache.load(target)
        assert isinstance(loaded, ast.Module)
        assert ast.dump(loaded) == ast.dump(tree)

    def test_stale_on_content_change(self, tmp_path):
        import os

        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        cache = AstCache(tmp_path / "cache")
        cache.store(target, ast.parse(target.read_text()))
        target.write_text("y = 2\n")
        os.utime(target, ns=(1, 1))  # force a distinct mtime
        assert cache.load(target) is None

    def test_lint_paths_counts_cached_files(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text('"""M."""\n\nx = 1\n')
        cache = AstCache(tmp_path / "cache")
        cold = lint_paths([target], cache=cache)
        assert cold.files_cached == 0
        warm = lint_paths([target], cache=cache)
        assert warm.files_cached == 1
        assert warm.ok == cold.ok

    def test_json_payload_carries_timing_and_cache_counts(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text('"""M."""\n\nx = 1\n')
        payload = load_report_json(render_json(lint_paths([target])))
        assert payload["files_cached"] == 0
        assert payload["elapsed_seconds"] >= 0.0
        assert payload["crashes"] == []


class TestBaselineDiff:
    def _payload(self, *violations):
        return {
            "schema": "reprolint/1",
            "files_checked": 1,
            "rules": [],
            "violations": list(violations),
        }

    def _violation(self, message: str, line: int = 3):
        return {
            "rule": "REP001",
            "path": "src/x.py",
            "line": line,
            "col": 0,
            "message": message,
        }

    def test_new_finding_detected(self):
        base = self._payload()
        head = self._payload(self._violation("float literal 1.5"))
        new = diff_reports(base, head)
        assert len(new) == 1
        assert "float literal" in render_diff(new)

    def test_line_slide_is_not_a_new_finding(self):
        base = self._payload(self._violation("float literal 1.5", line=3))
        head = self._payload(self._violation("float literal 1.5", line=40))
        assert diff_reports(base, head) == []

    def test_fixed_finding_yields_clean_diff(self):
        base = self._payload(self._violation("float literal 1.5"))
        head = self._payload()
        new = diff_reports(base, head)
        assert new == []
        assert render_diff(new) == ""

    def test_old_main_baseline_without_new_keys_loads(self):
        # The CI gate diffs against a baseline built from main, which
        # may predate files_cached/elapsed_seconds/crashes.
        legacy = json.dumps(self._payload())
        payload = load_report_json(legacy)
        assert payload["violations"] == []


class TestCliExitCodes:
    def test_rule_crash_exits_two_with_pointer(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro import cli

        target = tmp_path / "fine.py"
        target.write_text('"""F."""\n\nx = 1\n')
        monkeypatch.setattr(
            "repro.lint.default_rules", lambda: (_CrashingRule(),)
        )
        monkeypatch.setattr(
            cli.tempfile, "gettempdir", lambda: str(tmp_path)
        )
        assert cli.main(["lint", str(target)]) == 2
        err = capsys.readouterr().err
        assert "1 rule crash(es)" in err
        log = tmp_path / "reprolint-crash.log"
        assert log.is_file()
        assert "rule exploded" in log.read_text()

    def test_no_unused_waivers_flag(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "stale.py"
        target.write_text('"""S."""\n\nx = 1  # reprolint: disable=REP003\n')
        assert main(["lint", str(target)]) == 1
        assert "REP000" in capsys.readouterr().out
        assert main(["lint", str(target), "--no-unused-waivers"]) == 0

    def test_no_cache_flag(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "fine.py"
        target.write_text('"""F."""\n\nX = 1\n')
        assert main(["lint", str(target), "--no-cache"]) == 0
        capsys.readouterr()
        assert (
            main(["lint", str(target), "--no-cache", "--format", "json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_cached"] == 0

    def test_cache_hit_on_second_run(self, tmp_path, capsys):
        # conftest pins REPRO_LINT_CACHE inside tmp_path, so the second
        # invocation must serve the AST from the cache.
        from repro.cli import main

        target = tmp_path / "fine.py"
        target.write_text('"""F."""\n\nX = 1\n')
        assert main(["lint", str(target), "--format", "json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["lint", str(target), "--format", "json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["files_cached"] == 0
        assert second["files_cached"] == 1

    def test_list_rules_includes_new_codes(self, capsys):
        from repro.cli import main

        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("REP006", "REP007", "REP008", "REP009"):
            assert code in out


class TestDefaultRules:
    def test_registry_has_eight_distinct_codes(self):
        codes = [r.code for r in default_rules()]
        assert len(codes) == len(set(codes)) == 8
        assert codes == sorted(codes)  # REP001..REP009 in order, no REP005

    def test_every_rule_has_description(self):
        for rule in default_rules():
            assert rule.description
            assert rule.name
