"""The ``repro lint`` subcommand: exit codes, formats, rule subsets."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.lint import load_report_json


@pytest.fixture()
def bad_file(tmp_path):
    # No package chain -> module-scoped rules (REP001/REP004) are inert,
    # but the probe-default rule fires anywhere.
    path = tmp_path / "snippet.py"
    path.write_text('"""Bad."""\n\n\ndef f(probe):\n    """F."""\n')
    return path


@pytest.fixture()
def clean_file(tmp_path):
    path = tmp_path / "fine.py"
    path.write_text('"""Fine."""\n\nX = 1\n')
    return path


class TestLintCommand:
    def test_clean_path_exits_zero(self, capsys, clean_file):
        assert main(["lint", str(clean_file)]) == 0
        assert "clean: 1 file(s) checked" in capsys.readouterr().out

    def test_violations_exit_one(self, capsys, bad_file):
        assert main(["lint", str(bad_file)]) == 1
        out = capsys.readouterr().out
        assert "REP003" in out and "snippet.py" in out

    def test_json_format_is_valid_schema(self, capsys, bad_file):
        assert main(["lint", str(bad_file), "--format", "json"]) == 1
        payload = load_report_json(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        assert payload["violations"][0]["rule"] == "REP003"

    def test_rule_subset_filters(self, capsys, bad_file):
        # Only REP001 requested: the REP003 finding must not fire.
        assert main(["lint", str(bad_file), "--rules", "REP001"]) == 0

    def test_unknown_rule_rejected(self, bad_file):
        with pytest.raises(SystemExit):
            main(["lint", str(bad_file), "--rules", "REP999"])

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("REP001", "REP003", "REP004", "REP006", "REP007"):
            assert code in out

    def test_json_is_parseable_json(self, capsys, clean_file):
        assert main(["lint", str(clean_file), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "reprolint/1"
