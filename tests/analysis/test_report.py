"""Tests for ``repro report``: every registry entry, in order."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import artifacts
from repro.cli import main

OUT_DIR = Path(__file__).parent.parent.parent / "benchmarks" / "out"

#: Entries that are pure arithmetic (no image is processed).
PURE = ("table1", "table6", "table7", "table8", "table9", "table10", "fig11", "latency")


class TestReport:
    def test_prints_the_goldens_in_registry_order(self, monkeypatch, capsys):
        subset = {n: e for n, e in artifacts.ARTIFACTS.items() if n in PURE}
        assert list(subset) != sorted(subset)  # registry order, not sorted
        monkeypatch.setattr(artifacts, "ARTIFACTS", subset)
        assert main(["report"]) == 0
        expected = "\n".join((OUT_DIR / f"{n}.txt").read_text() for n in subset)
        assert capsys.readouterr().out == expected
