"""Tests for confidence-interval helpers."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.ci import (
    ConfidenceInterval,
    mean_confidence_interval,
    t_quantile,
)
from repro.errors import ConfigError


class TestMeanCI:
    def test_mean_correct(self):
        ci = mean_confidence_interval(np.array([1.0, 2.0, 3.0]))
        assert ci.mean == 2.0
        assert ci.n == 3

    def test_single_sample_zero_width(self):
        ci = mean_confidence_interval(np.array([5.0]))
        assert ci.half_width == 0.0

    def test_constant_sample_zero_width(self):
        ci = mean_confidence_interval(np.full(10, 7.0))
        assert ci.half_width == 0.0

    def test_higher_confidence_wider(self):
        data = np.array([1.0, 3.0, 2.0, 4.0, 5.0])
        ci90 = mean_confidence_interval(data, 0.90)
        ci99 = mean_confidence_interval(data, 0.99)
        assert ci99.half_width > ci90.half_width

    def test_more_samples_narrower(self):
        rng = np.random.default_rng(0)
        small = mean_confidence_interval(rng.normal(0, 1, size=5))
        large = mean_confidence_interval(rng.normal(0, 1, size=500))
        assert large.half_width < small.half_width

    def test_t_vs_known_value(self):
        """90 % CI for n=10: t_crit = 1.833 on 9 dof."""
        data = np.arange(10, dtype=float)
        ci = mean_confidence_interval(data, 0.90)
        sem = data.std(ddof=1) / np.sqrt(10)
        assert ci.half_width == pytest.approx(1.8331 * sem, rel=1e-3)

    def test_t_quantile_matches_the_pinned_table(self):
        """df 1-30, 50, 100 x confidence 0.80/0.90/0.95/0.99, pinned from
        ``scipy.stats.t.ppf`` before the dependency was dropped."""
        path = Path(__file__).parent / "data" / "student_t_ppf.json"
        rows = json.loads(path.read_text())["quantiles"]
        assert len(rows) == 128
        for df, confidence, expected in rows:
            got = t_quantile(0.5 + confidence / 2.0, df)
            assert got == pytest.approx(expected, rel=1e-9), (df, confidence)

    def test_analysis_imports_no_scipy(self):
        import subprocess
        import sys

        code = (
            "import sys, repro.analysis; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"

    def test_analysis_reexports_are_lazy(self):
        """``import repro.analysis.ci`` loads ``ci`` alone, and every name
        of ``repro.analysis.__all__`` still resolves from the package."""
        import subprocess
        import sys

        code = (
            "import sys, repro.analysis.ci; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.analysis'))); "
            "import repro.analysis as a; "
            "from repro.analysis import ARTIFACTS; "
            "print(len(ARTIFACTS) > 0, all(hasattr(a, n) for n in a.__all__), "
            "set(a.__all__) <= set(dir(a)), hasattr(a, 'no_such_name'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout.splitlines()
        assert out == ["['repro.analysis', 'repro.analysis.ci']", "True True True False"]

    def test_t_quantile_is_odd_and_centred(self):
        assert t_quantile(0.5, 4) == 0.0
        assert t_quantile(0.05, 9) == -t_quantile(0.95, 9)

    @pytest.mark.parametrize("p, df", [(0.0, 3), (1.0, 3), (0.9, 0)])
    def test_t_quantile_rejects_bad_arguments(self, p, df):
        with pytest.raises(ConfigError):
            t_quantile(p, df)

    def test_bounds(self):
        ci = ConfidenceInterval(mean=10.0, half_width=2.0, confidence=0.9, n=5)
        assert ci.low == 8.0 and ci.high == 12.0

    def test_str_format(self):
        assert "±" in str(mean_confidence_interval(np.array([1.0, 2.0])))

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            mean_confidence_interval(np.array([]))

    def test_bad_confidence_rejected(self):
        with pytest.raises(ConfigError):
            mean_confidence_interval(np.array([1.0, 2.0]), confidence=1.5)
