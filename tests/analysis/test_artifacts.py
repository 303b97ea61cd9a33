"""Tests for the artifact registry."""

from __future__ import annotations

import pytest

from repro.analysis.artifacts import (
    ARTIFACTS,
    FLAGS,
    Artifact,
    render_artifact,
)
from repro.errors import ConfigError


class TestRegistry:
    def test_every_geometry_uses_the_shared_flags(self):
        for name, entry in ARTIFACTS.items():
            assert set(entry.geometry) <= set(FLAGS), name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown artifact 'fig99'"):
            render_artifact("fig99")

    def test_flag_outside_the_geometry_rejected(self):
        with pytest.raises(ConfigError, match="takes no --images"):
            ARTIFACTS["fig3"].run(n_images=4)
        with pytest.raises(ConfigError, match="it takes no flags"):
            ARTIFACTS["table1"].run(n_images=2)

    def test_none_means_not_given(self):
        calls = []
        entry = Artifact(
            lambda **kw: calls.append(kw), {"resolution": 64, "window": 8}
        )
        entry.run(resolution=None, window=4, n_images=None)
        assert calls == [{"resolution": 64, "window": 4}]

    def test_paper_cells_follow_a_bram_table_of_a_paper_width(self):
        text = render_artifact("table3", resolution=512, n_images=1, processes=1)
        table, reference = text.split("\n\npaper reference")
        assert "512x512" in table
        assert "window   8: (2, 2, 2, 1) | 2" in reference  # Table II's row
        other = render_artifact("table2", resolution=256, n_images=1, processes=1)
        assert "256x256" in other and "paper reference" not in other
