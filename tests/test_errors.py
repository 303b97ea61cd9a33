"""Tests for the exception hierarchy and the public import surface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import (
    BitstreamError,
    CapacityError,
    ConfigError,
    DatasetError,
    ReproError,
    StateError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc", [ConfigError, BitstreamError, CapacityError, StateError, DatasetError]
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_value_error_compat(self):
        """Config/bitstream/dataset errors double as ValueError so generic
        callers can catch them idiomatically."""
        assert issubclass(ConfigError, ValueError)
        assert issubclass(BitstreamError, ValueError)
        assert issubclass(DatasetError, ValueError)

    def test_runtime_error_compat(self):
        assert issubclass(CapacityError, RuntimeError)
        assert issubclass(StateError, RuntimeError)

    def test_catch_all(self):
        with pytest.raises(ReproError):
            raise CapacityError("boom")


class TestPublicSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_import_loads_only_what_it_uses(self):
        """Top-level names resolve on first access: importing the package,
        or an in-process engine module, loads no streaming runtime."""
        code = (
            "import sys, repro, repro.core.window.compressed\n"
            "heavy = ('repro.runtime', 'repro.serve', 'multiprocessing', 'socket')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
            "repro.StreamingProcessor\n"
            "print('repro.runtime' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        ).stdout.split()
        assert out == ["[]", "True"]

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'FrameStreamProcessor'"):
            repro.FrameStreamProcessor

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_subpackage_exports_resolve(self):
        import repro.analysis as analysis
        import repro.core.window as window
        import repro.hardware as hardware
        import repro.imaging as imaging
        import repro.kernels as kernels

        for module in (analysis, window, hardware, imaging, kernels):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)
