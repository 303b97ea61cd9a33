"""Shared fixtures for the test suite.

The ``sys.path`` hook makes ``helpers.py`` importable from test modules in
sub-directories (the suite uses plain directories, not packages).

Hang watchdog: the tests under ``runtime/`` and ``serve/`` drive the
multi-process streaming runtime, where the failure mode of a supervision
bug is not a red assertion but a test that blocks forever on a completion
that cannot come.  CI installs ``pytest-timeout`` (see the ``test`` extra)
and its plugin takes precedence; environments without it fall back to a
SIGALRM alarm armed around each of those tests.  Both honour
``@pytest.mark.timeout(N)`` for tests that need a different budget.
"""

from __future__ import annotations

import os
import signal
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from repro import ArchitectureConfig  # noqa: E402


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for each test."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def small_config() -> ArchitectureConfig:
    """A 32x32 image with an 8x8 window — fast enough for cycle engines."""
    return ArchitectureConfig(image_width=32, image_height=32, window_size=8)


#: Test directories whose tests run under the hang watchdog.
WATCHDOG_DIRS = ("runtime", "serve")

#: Wall-clock cap per watched test when no marker overrides it.
DEFAULT_TIMEOUT_SECONDS = 60


@pytest.fixture(autouse=True)
def _hang_watchdog(request):
    """Arm a SIGALRM watchdog unless pytest-timeout is installed."""
    if (
        request.node.path.parent.name not in WATCHDOG_DIRS
        or request.config.pluginmanager.hasplugin("timeout")
    ):
        yield  # unwatched, or pytest-timeout owns the budget
        return
    marker = request.node.get_closest_marker("timeout")
    seconds = DEFAULT_TIMEOUT_SECONDS
    if marker is not None and marker.args:
        seconds = int(marker.args[0])

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded its {seconds}s wall-clock cap "
            "(likely a hang the supervision layer should have prevented)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
