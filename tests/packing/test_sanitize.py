"""Sanitizer-build wiring: flag selection, cache keying, child env.

The actual ASan/UBSan corpus execution lives in the CI ``native-sanitize``
lane (``repro lint --native``); these tests pin the plumbing that makes
that run correct — sanitized builds must get their own cache entry and
the child environment must arm halt-on-error — without paying for a
compile here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.packing.native import loader
from repro.core.packing.native.loader import SANITIZE_ENV
from repro.core.packing.native.sanitize import (
    DEFAULT_CORPUS,
    run_corpus,
    sanitized_env,
)
from repro.errors import ReproError


class TestFlagSets:
    def test_plain_build_has_no_sanitizer_flags(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        for flag_set in loader._flag_sets():
            assert not any("sanitize" in f for f in flag_set)

    def test_sanitize_env_appends_instrumentation(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        for flag_set in loader._flag_sets():
            assert "-fsanitize=address,undefined" in flag_set
            assert "-fno-sanitize-recover=all" in flag_set

    def test_sanitized_build_gets_distinct_cache_entry(self, monkeypatch):
        source = "int x;"
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        plain = loader._object_path(source, "cc")
        monkeypatch.setenv(SANITIZE_ENV, "1")
        instrumented = loader._object_path(source, "cc")
        assert plain != instrumented


class TestSanitizedEnv:
    @pytest.fixture()
    def env(self, tmp_path):
        try:
            return sanitized_env(tmp_path)
        except ReproError as exc:  # no sanitizer runtimes on this host
            pytest.skip(f"sanitizer runtimes unavailable: {exc}")

    def test_arms_halt_on_error(self, env):
        assert env[SANITIZE_ENV] == "1"
        assert "halt_on_error=1" in env["ASAN_OPTIONS"]
        assert "halt_on_error=1" in env["UBSAN_OPTIONS"]
        # LeakSanitizer off: it reports interpreter arenas, not codec bugs.
        assert "detect_leaks=0" in env["ASAN_OPTIONS"]

    def test_preloads_runtime_libraries(self, env):
        preload = env["LD_PRELOAD"].split(":")
        assert any("libasan" in p for p in preload)
        assert any("libubsan" in p for p in preload)

    def test_prepends_repo_src_to_pythonpath(self, tmp_path):
        try:
            env = sanitized_env(tmp_path)
        except ReproError as exc:
            pytest.skip(f"sanitizer runtimes unavailable: {exc}")
        assert env["PYTHONPATH"].split(":")[0] == str(tmp_path / "src")


class TestRunCorpus:
    def test_missing_corpus_raises_not_runs(self, tmp_path):
        with pytest.raises(ReproError, match="corpus not found"):
            run_corpus("tests/does_not_exist.py", repo_root=tmp_path)

    def test_default_corpus_exists_in_repo(self):
        assert "tests/window/test_fast_path.py" in DEFAULT_CORPUS
        assert all(Path(path).exists() for path in DEFAULT_CORPUS)
