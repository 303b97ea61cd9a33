"""Run the native bit-identity corpus under ASan/UBSan builds.

``repro lint --native`` extends static analysis to the compiled tier:
the C codec is rebuilt with ``-fsanitize=address,undefined`` (a separate
content-addressed cache entry — the sanitizer flags are hashed into the
object digest by :mod:`.loader`) and the bit-identity property corpus is
executed against it, so memory errors and C-level UB get the same
"checked, not hoped" status as the Python invariants.

Loading a sanitized shared object into an *uninstrumented* Python via
ctypes requires the sanitizer runtimes to be initialised first, which is
why the corpus runs in a child process with ``LD_PRELOAD`` pointing at
``libasan``/``libubsan`` (resolved through ``$CC
-print-file-name=...``).  ``halt_on_error=1`` turns any finding into a
hard non-zero exit; ``detect_leaks=0`` because LeakSanitizer reports the
Python interpreter's own arenas, not codec bugs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path

from .loader import SANITIZE_ENV, NativeUnavailable

#: Default property corpus exercised under the sanitized build: the
#: tier's bit-identity tests and the engine's fast-path suite, which runs
#: planned and unplanned native frames at every decomposition level.
DEFAULT_CORPUS = ("tests/packing/test_native.py", "tests/window/test_fast_path.py")

_RUN_TIMEOUT_S = 900


def _compiler() -> str:
    for candidate in (
        os.environ.get("REPRO_NATIVE_CC"),
        os.environ.get("CC"),
        "gcc",
        "cc",
        "clang",
    ):
        if candidate and shutil.which(candidate):
            return candidate
    raise NativeUnavailable(
        "no C compiler found for the sanitizer build (tried CC, gcc, cc, clang)"
    )


def preload_paths(compiler: str | None = None) -> list[str]:
    """Sanitizer runtime libraries the child must ``LD_PRELOAD``.

    Resolved via ``<cc> -print-file-name=<lib>``; a compiler that does
    not ship the runtime echoes the bare name back, which we treat as
    unavailable.
    """
    cc = compiler if compiler is not None else _compiler()
    libs: list[str] = []
    for lib in ("libasan.so", "libubsan.so"):
        try:
            result = subprocess.run(
                [cc, f"-print-file-name={lib}"],
                capture_output=True,
                text=True,
                timeout=30,
                check=False,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            raise NativeUnavailable(
                f"cannot resolve {lib} via {cc}: {exc}"
            ) from exc
        path = result.stdout.strip()
        if result.returncode != 0 or not path or "/" not in path:
            raise NativeUnavailable(
                f"{cc} does not provide {lib} (got {path!r}); "
                "install the compiler's sanitizer runtimes"
            )
        libs.append(path)
    return libs


def sanitized_env(repo_root: Path, compiler: str | None = None) -> dict[str, str]:
    """The child-process environment for a sanitized corpus run."""
    env = dict(os.environ)
    env[SANITIZE_ENV] = "1"
    env["REPRO_NATIVE"] = "1"
    env["LD_PRELOAD"] = ":".join(preload_paths(compiler))
    env["ASAN_OPTIONS"] = "detect_leaks=0:halt_on_error=1:abort_on_error=0"
    env["UBSAN_OPTIONS"] = "halt_on_error=1:print_stacktrace=1"
    src = str(repo_root.joinpath("src"))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
    return env


def run_corpus(
    corpus: str | Sequence[str] = DEFAULT_CORPUS,
    *,
    repo_root: Path | None = None,
    python: str = sys.executable,
) -> tuple[int, str]:
    """Execute ``corpus`` (one pytest path or several) under the sanitized build.

    Returns ``(exit_code, combined_output)``.  Exit 0 means the whole
    property corpus passed with ASan/UBSan armed; anything else carries
    the sanitizer report (or pytest failure) in the output.  Raises
    :class:`NativeUnavailable` when the environment cannot provide the
    instrumented build at all.
    """
    root = repo_root if repo_root is not None else Path.cwd()
    compiler = _compiler()
    env = sanitized_env(root, compiler)
    corpora = (corpus,) if isinstance(corpus, str) else corpus
    paths = [root.joinpath(c) for c in corpora]
    for path in paths:
        if not path.exists():
            raise NativeUnavailable(f"sanitizer corpus not found: {path}")
    cmd = [python, "-m", "pytest", "-q", *map(str, paths)]
    try:
        result = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            timeout=_RUN_TIMEOUT_S,
            cwd=str(root),
            env=env,
            check=False,
        )
    except subprocess.TimeoutExpired as exc:
        return 124, f"sanitized corpus timed out after {_RUN_TIMEOUT_S}s: {exc}"
    output = (result.stdout or "") + (result.stderr or "")
    return result.returncode, output


__all__ = [
    "DEFAULT_CORPUS",
    "preload_paths",
    "run_corpus",
    "sanitized_env",
]
