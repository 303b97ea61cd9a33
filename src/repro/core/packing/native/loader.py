"""On-demand compilation and ctypes binding of the native codec kernels.

The native tier ships as plain C source (``_codec.c``) with no Python
dependency.  On first use this module compiles it with the system C
compiler into a content-addressed shared object under a cache directory
and binds the exported functions through :mod:`ctypes`.  That keeps the
tier working from a bare source checkout (``PYTHONPATH=src``) with no
build system, wheels or new runtime dependencies — and makes failure a
first-class state: any problem (no compiler, sandboxed filesystem,
disabled by ``REPRO_NATIVE=0``) raises :class:`NativeUnavailable`, which
the codec-tier registry turns into a clean NumPy fallback.

Environment knobs:

- ``REPRO_NATIVE=0`` — kill switch; the native tier reports unavailable
  without touching the compiler (used by tests and NumPy-only deploys).
- ``REPRO_NATIVE_CC`` / ``CC`` — compiler override (default: first of
  ``cc``, ``gcc``, ``clang`` on PATH).
- ``REPRO_NATIVE_CACHE`` — cache directory for compiled objects
  (default: ``~/.cache/repro-native``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

from ....errors import ReproError

_SOURCE = Path(__file__).with_name("_codec.c")

#: Must match REPRO_NATIVE_ABI in ``_codec.c``.  5: ``repro_band_sizes``
#: and ``repro_recirculate`` read (and write) 1- or 2-byte pixels, the
#: width their new ``pixel_bytes`` argument gives.
_ABI_VERSION = 5

_COMPILE_TIMEOUT_S = 120

#: Flag sets tried in order; the first one that compiles wins.  The
#: host-tuned set vectorises the uint8 reduction loops (the pair-reduce
#: kernel is ~10x faster with AVX2 than with baseline SSE2); the plain
#: set is the portable fallback for compilers that reject -march=native.
_FLAG_SETS: tuple[tuple[str, ...], ...] = (
    ("-O3", "-march=native", "-fPIC", "-shared", "-std=c99"),
    ("-O3", "-fPIC", "-shared", "-std=c99"),
)

#: Extra flags appended to every set when ``REPRO_NATIVE_SANITIZE`` asks
#: for an instrumented build (``repro lint --native``).  -O1 keeps UBSan
#: line info honest; no-recover turns any finding into a hard abort so
#: the test run cannot paper over it.
_SANITIZE_FLAGS: tuple[str, ...] = (
    "-g",
    "-O1",
    "-fno-omit-frame-pointer",
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=all",
)

#: Environment knob selecting the sanitizer build (value ``"1"``).
SANITIZE_ENV = "REPRO_NATIVE_SANITIZE"


def _sanitize_requested() -> bool:
    return os.environ.get(SANITIZE_ENV, "0") == "1"


def _flag_sets() -> tuple[tuple[str, ...], ...]:
    """The active flag sets; sanitizer flags change the cache digest too.

    The content-addressed object cache hashes these flags, so sanitized
    and plain builds coexist under different digests — flipping
    ``REPRO_NATIVE_SANITIZE`` never serves a stale object.
    """
    if not _sanitize_requested():
        return _FLAG_SETS
    return tuple((*fs, *_SANITIZE_FLAGS) for fs in _FLAG_SETS)

_i64 = ctypes.c_int64
_p_i64 = ctypes.POINTER(ctypes.c_int64)
_p_i32 = ctypes.POINTER(ctypes.c_int32)
_p_u8 = ctypes.POINTER(ctypes.c_uint8)
_p_px = ctypes.c_void_p  # 1- or 2-byte pixels

#: name -> (restype, argtypes) of every bound kernel.
_SIGNATURES: dict[str, tuple[object, tuple[object, ...]]] = {
    "repro_abi_version": (_i64, ()),
    "repro_pair_transform": (None, (_p_i64, _i64, _i64, _i64, _i64, _p_i32)),
    "repro_threshold_i32": (None, (_p_i32, _i64, _i64, _i64, _i64, _i64)),
    "repro_recirculate": (
        None,
        (_p_px, *(_i64,) * 13, _p_px, _p_px, _p_i32, _p_u8, _p_i32, _p_i64,
         _p_u8, *(_p_i64,) * 4),
    ),
    "repro_band_sizes": (
        None,
        (_p_px, *(_i64,) * 10, _p_i32, _p_u8, _p_i32, _p_i64, _p_u8, *(_p_i64,) * 4),
    ),
    "repro_pair_reduce": (
        None,
        (_p_i32, _i64, _i64, _i64, _p_u8, _p_u8, _p_u8, _p_i32, _p_u8, _p_i64, _p_i64),
    ),
    "repro_stack_nbits_i32": (None, (_p_i32, _i64, _i64, _i64, _p_i64)),
    "repro_bit_widths_i64": (None, (_p_i64, _i64, _p_i64)),
    "repro_occupancy_peaks": (
        None,
        (_p_i64, _i64, _i64, _i64, _i64, _p_i64, _p_i64),
    ),
    "repro_pack_values": (_i64, (_p_i64, _p_i64, _i64, _p_u8)),
    "repro_unpack_values": (None, (_p_u8, _p_i64, _i64, _i64, _p_i64)),
    "repro_pack_column": (
        _i64,
        (_p_i64, _i64, _i64, _i64, _p_i64, _p_u8, _p_u8),
    ),
}

_lib: ctypes.CDLL | None = None
_load_error: "NativeUnavailable | None" = None


class NativeUnavailable(ReproError, RuntimeError):
    """The native codec tier cannot be used in this environment."""


def _enabled() -> bool:
    return os.environ.get("REPRO_NATIVE", "1") != "0"


def _compiler() -> str:
    for candidate in (
        os.environ.get("REPRO_NATIVE_CC"),
        os.environ.get("CC"),
        "cc",
        "gcc",
        "clang",
    ):
        if candidate and shutil.which(candidate):
            return candidate
    raise NativeUnavailable("no C compiler found (tried CC, cc, gcc, clang)")


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    return Path.home().joinpath(".cache", "repro-native")


def _object_path(source_text: str, compiler: str) -> Path:
    flags = ";".join(" ".join(fs) for fs in _flag_sets())
    digest = hashlib.sha256(
        f"abi={_ABI_VERSION};cc={compiler};flags={flags};".encode()
        + source_text.encode()
    ).hexdigest()[:20]
    return _cache_dir().joinpath(f"_codec-{digest}.so")


def _compile(source_text: str, compiler: str, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        suffix=".so", prefix="_codec-", dir=str(target.parent)
    )
    os.close(fd)
    try:
        errors = []
        for flag_set in _flag_sets():
            cmd = [compiler, *flag_set, "-o", tmp_name, str(_SOURCE)]
            result = subprocess.run(
                cmd,
                capture_output=True,
                text=True,
                timeout=_COMPILE_TIMEOUT_S,
                check=False,
            )
            if result.returncode == 0:
                os.replace(tmp_name, target)  # atomic vs concurrent builders
                return
            errors.append(
                f"({' '.join(cmd)}): {result.stderr.strip()[:500]}"
            )
        raise NativeUnavailable(
            "native codec compilation failed " + "; ".join(errors)
        )
    except (OSError, subprocess.SubprocessError) as exc:
        raise NativeUnavailable(f"native codec compilation failed: {exc}") from exc
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)


def _bind(path: Path) -> ctypes.CDLL:
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise NativeUnavailable(f"cannot load native codec {path}: {exc}") from exc
    for name, (restype, argtypes) in _SIGNATURES.items():
        try:
            fn = getattr(lib, name)
        except AttributeError as exc:
            raise NativeUnavailable(
                f"native codec {path} lacks symbol {name}"
            ) from exc
        fn.restype = restype
        fn.argtypes = list(argtypes)
    abi = int(lib.repro_abi_version())
    if abi != _ABI_VERSION:
        raise NativeUnavailable(
            f"native codec ABI mismatch: built {abi}, expected {_ABI_VERSION}"
        )
    return lib


def load() -> ctypes.CDLL:
    """The bound native library, compiling it on first use.

    Raises :class:`NativeUnavailable` (and caches the failure for the
    process lifetime) when the tier cannot be provided.
    """
    global _lib, _load_error
    if _lib is not None:
        return _lib
    if _load_error is not None:
        raise _load_error
    try:
        if not _enabled():
            raise NativeUnavailable("native codec disabled by REPRO_NATIVE=0")
        if not _SOURCE.exists():
            raise NativeUnavailable(f"native codec source missing: {_SOURCE}")
        source_text = _SOURCE.read_text()
        compiler = _compiler()
        target = _object_path(source_text, compiler)
        if not target.exists():
            _compile(source_text, compiler, target)
        _lib = _bind(target)
    except NativeUnavailable as exc:
        _load_error = exc
        raise
    return _lib


def is_available() -> bool:
    """True when the native tier loads (compiling if necessary)."""
    try:
        load()
    except NativeUnavailable:
        return False
    return True


def reset() -> None:
    """Forget the cached library/failure (tests re-probe the environment)."""
    global _lib, _load_error
    _lib = None
    _load_error = None
