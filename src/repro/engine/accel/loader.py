"""Build & load the compiled simulation core (cffi ABI mode).

The container the simulator targets ships no ahead-of-time Python
compiler (no numba, no Cython, no mypyc), but it does ship a system C
compiler and :mod:`cffi`.  The accelerated backend therefore compiles
``core.c`` — a whole-machine C port of the per-cycle engine — into a
shared library with the system compiler and talks to it through cffi's
ABI mode (``ffi.dlopen``), which needs no ``Python.h`` and no build-time
extension machinery.

The declarations between the ``CDEF`` markers of ``core.c`` are the
only declaration of the ABI: they are handed to ``ffi.cdef`` and every
shared constant (config offsets, scalar and array ids, STATS slots, run
statuses, op and policy codes) is read from the loaded ``lib`` by name.

Build products are cached by content digest in
``$REPRO_ACCEL_CACHE`` (default ``~/.cache/repro/accel``); a source or
compiler change produces a new file name.  The same digest is compiled
into the library (``-DREPRO_ABI_DIGEST``) and read back after loading,
so a library built from any other source or flags is refused even when
it sits at the expected path.  ``$REPRO_ACCEL_CC`` overrides the
compiler invocation (the toolchain-failure tests point it at a
nonexistent binary) and ``$REPRO_ACCEL_CFLAGS`` appends extra flags
after the defaults (the sanitizer CI job builds with
``-O1 -fsanitize=address,undefined``).

Every failure mode — missing cffi, missing/broken compiler, dlopen
failure, ABI mismatch — raises :class:`ToolchainError`; the backend
resolution in :mod:`repro.engine.accel` turns that into a logged
fallback to the pure-Python engine.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Tuple

__all__ = ["ToolchainError", "load_core", "reset_loader_cache"]


class ToolchainError(RuntimeError):
    """The compiled backend cannot be built or loaded on this machine."""


_SOURCE_PATH = Path(__file__).with_name("core.c")

#: Environment variable overriding the build cache directory.
CACHE_DIR_ENV = "REPRO_ACCEL_CACHE"

#: Environment variable overriding the compiler command line (shlex-split;
#: ``-O2 -shared -fPIC -o <out> <src>`` is appended).
CC_ENV = "REPRO_ACCEL_CC"

#: Environment variable appending extra compiler flags (shlex-split) after
#: the defaults, so e.g. ``-O1 -fsanitize=address,undefined`` overrides
#: ``-O2`` — the sanitizer CI job uses this.  Folded into the build
#: digest: flipping the flags produces a different cached ``.so``.
CFLAGS_ENV = "REPRO_ACCEL_CFLAGS"

_DEFAULT_CC = "cc"
_CC_FALLBACKS = ("cc", "gcc", "clang")


# ----------------------------------------------------------------------
def _cdef_block(source: str) -> str:
    """The ABI declarations between the CDEF markers of ``core.c``."""
    start = source.index("/* CDEF_START */")
    end = source.index("/* CDEF_END */")
    block = source[start + len("/* CDEF_START */"):end]
    if not block.strip():
        raise ToolchainError("core.c carries an empty CDEF block")
    return block


def build_cache_dir() -> Path:
    """Resolve the build cache directory (env override, else ``~/.cache``)."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "accel"


def _compiler_command() -> Tuple[str, ...]:
    """The compiler argv prefix (``$REPRO_ACCEL_CC`` or the system cc)."""
    override = os.environ.get(CC_ENV)
    if override:
        parts = tuple(shlex.split(override))
        if not parts:
            raise ToolchainError(f"${CC_ENV} is set but empty")
        return parts
    import shutil

    for candidate in _CC_FALLBACKS:
        if shutil.which(candidate):
            return (candidate,)
    return (_DEFAULT_CC,)


def _extra_cflags() -> Tuple[str, ...]:
    """Extra compiler flags from ``$REPRO_ACCEL_CFLAGS`` (may be empty)."""
    return tuple(shlex.split(os.environ.get(CFLAGS_ENV, "")))


def _build_digest(source: str, cc: Tuple[str, ...],
                  extra_flags: Tuple[str, ...], cffi_version: str) -> str:
    """Hex digest of everything that determines the built library."""
    digest = hashlib.sha256()
    digest.update(source.encode())
    digest.update(repr(cc).encode())
    digest.update(repr(extra_flags).encode())
    digest.update(cffi_version.encode())
    return digest.hexdigest()


def _compile(source_path: Path, out_path: Path, cc: Tuple[str, ...],
             extra_flags: Tuple[str, ...], abi_magic: int) -> None:
    """Compile ``core.c`` into ``out_path`` (atomic via tmp + rename)."""
    out_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=out_path.parent, suffix=".so.tmp")
    os.close(fd)
    command = list(cc) + ["-O2", "-shared", "-fPIC",
                          f"-DREPRO_ABI_DIGEST={abi_magic:#x}LL",
                          *extra_flags, "-o", tmp_name, str(source_path)]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=300)
    except (OSError, subprocess.SubprocessError) as exc:
        _unlink_quiet(tmp_name)
        raise ToolchainError(f"cannot run compiler {cc[0]!r}: {exc}") from exc
    if proc.returncode != 0:
        _unlink_quiet(tmp_name)
        tail = (proc.stderr or proc.stdout or "").strip()[-1000:]
        raise ToolchainError(
            f"compiling the accelerated core failed ({cc[0]}, "
            f"exit {proc.returncode}):\n{tail}")
    os.replace(tmp_name, out_path)


def _unlink_quiet(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


#: per-process cache: (ffi, lib) once loaded, or the ToolchainError that
#: prevented loading (so repeated resolution attempts stay cheap).
_LOADED: Optional[Tuple[object, object]] = None
_LOAD_ERROR: Optional[ToolchainError] = None


def reset_loader_cache() -> None:
    """Forget the per-process load result (tests flip ``$REPRO_ACCEL_CC``)."""
    global _LOADED, _LOAD_ERROR
    _LOADED = None
    _LOAD_ERROR = None


def load_core() -> Tuple[object, object]:
    """Return ``(ffi, lib)`` for the compiled core, building it if needed.

    Raises :class:`ToolchainError` on any failure; the result (success or
    failure) is cached per process.
    """
    global _LOADED, _LOAD_ERROR
    if _LOADED is not None:
        return _LOADED
    if _LOAD_ERROR is not None:
        raise _LOAD_ERROR
    try:
        _LOADED = _load_core_uncached()
        return _LOADED
    except ToolchainError as exc:
        _LOAD_ERROR = exc
        raise


def _load_core_uncached() -> Tuple[object, object]:
    try:
        import cffi
    except ImportError as exc:  # pragma: no cover - cffi is baked in here
        raise ToolchainError(f"cffi is not installed: {exc}") from exc

    try:
        source = _SOURCE_PATH.read_text()
    except OSError as exc:
        raise ToolchainError(f"cannot read {_SOURCE_PATH}: {exc}") from exc

    cc = _compiler_command()
    extra_flags = _extra_cflags()
    digest = _build_digest(source, cc, extra_flags,
                           getattr(cffi, "__version__", "?"))
    expected_magic = int(digest[:15], 16)      # fits a signed 64-bit int
    so_path = build_cache_dir() / f"repro_core_{digest[:16]}.so"
    if not so_path.exists():
        _compile(_SOURCE_PATH, so_path, cc, extra_flags, expected_magic)

    ffi = cffi.FFI()
    try:
        ffi.cdef(_cdef_block(source))
        lib = ffi.dlopen(str(so_path))
    except Exception as exc:  # cffi raises several exception families here
        raise ToolchainError(f"cannot load {so_path}: {exc}") from exc

    magic = lib.sim_get(ffi.NULL, lib.SC_ABI_MAGIC)
    if magic != expected_magic:
        raise ToolchainError(
            f"ABI magic mismatch: {so_path} reports {magic:#x}, but this "
            f"source and these flags build {expected_magic:#x}")
    return ffi, lib
