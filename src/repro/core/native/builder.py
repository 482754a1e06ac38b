"""Build-on-demand compilation of the native intersection kernels.

``kernels.c`` (shipped next to this module) is compiled into a cffi
API-mode extension the first time the ``native`` backend is selected.
The artifact is cached so every later process — including
``ProcessMachine`` workers — just ``dlopen``s it:

* **Location**: ``<package>/core/native/_build/`` when the package
  directory is writable (the usual dev-checkout case), else
  ``$XDG_CACHE_HOME/repro/native`` (``~/.cache/repro/native``).
  ``REPRO_NATIVE_BUILD_DIR`` overrides both.
* **Key**: the module name embeds a hash of the C source, the cdef,
  the cffi version, and the interpreter/platform tag, so editing the
  kernel or switching interpreters rebuilds instead of loading a stale
  artifact.  ``REPRO_NATIVE_REBUILD=1`` forces a rebuild regardless.
* **Failure**: *every* failure mode — no cffi wheel, no C compiler, a
  broken toolchain — is re-raised as ``ImportError``, which is exactly
  what :func:`repro.core.backends.resolve_backend` turns into the
  numpy fallback (warn-once when ``native`` was selected explicitly,
  silent when it was only the default).  Selecting ``native`` never
  crashes a run.

Concurrent builders (e.g. spawn-started workers racing the driver) are
safe: each compiles in a private temp dir and installs the artifact
with an atomic ``os.replace``.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import sys
import sysconfig
import tempfile
from pathlib import Path

__all__ = ["build_key", "build_dir", "load_lib", "CDEF"]

#: Declarations mirrored from kernels.c (the cffi cdef).
CDEF = """
int64_t repro_csr_pairs(const int64_t *a_xadj, const int64_t *a_adj, const int64_t *a_ids,
                        const int64_t *b_xadj, const int64_t *b_adj, const int64_t *b_ids,
                        int64_t k, int64_t bound, uint8_t *mark,
                        int64_t *counts, int64_t *pair_out, int64_t *elem_out,
                        int64_t cap);
"""

ENV_BUILD_DIR = "REPRO_NATIVE_BUILD_DIR"
ENV_REBUILD = "REPRO_NATIVE_REBUILD"

_SOURCE_PATH = Path(__file__).with_name("kernels.c")

#: The loaded cffi module, memoized per process.
_LIB = None


def _source() -> str:
    return _SOURCE_PATH.read_text()


def build_key() -> str:
    """Hash naming the cached artifact (source × cffi × interpreter)."""
    try:
        import cffi

        cffi_version = cffi.__version__
    except ImportError:
        cffi_version = "none"
    tag = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    blob = "\x00".join([_source(), CDEF, cffi_version, sys.version.split()[0], tag])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_dir() -> Path:
    """Directory holding the compiled artifacts."""
    override = os.environ.get(ENV_BUILD_DIR, "").strip()
    if override:
        return Path(override)
    pkg_dir = Path(__file__).parent / "_build"
    try:
        pkg_dir.mkdir(exist_ok=True)
        probe = pkg_dir / f".writable-{os.getpid()}"
        probe.touch()
        probe.unlink()
        return pkg_dir
    except OSError:
        xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
        base = Path(xdg) if xdg else Path.home() / ".cache"
        return base / "repro" / "native"


def _module_name() -> str:
    return f"_repro_native_{build_key()}"


def _artifact_path(directory: Path) -> Path:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return directory / f"{_module_name()}{suffix}"


def _compile(directory: Path) -> Path:
    """Compile kernels.c into ``directory``; returns the artifact path."""
    from cffi import FFI

    ffibuilder = FFI()
    ffibuilder.cdef(CDEF)
    ffibuilder.set_source(
        _module_name(),
        _source(),
        extra_compile_args=["-O3"],
    )
    directory.mkdir(parents=True, exist_ok=True)
    # Private temp dir + atomic replace: concurrent builders (driver
    # racing spawn-started workers) never see a half-written artifact.
    tmp = Path(tempfile.mkdtemp(prefix="build-", dir=directory))
    try:
        built = Path(ffibuilder.compile(tmpdir=str(tmp), verbose=False))
        target = _artifact_path(directory)
        os.replace(built, target)
        return target
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _import_artifact(path: Path):
    name = _module_name()
    if name in sys.modules:
        return sys.modules[name]
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    spec = importlib.util.spec_from_file_location(name, str(path), loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    sys.modules[name] = module
    return module


def load_lib():
    """The compiled kernel module (``.lib`` / ``.ffi``), building if needed.

    Raises
    ------
    ImportError
        When cffi is missing or compilation fails for any reason —
        the signal the backend registry's graceful fallback expects.
    """
    global _LIB
    if _LIB is not None:
        return _LIB
    import cffi  # noqa: F401  -- missing wheel -> ImportError -> numpy fallback

    rebuild = os.environ.get(ENV_REBUILD, "").strip() not in ("", "0")
    directory = build_dir()
    artifact = _artifact_path(directory)
    try:
        if rebuild or not artifact.exists():
            artifact = _compile(directory)
        _LIB = _import_artifact(artifact)
    except ImportError:
        raise
    except Exception as exc:  # no compiler, broken toolchain, bad cache...
        raise ImportError(f"native kernel build failed: {exc}") from exc
    return _LIB
