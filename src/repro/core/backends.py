"""Runtime-selected kernel backends for the intersection hot path.

Every intersection is a pair of CSR blocks: :mod:`repro.core.kernels`
hands batches of pairs to the selected backend's ``csr_pairs`` kernel,
which reads the blocks in place and returns per-pair counts (and, with
``elements=True``, the hits in (pair, ascending element) order).  The
charged merge-model ops (``|A| + |B|`` per pair) are computed by the
caller before any backend runs, so simulated accounting is
*structurally* bit-identical across backends (pinned by
``tests/test_equivalence.py``).  A backend registered without
``csr_pairs`` gets its blocks gathered for the ``batch_intersect_*``
dispatchers of :mod:`repro.core.intersect`, which call its batch
kernels (``count``/``elements``/``count_elements``).

Two backends ship, both built by :meth:`KernelBackend.from_csr_pairs`:

``numpy`` (always available)
    Gathers the side with the smaller block total and runs one global
    ``searchsorted`` into the partner CSR's sorted arc keys.
``native``
    The cffi/C extension of :mod:`repro.core.native`: one in-place
    mark-and-probe entry with a galloping binary-search variant for
    skewed pairs, compiled on demand at first use and cached.
    Optional: when cffi or a C compiler is missing, the load raises
    ``ImportError``.

Selection (first match wins):

1. :func:`set_backend` / :func:`use_backend` in code,
2. the ``REPRO_KERNEL_BACKEND`` environment variable (which is how the
   ``repro-tc --kernel-backend`` CLI flag and ``ProcessMachine``
   workers propagate the choice),
3. the default: ``native`` if it loads, else ``numpy``.

An explicitly selected backend that cannot load logs one warning and
degrades to ``numpy``; the default degrades silently.  Registering a
third backend is two calls — see ``docs/KERNELS.md`` for a worked
example and the exact kernel contract.
"""

from __future__ import annotations

import functools
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .intersect import numpy_csr_pairs

__all__ = [
    "KernelBackend",
    "register_backend",
    "available_backends",
    "backend_status",
    "get_backend",
    "resolve_backend",
    "set_backend",
    "use_backend",
    "ENV_BACKEND",
    "ENV_FALLBACK_WARNED",
]

log = logging.getLogger("repro.kernels")

#: Environment variable naming the preferred backend.
ENV_BACKEND = "REPRO_KERNEL_BACKEND"

#: Comma-separated backend names whose fallback warning was already
#: emitted by this process tree.  Set when the warning fires, inherited
#: through the environment by ``ProcessMachine`` workers (fork *and*
#: spawn), so a driver-side warning is never repeated per worker.
ENV_FALLBACK_WARNED = "REPRO_KERNEL_FALLBACK_WARNED"


@dataclass(frozen=True)
class KernelBackend:
    """A kernel backend: the in-place ``csr_pairs`` kernel plus batch kernels.

    ``csr_pairs(a_xadj, a_adj, a_ids, b_xadj, b_adj, b_ids, bound, *,
    elements=False)`` returns the counts of pairs of blocks read in
    place from two CSRs, or with ``elements=True`` ``(counts, pair_idx,
    elements)``; without it :mod:`repro.core.kernels` gathers the
    blocks for the dispatcher.  The batch kernels take pre-gathered
    ``(a_concat, a_xadj, b_concat, b_xadj, vertex_bound)``: ``count``
    returns per-pair counts, ``elements`` the ``(pair_idx, elements)``
    hit streams and ``count_elements`` — optional; the dispatcher
    derives it from ``elements`` when ``None`` — both.  See
    ``docs/KERNELS.md`` for the contracts.
    """

    name: str
    count: Callable[..., np.ndarray]
    elements: Callable[..., tuple[np.ndarray, np.ndarray]]
    count_elements: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None
    csr_pairs: Callable[..., object] | None = None

    @classmethod
    def from_csr_pairs(cls, name: str, csr_pairs: Callable[..., object]) -> "KernelBackend":
        """A backend whose batch kernels call ``csr_pairs`` with
        ``a_ids = b_ids = 0..k-1`` (pair ``i`` is block ``i`` of both sides)."""

        def count(a_concat, a_xadj, b_concat, b_xadj, bound, elements=False):
            ids = np.arange(a_xadj.size - 1, dtype=np.int64)
            return csr_pairs(a_xadj, a_concat, ids, b_xadj, b_concat, ids, bound, elements=elements)

        # The fused pass costs only the k extra counts over a hits-only one.
        fused = functools.partial(count, elements=True)
        return cls(name, count, lambda *args: fused(*args)[1:], fused, csr_pairs)


#: name -> loader returning a KernelBackend (may raise ImportError).
_LOADERS: dict[str, Callable[[], KernelBackend]] = {}
#: Successfully built backends, by name.
_BACKENDS: dict[str, KernelBackend] = {}
#: Explicit in-process selection (overrides the environment).
_ACTIVE: str | None = None
#: Backends whose loader raised ``ImportError``, with the reason; a
#: failed loader is not retried.
_FAILED: dict[str, str] = {}


def register_backend(name: str, loader: Callable[[], KernelBackend]) -> None:
    """Register a backend under ``name``.

    ``loader`` is called lazily on first selection and may raise
    ``ImportError`` — the dispatcher then falls back to ``numpy``
    (see :func:`resolve_backend`).
    """
    _LOADERS[name] = loader


def available_backends() -> list[str]:
    """All registered backend names (loadable or not)."""
    return sorted(_LOADERS)


def backend_status() -> dict[str, str]:
    """Map of backend name -> ``"ok"`` or the load-failure reason."""
    status = {}
    for name in available_backends():
        try:
            _load(name)
            status[name] = "ok"
        except ImportError as exc:
            status[name] = f"unavailable ({exc})"
    return status


def _load(name: str) -> KernelBackend:
    if name in _BACKENDS:
        return _BACKENDS[name]
    if name not in _LOADERS:
        raise KeyError(
            f"unknown kernel backend {name!r}; registered: {available_backends()}"
        )
    if name in _FAILED:
        raise ImportError(_FAILED[name])
    try:
        backend = _LOADERS[name]()
    except ImportError as exc:
        _FAILED[name] = str(exc)
        raise
    _BACKENDS[name] = backend
    return backend


def _warn_fallback(name: str, exc: ImportError) -> None:
    """Log the fallback for ``name`` once per process tree.

    The warned names are recorded in the environment, which
    ``ProcessMachine`` workers inherit under both fork and spawn, so
    once the parent process has warned, workers resolving the same
    unavailable backend stay silent instead of re-warning once per
    process (see also the eager resolve in ``ProcessMachine.run``
    before any worker starts).
    """
    warned = [n for n in os.environ.get(ENV_FALLBACK_WARNED, "").split(",") if n]
    if name not in warned:
        log.warning("kernel backend %r unavailable (%s); falling back to numpy", name, exc)
        os.environ[ENV_FALLBACK_WARNED] = ",".join(warned + [name])


def resolve_backend(name: str | None = None) -> KernelBackend:
    """Resolve ``name`` (or the current selection) to a loaded backend.

    Unknown names raise ``KeyError``.  A selected backend that cannot
    load (e.g. ``native`` without a C compiler) logs one warning and
    degrades to ``numpy`` — runs never fail because an accelerator is
    missing.  With nothing selected the default is ``native`` if it
    loads, else ``numpy``, without a warning.
    """
    if name is None:
        name = _ACTIVE or os.environ.get(ENV_BACKEND, "").strip()
    if not name:
        try:
            return _load("native")
        except ImportError:
            return _load("numpy")
    try:
        return _load(name)
    except ImportError as exc:
        _warn_fallback(name, exc)
        return _load("numpy")


def get_backend() -> KernelBackend:
    """The backend the dispatcher will use for the next batch call."""
    return resolve_backend(None)


def set_backend(name: str | None) -> None:
    """Select a backend process-wide (``None`` reverts to env/default).

    Validates eagerly: unknown names raise immediately rather than at
    the first intersection.
    """
    global _ACTIVE
    if name is not None:
        resolve_backend(name)
    _ACTIVE = name


@contextmanager
def use_backend(name: str | None):
    """Temporarily select a backend (tests, benchmarks)."""
    global _ACTIVE
    prev = _ACTIVE
    set_backend(name)
    try:
        yield
    finally:
        _ACTIVE = prev


# ---------------------------------------------------------------------------
# numpy backend (always available)
# ---------------------------------------------------------------------------


def _load_numpy() -> KernelBackend:
    return KernelBackend.from_csr_pairs("numpy", numpy_csr_pairs)


register_backend("numpy", _load_numpy)


# ---------------------------------------------------------------------------
# native backend (optional: cffi + a C compiler, built on demand)
# ---------------------------------------------------------------------------


def _load_native() -> KernelBackend:
    # Builds the extension at first use; any failure (no cffi wheel,
    # no compiler) surfaces as ImportError -> numpy fallback.
    from .native import load_native_kernels

    return KernelBackend.from_csr_pairs("native", load_native_kernels())


register_backend("native", _load_native)

