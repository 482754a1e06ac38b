"""Runtime-selected kernel backends for the batch intersection hot path.

``batch_intersect_count`` / ``batch_intersect_elements`` in
:mod:`repro.core.intersect` are the compute hot path of every algorithm
variant.  This module makes their *execution strategy* pluggable while
keeping their *accounting* fixed:

* The dispatcher in ``intersect.py`` owns everything observable by the
  simulation — input validation, dtype coercion, the empty fast path,
  the small-into-large side swap, and the charged merge-model ops
  (``|A| + |B|`` per pair).  A backend only supplies the raw kernels
  that produce counts/elements, so simulated accounting is
  *structurally* bit-identical across backends (pinned by
  ``tests/test_equivalence.py``).
* A backend receives pre-conditioned inputs: contiguous ``int64``
  arrays, ``k >= 1`` pairs, both concatenations nonempty, and the A
  side no larger than the B side.  ``count`` returns an ``int64``
  array of ``k`` per-pair counts; ``elements`` returns
  ``(pair_idx, elements)`` hit streams in (pair, ascending element)
  order — the canonical order both shipped backends emit naturally.

Two backends ship:

``numpy`` (always available)
    The offset-keyed global ``searchsorted`` formulation that has been
    the hot path since the frame PR.
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

import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .intersect import _numpy_batch_count, _numpy_batch_count_elements

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
    """A raw kernel pair behind the ``batch_intersect_*`` dispatcher.

    ``count(a_concat, a_xadj, b_concat, b_xadj, vertex_bound)`` returns
    per-pair intersection counts; ``elements(...)`` returns the
    ``(pair_idx, elements)`` hit streams.  ``count_elements(...)`` —
    optional — returns ``(counts, pair_idx, elements)`` from one fused
    traversal; when a backend leaves it ``None`` the dispatcher derives
    the counts from the hit stream instead (same outputs either way).
    ``csr_pairs(a_xadj, a_adj, a_ids, b_xadj, b_adj, b_ids, bound, *,
    elements=False)`` — optional — intersects pairs of blocks read in
    place from two CSR arrays and returns the counts, or with
    ``elements=True`` ``(counts, pair_idx, elements)``; without it
    :mod:`repro.core.kernels` gathers the blocks for the dispatcher.
    See the module docstring for the preconditions the dispatcher
    guarantees.
    """

    name: str
    count: Callable[..., np.ndarray]
    elements: Callable[..., tuple[np.ndarray, np.ndarray]]
    count_elements: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None
    csr_pairs: Callable[..., object] | None = None


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
    def elements(*args):
        # One keyed search feeds both outputs; the counts are one bincount.
        return _numpy_batch_count_elements(*args)[1:]

    return KernelBackend("numpy", _numpy_batch_count, elements, _numpy_batch_count_elements)


register_backend("numpy", _load_numpy)


# ---------------------------------------------------------------------------
# native backend (optional: cffi + a C compiler, built on demand)
# ---------------------------------------------------------------------------


def _load_native() -> KernelBackend:
    # Builds the extension at first use; any failure (no cffi wheel,
    # no compiler) surfaces as ImportError -> numpy fallback.
    from .native import load_native_kernels

    return KernelBackend("native", *load_native_kernels())


register_backend("native", _load_native)

