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

Four backends ship:

``numpy`` (default, always available)
    The offset-keyed global ``searchsorted`` formulation that has been
    the hot path since the frame PR.
``numba``
    Per-pair compiled merge loops (``@njit(cache=True)``), matching the
    paper's cache-friendly merge kernels.  Optional: when the ``numba``
    wheel is not importable the registry logs one warning and falls
    back to ``numpy`` — selection never raises for a *known* backend.
``native``
    The cffi/C extension of :mod:`repro.core.native`: merge loops plus
    a galloping binary-search variant for skewed pairs, compiled on
    demand at first use and cached.  Degrades exactly like ``numba``
    when cffi or a C compiler is missing.
``auto``
    A per-regime selector (:mod:`repro.core.autotune`): a seeded
    one-shot microbenchmark at first dispatch (or an explicit
    ``repro-tc backends tune``) times the concrete backends on
    representative pair-size regimes and dispatches each batch to the
    cached winner for its regime.

Selection (first match wins):

1. :func:`set_backend` / :func:`use_backend` in code,
2. the ``REPRO_KERNEL_BACKEND`` environment variable (which is how the
   ``repro-tc --kernel-backend`` CLI flag and ``ProcessMachine``
   workers propagate the choice),
3. the ``numpy`` default.

``auto`` participates like any other name: it runs only when
explicitly selected through one of these channels, so the existing
explicit-selection order always bypasses the tuner.

Registering a fifth backend is two calls — see ``docs/KERNELS.md`` for
a worked example and the exact kernel contract.
"""

from __future__ import annotations

import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .intersect import (
    _numpy_batch_count,
    _numpy_batch_count_elements,
    _numpy_batch_elements,
)

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
    ``csr_count(a_xadj, a_adj, a_ids, b_xadj, b_adj, b_ids)`` — optional
    — counts pairs of blocks read in place from two CSR arrays; without
    it :mod:`repro.core.kernels` gathers the blocks for ``count``.  See
    the module docstring for the preconditions the dispatcher guarantees.
    """

    name: str
    count: Callable[..., np.ndarray]
    elements: Callable[..., tuple[np.ndarray, np.ndarray]]
    count_elements: Callable[..., tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None
    csr_count: Callable[..., np.ndarray] | None = None


#: name -> loader returning a KernelBackend (may raise ImportError).
_LOADERS: dict[str, Callable[[], KernelBackend]] = {}
#: Successfully built backends, by name.
_BACKENDS: dict[str, KernelBackend] = {}
#: Explicit in-process selection (overrides the environment).
_ACTIVE: str | None = None
#: Backends whose load already failed (warn once each).
_FAILED: dict[str, str] = {}


def register_backend(name: str, loader: Callable[[], KernelBackend]) -> None:
    """Register a backend under ``name``.

    ``loader`` is called lazily on first selection and may raise
    ``ImportError`` — the registry then logs a warning and the
    dispatcher falls back to ``numpy``.
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
    backend = _LOADERS[name]()
    _BACKENDS[name] = backend
    return backend


def _fallback_warned(name: str) -> bool:
    """Whether some process in this tree already warned about ``name``."""
    return name in os.environ.get(ENV_FALLBACK_WARNED, "").split(",")


def _mark_fallback_warned(name: str) -> None:
    """Record the warning in the environment for child processes.

    ``ProcessMachine`` workers inherit the environment under both fork
    and spawn, so once the driver has warned, workers resolving the
    same unavailable backend stay silent instead of re-warning once
    per process (see also the eager driver-side resolve in
    ``ProcessMachine.run``).
    """
    warned = [n for n in os.environ.get(ENV_FALLBACK_WARNED, "").split(",") if n]
    if name not in warned:
        warned.append(name)
        os.environ[ENV_FALLBACK_WARNED] = ",".join(warned)


def resolve_backend(name: str | None = None) -> KernelBackend:
    """Resolve ``name`` (or the current selection) to a loaded backend.

    Unknown names raise ``KeyError``.  Known-but-unloadable backends
    (e.g. ``numba`` without the wheel) log one warning and degrade to
    ``numpy`` — runs never fail because an accelerator is missing.
    """
    if name is None:
        name = _ACTIVE or os.environ.get(ENV_BACKEND, "").strip() or "numpy"
    try:
        return _load(name)
    except KeyError:
        raise
    except ImportError as exc:
        if name not in _FAILED:
            _FAILED[name] = str(exc)
            if not _fallback_warned(name):
                log.warning(
                    "kernel backend %r unavailable (%s); falling back to numpy",
                    name,
                    exc,
                )
                _mark_fallback_warned(name)
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
    return KernelBackend(
        "numpy",
        _numpy_batch_count,
        _numpy_batch_elements,
        _numpy_batch_count_elements,
    )


register_backend("numpy", _load_numpy)


# ---------------------------------------------------------------------------
# numba backend (optional)
# ---------------------------------------------------------------------------


def _load_numba() -> KernelBackend:
    import numba  # noqa: F401  (ImportError -> logged numpy fallback)
    from numba import njit

    @njit(cache=True)
    def _count(a_concat, a_xadj, b_concat, b_xadj, counts):  # pragma: no cover
        for i in range(counts.size):
            ai, ae = a_xadj[i], a_xadj[i + 1]
            bi, be = b_xadj[i], b_xadj[i + 1]
            c = 0
            while ai < ae and bi < be:
                av = a_concat[ai]
                bv = b_concat[bi]
                if av == bv:
                    c += 1
                    ai += 1
                    bi += 1
                elif av < bv:
                    ai += 1
                else:
                    bi += 1
            counts[i] = c

    def count(a_concat, a_xadj, b_concat, b_xadj, vertex_bound):
        counts = np.empty(a_xadj.size - 1, dtype=np.int64)
        _count(a_concat, a_xadj, b_concat, b_xadj, counts)
        return counts

    @njit(cache=True)
    def _count_elements(  # pragma: no cover
        a_concat, a_xadj, b_concat, b_xadj, counts, pair_out, elem_out
    ):
        out = 0
        for i in range(counts.size):
            ai, ae = a_xadj[i], a_xadj[i + 1]
            bi, be = b_xadj[i], b_xadj[i + 1]
            c = 0
            while ai < ae and bi < be:
                av = a_concat[ai]
                bv = b_concat[bi]
                if av == bv:
                    pair_out[out] = i
                    elem_out[out] = av
                    out += 1
                    c += 1
                    ai += 1
                    bi += 1
                elif av < bv:
                    ai += 1
                else:
                    bi += 1
            counts[i] = c
        return out

    def count_elements(a_concat, a_xadj, b_concat, b_xadj, vertex_bound):
        counts = np.empty(a_xadj.size - 1, dtype=np.int64)
        # Hits per pair are bounded by the smaller block, and the
        # dispatcher guarantees A is the smaller side overall, so
        # |a_concat| bounds the total output.
        pair_out = np.empty(a_concat.size, dtype=np.int64)
        elem_out = np.empty(a_concat.size, dtype=np.int64)
        n = _count_elements(
            a_concat, a_xadj, b_concat, b_xadj, counts, pair_out, elem_out
        )
        return counts, pair_out[:n], elem_out[:n]

    def elements(*args):
        # The fused pass costs only the k extra counts over a hits-only one.
        return count_elements(*args)[1:]

    return KernelBackend("numba", count, elements, count_elements)


register_backend("numba", _load_numba)


# ---------------------------------------------------------------------------
# native backend (optional: cffi + a C compiler, built on demand)
# ---------------------------------------------------------------------------


def _load_native() -> KernelBackend:
    # Builds the extension at first use; any failure (no cffi wheel,
    # no compiler) surfaces as ImportError -> logged numpy fallback.
    from .native import load_native_kernels

    return KernelBackend("native", *load_native_kernels())


register_backend("native", _load_native)


# ---------------------------------------------------------------------------
# auto backend (per-regime winner dispatch; always loadable)
# ---------------------------------------------------------------------------


def _load_auto() -> KernelBackend:
    from .autotune import make_auto_backend

    return make_auto_backend()


register_backend("auto", _load_auto)
