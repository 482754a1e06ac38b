"""``repro.core.native`` — the cffi/C intersection kernel backend.

Implements the ``count`` / ``elements`` / fused ``count_elements``
kernel contract of ``docs/KERNELS.md`` in C (``kernels.c``): per-pair
merge loops plus a galloping binary-search variant for skewed
``|A_i| << |B_i|`` pairs.  ``csr_count`` runs the same per-pair loop
on blocks read in place from two CSR arrays.  The extension is
compiled on demand at first use and cached (see :mod:`.builder` for
the cache location and rebuild knobs); environments without cffi or a
C compiler degrade to the ``numpy`` backend through the registry's
fallback.

Wrappers here only allocate output arrays (and bounds-check the block
ids of ``csr_count``) and hand zero-copy buffer views to the C
functions — inputs may be read-only (e.g. shared-memory frame views
from ``repro.net.shm``), which ``ffi.from_buffer`` accepts as const
pointers.
"""

from __future__ import annotations

import numpy as np

from .builder import build_dir, build_key, load_lib

__all__ = [
    "load_native_kernels",
    "native_available",
    "build_dir",
    "build_key",
]


def native_available() -> bool:
    """Whether the native backend can be built/loaded here (quietly)."""
    try:
        load_lib()
        return True
    except ImportError:
        return False


def load_native_kernels():
    """``(count, elements, count_elements, csr_count)`` callables over the C lib.

    Raises ``ImportError`` when the extension cannot be built — the
    registry turns that into the numpy fallback.
    """
    module = load_lib()
    lib, ffi = module.lib, module.ffi

    def _in(arr: np.ndarray):
        # require_writable=False: received frames are read-only views.
        return ffi.from_buffer("int64_t[]", arr, require_writable=False)

    def _out(arr: np.ndarray):
        return ffi.from_buffer("int64_t[]", arr, require_writable=True)

    def count_elements(a_concat, a_xadj, b_concat, b_xadj, vertex_bound):
        k = a_xadj.size - 1
        counts = np.empty(k, dtype=np.int64)
        # Hits per pair are bounded by the smaller block, so the A
        # concatenation (the smaller side overall) bounds the total.
        pair_out = np.empty(a_concat.size, dtype=np.int64)
        elem_out = np.empty(a_concat.size, dtype=np.int64)
        n = lib.repro_batch_count_elements(
            _in(a_concat), _in(a_xadj), _in(b_concat), _in(b_xadj),
            k, _out(counts), _out(pair_out), _out(elem_out),
        )
        return counts, pair_out[:n], elem_out[:n]

    def elements(*args):
        # The fused pass costs only the k extra counts over a hits-only one.
        return count_elements(*args)[1:]

    def csr_count(a_xadj, a_adj, a_ids, b_xadj, b_adj, b_ids):
        if len(a_ids) != len(b_ids):
            raise ValueError("id arrays must align")
        sides = []
        for side in ((a_xadj, a_adj, a_ids), (b_xadj, b_adj, b_ids)):
            xadj, adj, ids = (np.ascontiguousarray(x, dtype=np.int64) for x in side)
            # The C loop reads adj[xadj[id] : xadj[id + 1]] unchecked.
            if ids.size and (ids.min() < 0 or ids.max() >= xadj.size - 1):
                raise IndexError("CSR block id out of range")
            if xadj.size and (xadj.min() < 0 or xadj.max() > adj.size):
                raise IndexError("CSR offsets outside the adjacency array")
            sides += [_in(xadj), _in(adj), _in(ids)]
        counts = np.empty(len(a_ids), dtype=np.int64)
        lib.repro_csr_count(*sides, counts.size, _out(counts))
        return counts

    def count(a_concat, a_xadj, b_concat, b_xadj, vertex_bound):
        # A batch is a pair of CSRs whose pair i is block i on both sides.
        ids = np.arange(a_xadj.size - 1, dtype=np.int64)
        return csr_count(a_xadj, a_concat, ids, b_xadj, b_concat, ids)

    return count, elements, count_elements, csr_count
