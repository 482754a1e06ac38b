"""``repro.core.native`` — the cffi/C intersection kernel backend.

Implements the kernel contract of ``docs/KERNELS.md`` with one C
entry (``repro_csr_pairs`` in ``kernels.c``): ``csr_pairs`` intersects
pairs of CSR blocks read in place, marking each run's shared A block
once in a byte map over ``[0, bound)`` and probing the B blocks against
it, with a galloping binary search for skewed pairs.  The batch
``count`` / ``elements`` / fused ``count_elements`` kernels are thin
wrappers over it with ``a_ids = b_ids = 0..k-1``.  The extension is
compiled on demand at first use and cached (see :mod:`.builder` for
the cache location and rebuild knobs); environments without cffi or a
C compiler degrade to the ``numpy`` backend through the registry's
fallback.

Wrappers here only allocate the outputs and the map, bounds-check the
block ids and offsets, turn the kernel's error returns into a
``ValueError`` and hand zero-copy buffer views to the C function —
inputs may be read-only (e.g. shared-memory frame views from
``repro.net.shm``), which ``ffi.from_buffer`` accepts as const
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


#: Error returns of ``repro_csr_pairs`` (``RANGE_ERROR``/``CAPACITY_ERROR``).
_RANGE_ERROR, _CAPACITY_ERROR = -1, -2


def native_available() -> bool:
    """Whether the native backend can be built/loaded here (quietly)."""
    try:
        load_lib()
        return True
    except ImportError:
        return False


def load_native_kernels():
    """``(count, elements, count_elements, csr_pairs)`` callables over the C lib.

    Raises ``ImportError`` when the extension cannot be built — the
    registry turns that into the numpy fallback.
    """
    module = load_lib()
    lib, ffi = module.lib, module.ffi

    def _in(arr: np.ndarray):
        # require_writable=False: received frames are read-only views.
        return ffi.from_buffer("int64_t[]", arr, require_writable=False)

    def _out(arr: np.ndarray, ctype: str = "int64_t[]"):
        return ffi.from_buffer(ctype, arr, require_writable=True)

    def csr_pairs(a_xadj, a_adj, a_ids, b_xadj, b_adj, b_ids, bound, *, elements=False):
        if len(a_ids) != len(b_ids):
            raise ValueError("id arrays must align")
        bound = int(bound)
        if bound < 1 and len(a_ids):
            raise ValueError(f"bound must be at least 1 (got {bound}): no value fits [0, bound)")
        sides, sizes = [], []
        for side in ((a_xadj, a_adj, a_ids), (b_xadj, b_adj, b_ids)):
            xadj, adj, ids = (np.ascontiguousarray(x, dtype=np.int64) for x in side)
            # The C loop reads adj[xadj[id] : xadj[id + 1]] unchecked.
            if ids.size and (ids.min() < 0 or ids.max() >= xadj.size - 1):
                raise IndexError("CSR block id out of range")
            if xadj.size and (xadj.min() < 0 or xadj.max() > adj.size):
                raise IndexError("CSR offsets outside the adjacency array")
            sides += [_in(xadj), _in(adj), _in(ids)]
            if elements:
                sizes.append(int(xadj[ids + 1].sum() - xadj[ids].sum()))
        counts = np.empty(len(a_ids), dtype=np.int64)
        hit_out = (ffi.NULL, ffi.NULL, 0)
        if elements:
            # Hits per pair are bounded by the smaller block, so the
            # smaller side's total bounds the hit stream.
            pair_out = np.empty(min(sizes), dtype=np.int64)
            elem_out = np.empty(min(sizes), dtype=np.int64)
            hit_out = (_out(pair_out), _out(elem_out), pair_out.size)
        mark = np.zeros(bound, dtype=np.uint8)
        hits = lib.repro_csr_pairs(
            *sides, counts.size, bound, _out(mark, "uint8_t[]"), _out(counts), *hit_out
        )
        if hits == _RANGE_ERROR:
            raise ValueError(
                f"CSR block value outside [0, {bound}): pass a bound above "
                "every vertex id in both adjacency arrays"
            )
        if hits == _CAPACITY_ERROR:
            raise ValueError("CSR blocks must be sorted sets: a block repeats a value")
        if elements:
            return counts, pair_out[:hits], elem_out[:hits]
        return counts

    def count(a_concat, a_xadj, b_concat, b_xadj, vertex_bound, *, elements=False):
        # A batch is a pair of CSRs whose pair i is block i on both sides.
        ids = np.arange(a_xadj.size - 1, dtype=np.int64)
        return csr_pairs(a_xadj, a_concat, ids, b_xadj, b_concat, ids, vertex_bound, elements=elements)

    def count_elements(*args):
        return count(*args, elements=True)

    def elements(*args):
        # The fused pass costs only the k extra counts over a hits-only one.
        return count(*args, elements=True)[1:]

    return count, elements, count_elements, csr_pairs
