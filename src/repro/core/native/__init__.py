"""``repro.core.native`` — the cffi/C intersection kernel backend.

Implements the kernel contract of ``docs/KERNELS.md`` with one C
entry (``repro_csr_pairs`` in ``kernels.c``): ``csr_pairs`` intersects
pairs of CSR blocks read in place, marking each run's shared A block
once in a byte map over ``[0, bound)`` and probing the B blocks against
it, with a galloping binary search for skewed pairs.  The extension
is compiled on demand at first use and cached (see :mod:`.builder` for
the cache location and rebuild knobs); environments without cffi or a
C compiler degrade to the ``numpy`` backend through the registry's
fallback.

The wrapper here only allocates the outputs and the map, runs the
shared ``check_csr_pairs``, turns the kernel's error returns into a
``ValueError`` and hands zero-copy buffer views to the C function —
inputs may be read-only (e.g. shared-memory frame views from
``repro.net.shm``), which ``ffi.from_buffer`` accepts as const
pointers.
"""

from __future__ import annotations

import numpy as np

from ..intersect import block_total, check_csr_pairs, range_error
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
    """The ``csr_pairs`` kernel over the C lib.

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
        # The C loop reads adj[xadj[id] : xadj[id + 1]] unchecked.
        arrays, bound = check_csr_pairs(a_xadj, a_adj, a_ids, b_xadj, b_adj, b_ids, bound)
        counts = np.empty(len(a_ids), dtype=np.int64)
        hit_out = (ffi.NULL, ffi.NULL, 0)
        if elements:
            # Hits per pair are bounded by the smaller block, so the
            # smaller side's total bounds the hit stream.
            capacity = min(block_total(arrays[0], arrays[2]), block_total(arrays[3], arrays[5]))
            pair_out, elem_out = np.empty((2, capacity), dtype=np.int64)
            hit_out = (_out(pair_out), _out(elem_out), capacity)
        mark = np.zeros(bound, dtype=np.uint8)
        hits = lib.repro_csr_pairs(
            *map(_in, arrays), counts.size, bound, _out(mark, "uint8_t[]"), _out(counts), *hit_out
        )
        if hits == _RANGE_ERROR:
            raise range_error(bound)
        if hits == _CAPACITY_ERROR:
            raise ValueError("CSR blocks must be sorted sets: a block repeats a value")
        if elements:
            return counts, pair_out[:hits], elem_out[:hits]
        return counts

    return csr_pairs
