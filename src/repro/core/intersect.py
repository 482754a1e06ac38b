"""Neighborhood set-intersection kernels with work accounting.

The inner loop of every EDGEITERATOR variant is
``|N_v^+ ∩ N_u^+|`` over sorted arrays.  The paper implements the
merge-based intersection of COMPACT-FORWARD and charges each
intersection ``|a| + |b|`` comparisons; GPU codes use binary-search
(``searchsorted``) variants instead (Section III-C).

Per the HPC-Python guides, hot paths must not loop per edge in Python.
The numpy kernels here vectorize *across pairs*: all needle arrays are
concatenated, offset-keyed so each pair's haystack occupies a disjoint
key range, and one global :func:`numpy.searchsorted` resolves every
membership test at once.  The ``native`` backend marks and probes
per pair in C instead.  Work is *accounted* in the merge model
(``|a| + |b|`` per pair), independent of how the kernel executes it, so
the simulated cost model matches the paper's analysis rather than
Python's constant factors.

``batch_intersect_count`` / ``batch_intersect_elements`` /
``batch_intersect_count_elements`` are *dispatchers*: they own
validation, the ops accounting, the empty fast path and the
small-into-large side swap, then hand the pre-conditioned arrays to
the kernel backend selected via :mod:`repro.core.backends` (the
cffi/C ``native`` kernel when it loads, else ``numpy``;
``REPRO_KERNEL_BACKEND`` / ``repro-tc --kernel-backend ...`` picks one
explicitly).  The helpers of :mod:`repro.core.kernels` bypass
:func:`gather_blocks` and this dispatcher when the backend has an
in-place CSR kernel (``native``), charging the same ops.  The
fused variant returns per-pair counts *and* the hit streams from one
backend traversal — the shape the enumeration/LCC paths consume.
Because everything the cost model sees is computed *before* the
backend runs, simulated accounting is identical for every backend by
construction — see ``docs/KERNELS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "intersect_count",
    "intersect_sorted",
    "merge_cost",
    "BatchIntersections",
    "batch_intersect_count",
    "batch_intersect_elements",
    "batch_intersect_count_elements",
    "concat_xadj",
    "gather_blocks",
]


def gather_blocks(
    xadj: np.ndarray, adjncy: np.ndarray, block_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather CSR blocks ``adjncy[xadj[i]:xadj[i+1]]`` for many ``i`` at once.

    Returns ``(concat, out_xadj)`` in the batch layout the intersection
    kernels expect — the vectorized equivalent of looping
    ``[adjncy[xadj[i]:xadj[i+1]] for i in block_ids]``.
    """
    xadj = np.asarray(xadj, dtype=np.int64)
    adjncy = np.asarray(adjncy, dtype=np.int64)
    block_ids = np.asarray(block_ids, dtype=np.int64)
    sizes = xadj[block_ids + 1] - xadj[block_ids]
    out_xadj = concat_xadj(sizes)
    total = int(out_xadj[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64), out_xadj
    # Global positions: start of each block repeated, plus the offset
    # of each element within its block.
    starts = np.repeat(xadj[block_ids], sizes)
    within = np.arange(total, dtype=np.int64) - np.repeat(out_xadj[:-1], sizes)
    return adjncy[starts + within], out_xadj


def merge_cost(size_a: int, size_b: int) -> int:
    """Comparison count charged for one merge-based intersection."""
    return int(size_a) + int(size_b)


def intersect_count(a: np.ndarray, b: np.ndarray) -> int:
    """``|a ∩ b|`` for two sorted unique arrays (scalar kernel)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.size == 0 or b.size == 0:
        return 0
    if a.size > b.size:  # search the smaller array in the bigger one
        a, b = b, a
    idx = np.searchsorted(b, a)
    idx_clipped = np.minimum(idx, b.size - 1)
    return int(np.count_nonzero((idx < b.size) & (b[idx_clipped] == a)))


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a ∩ b`` as a sorted array (used by enumeration / LCC paths)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.size == 0 or b.size == 0:
        return np.empty(0, dtype=np.int64)
    if a.size > b.size:
        a, b = b, a
    idx = np.searchsorted(b, a)
    idx_clipped = np.minimum(idx, b.size - 1)
    hit = (idx < b.size) & (b[idx_clipped] == a)
    return a[hit]


def concat_xadj(sizes: np.ndarray) -> np.ndarray:
    """Offsets array for a batch of variable-length blocks."""
    sizes = np.asarray(sizes, dtype=np.int64)
    xadj = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=xadj[1:])
    return xadj


@dataclass(frozen=True)
class BatchIntersections:
    """Result of a batched intersection.

    Attributes
    ----------
    counts:
        ``counts[i] = |A_i ∩ B_i|`` for pair ``i``.
    ops:
        Total charged comparisons, ``sum_i (|A_i| + |B_i|)`` — the
        quantity fed to the simulated cost model.
    """

    counts: np.ndarray
    ops: int

    @property
    def total(self) -> int:
        """Sum of all per-pair counts."""
        return int(self.counts.sum())


def _keyed(concat: np.ndarray, xadj: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Offset-key a concatenation so block ``i`` lives in its own range."""
    k = xadj.size - 1
    pair_of = np.repeat(np.arange(k, dtype=np.int64), np.diff(xadj))
    return concat + pair_of * np.int64(bound), pair_of


def _numpy_hits(
    a_concat: np.ndarray,
    a_xadj: np.ndarray,
    b_concat: np.ndarray,
    b_xadj: np.ndarray,
    vertex_bound: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Pair index of every A entry and whether it occurs in its B block.

    The keyed concatenation of the B side is globally sorted because
    every block is sorted and blocks occupy increasing key ranges, so a
    single ``searchsorted`` answers all membership queries.
    """
    keyed_a, pair_a = _keyed(a_concat, a_xadj, vertex_bound)
    keyed_b, _ = _keyed(b_concat, b_xadj, vertex_bound)
    idx = np.searchsorted(keyed_b, keyed_a)
    idx_clipped = np.minimum(idx, keyed_b.size - 1)
    return pair_a, (idx < keyed_b.size) & (keyed_b[idx_clipped] == keyed_a)


def _numpy_batch_count(
    a_concat: np.ndarray,
    a_xadj: np.ndarray,
    b_concat: np.ndarray,
    b_xadj: np.ndarray,
    vertex_bound: int,
) -> np.ndarray:
    """Raw numpy count kernel (dispatcher preconditions apply)."""
    pair_a, hit = _numpy_hits(a_concat, a_xadj, b_concat, b_xadj, vertex_bound)
    return np.bincount(pair_a[hit], minlength=a_xadj.size - 1).astype(np.int64)


def _numpy_batch_count_elements(
    a_concat: np.ndarray,
    a_xadj: np.ndarray,
    b_concat: np.ndarray,
    b_xadj: np.ndarray,
    vertex_bound: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw numpy fused kernel: one keyed search feeds both outputs."""
    pair_a, hit = _numpy_hits(a_concat, a_xadj, b_concat, b_xadj, vertex_bound)
    pair_idx = pair_a[hit]
    counts = np.bincount(pair_idx, minlength=a_xadj.size - 1).astype(np.int64)
    return counts, pair_idx, a_concat[hit]


def _active_backend():
    # Imported lazily: backends.py pulls the raw numpy kernels from
    # this module at import time, so the dependency must point one way
    # at module load.
    from .backends import get_backend

    return get_backend()


def _conditioned(
    a_concat: np.ndarray, a_xadj: np.ndarray, b_concat: np.ndarray, b_xadj: np.ndarray
) -> tuple[tuple[np.ndarray, ...] | None, int, int]:
    """Validation, ops accounting and side swap shared by the dispatchers.

    Returns ``(sides, k, ops)``: ``sides`` is the contiguous ``int64``
    ``(a_concat, a_xadj, b_concat, b_xadj)`` with the smaller
    concatenation first, or ``None`` when there is nothing to intersect
    (zero pairs or an empty side).  ``ops`` is the merge cost of the
    original sizes.  Searching the smaller concatenation in the bigger
    one (the scalar kernels' small-into-large rule, chosen per batch by
    total size) is output-identical: blocks are sorted unique, so hits
    are the common keyed values in (pair, element) order whichever side
    is searched, and the merge cost is symmetric.
    """
    a_concat = np.ascontiguousarray(a_concat, dtype=np.int64)
    b_concat = np.ascontiguousarray(b_concat, dtype=np.int64)
    a_xadj = np.ascontiguousarray(a_xadj, dtype=np.int64)
    b_xadj = np.ascontiguousarray(b_xadj, dtype=np.int64)
    if a_xadj.size != b_xadj.size:
        raise ValueError("A and B sides must have the same pair count")
    k = a_xadj.size - 1
    ops = merge_cost(a_concat.size, b_concat.size)
    if k == 0 or a_concat.size == 0 or b_concat.size == 0:
        return None, k, ops
    if a_concat.size > b_concat.size:
        return (b_concat, b_xadj, a_concat, a_xadj), k, ops
    return (a_concat, a_xadj, b_concat, b_xadj), k, ops


def batch_intersect_count(
    a_concat: np.ndarray,
    a_xadj: np.ndarray,
    b_concat: np.ndarray,
    b_xadj: np.ndarray,
    vertex_bound: int,
) -> BatchIntersections:
    """Count ``|A_i ∩ B_i|`` for many pairs of sorted unique blocks at once.

    Parameters
    ----------
    a_concat, a_xadj:
        Concatenated A-side blocks and their offsets (``k + 1`` entries
        for ``k`` pairs); each block sorted ascending, values in
        ``[0, vertex_bound)``.
    b_concat, b_xadj:
        Same for the B side; must describe the same number of pairs.
    vertex_bound:
        Exclusive upper bound on element values (usually ``n``); used
        for the offset keying.

    Notes
    -----
    Validation, the ops accounting, the empty fast path and the side
    swap happen here; only the final counts come from the selected
    kernel backend, so the simulated cost is backend-independent.
    """
    sides, k, ops = _conditioned(a_concat, a_xadj, b_concat, b_xadj)
    if sides is None:
        return BatchIntersections(np.zeros(k, dtype=np.int64), ops)
    return BatchIntersections(_active_backend().count(*sides, vertex_bound), ops)


def batch_intersect_elements(
    a_concat: np.ndarray,
    a_xadj: np.ndarray,
    b_concat: np.ndarray,
    b_xadj: np.ndarray,
    vertex_bound: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Like :func:`batch_intersect_count` but return the hits themselves.

    Returns
    -------
    (pair_idx, elements, ops):
        For every common element ``w`` of pair ``i``, one entry with
        ``pair_idx == i`` and ``elements == w``.  Needed by triangle
        *enumeration* and the per-vertex Δ counters of the LCC
        extension, where the identity of the closing vertex matters.
    """
    sides, _, ops = _conditioned(a_concat, a_xadj, b_concat, b_xadj)
    if sides is None:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), ops
    pair_idx, elements = _active_backend().elements(*sides, vertex_bound)
    return pair_idx, elements, ops


def batch_intersect_count_elements(
    a_concat: np.ndarray,
    a_xadj: np.ndarray,
    b_concat: np.ndarray,
    b_xadj: np.ndarray,
    vertex_bound: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Fused counts + hits for many pairs in one backend traversal.

    Returns
    -------
    (counts, pair_idx, elements, ops):
        ``counts[i] = |A_i ∩ B_i|`` per pair **and** the
        ``(pair_idx, elements)`` hit streams of
        :func:`batch_intersect_elements`, consistent by construction
        (``counts == bincount(pair_idx, minlength=k)``).  Used by the
        enumeration / LCC / per-vertex-Δ paths, which need the closing
        vertices *and* per-pair multiplicities: one fused call replaces
        a count pass plus an elements pass (or deriving one output from
        the other with an extra traversal of the hit stream).

    Notes
    -----
    Validation, ops accounting, the empty fast path and the side swap
    live here, exactly as in the unfused dispatchers, so simulated
    accounting stays bit-identical across backends by construction.
    Backends without a fused kernel (``count_elements is None``) run
    their elements kernel and the dispatcher derives the counts.
    """
    sides, k, ops = _conditioned(a_concat, a_xadj, b_concat, b_xadj)
    if sides is None:
        e = np.empty(0, dtype=np.int64)
        return np.zeros(k, dtype=np.int64), e, e.copy(), ops
    backend = _active_backend()
    if backend.count_elements is not None:
        counts, pair_idx, elements = backend.count_elements(*sides, vertex_bound)
    else:
        pair_idx, elements = backend.elements(*sides, vertex_bound)
        counts = np.bincount(pair_idx, minlength=k).astype(np.int64)
    return counts, pair_idx, elements, ops
