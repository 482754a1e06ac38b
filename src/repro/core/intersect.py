"""Neighborhood set-intersection kernels with work accounting.

The inner loop of every EDGEITERATOR variant is
``|N_v^+ ∩ N_u^+|`` over sorted arrays.  The paper implements the
merge-based intersection of COMPACT-FORWARD and charges each
intersection ``|a| + |b|`` comparisons; GPU codes use binary-search
(``searchsorted``) variants instead (Section III-C).

Per the HPC-Python guides, hot paths must not loop per edge in Python.
Every intersection is a pair of CSR blocks, and a backend's
``csr_pairs`` kernel intersects many pairs in one call.  The numpy one,
:func:`numpy_csr_pairs`, vectorizes *across pairs*: it gathers only the
smaller side, keys each value by its partner's block id, and one global
:func:`numpy.searchsorted` into the partner CSR's (already sorted) arc
keys resolves every membership test.  Work is *accounted* in the merge
model (``|a| + |b|`` per pair) however the kernel executes it, so the
simulated cost matches the paper's analysis rather than Python's
constant factors.

The ``batch_intersect_*`` *dispatchers* serve backends without
``csr_pairs``: they own validation, the ops accounting, the empty fast
path and the small-into-large side swap of pre-gathered blocks, then
call the selected backend (:mod:`repro.core.backends`).  The fused
variant returns counts *and* hit streams from one traversal.  Either
way everything the cost model sees is computed *before* the backend
runs, so simulated accounting is identical for every backend by
construction — see ``docs/KERNELS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Defined next to the frames that the message queue gathers with them,
# so that ``repro.net`` needs nothing from ``repro.core``.
from ..net.frames import concat_xadj, gather_blocks

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


_INT64_MAX = int(np.iinfo(np.int64).max)


def check_csr_pairs(a_xadj, a_adj, a_ids, b_xadj, b_adj, b_ids, bound):
    """The shared argument checks of every ``csr_pairs`` kernel.

    Returns the six arrays as contiguous ``int64`` (read-only views pass
    uncopied) and ``bound`` as an int.  Misaligned ids, or ``bound < 1``
    with pairs, raise ``ValueError``; block ids or offsets outside their
    arrays raise ``IndexError``.
    """
    if len(a_ids) != len(b_ids):
        raise ValueError("id arrays must align")
    bound = int(bound)
    if bound < 1 and len(a_ids):
        raise ValueError(f"bound must be at least 1 (got {bound}): no value fits [0, bound)")
    arrays = [
        np.ascontiguousarray(x, dtype=np.int64) for x in (a_xadj, a_adj, a_ids, b_xadj, b_adj, b_ids)
    ]
    for xadj, adj, ids in (arrays[:3], arrays[3:]):
        if ids.size and (ids.min() < 0 or ids.max() >= xadj.size - 1):
            raise IndexError("CSR block id out of range")
        if xadj.size and (xadj.min() < 0 or xadj.max() > adj.size):
            raise IndexError("CSR offsets outside the adjacency array")
    return arrays, bound


def block_total(xadj: np.ndarray, ids: np.ndarray) -> int:
    """Total size of the CSR blocks ``ids`` (repeats count each time)."""
    return int(xadj[ids + 1].sum() - xadj[ids].sum())


def range_error(bound: int) -> ValueError:
    """The error for a block value outside ``[0, bound)``."""
    return ValueError(
        f"CSR block value outside [0, {bound}): pass a bound above "
        "every vertex id in both adjacency arrays"
    )


def numpy_csr_pairs(a_xadj, a_adj, a_ids, b_xadj, b_adj, b_ids, bound, *, elements=False):
    """The numpy ``csr_pairs`` kernel: gather one side, probe the other in place.

    Only the side with the smaller block total is gathered, each value
    keyed by its *partner's* block id (``partner_id·bound + value``).
    The partner CSR's arc keys ``row·bound + adj`` are already sorted
    (rows ascend, blocks are sorted), so one ``searchsorted`` into them
    answers every membership test.  Hits come out in (pair, ascending
    element) order whichever side was gathered.  A gathered or keyed
    partner value outside ``[0, bound)``, or a key past ``int64``,
    raises ``ValueError`` instead of aliasing into another row's keys.
    """
    arrays, bound = check_csr_pairs(a_xadj, a_adj, a_ids, b_xadj, b_adj, b_ids, bound)
    side, partner = arrays[:3], arrays[3:]
    if block_total(side[0], side[2]) > block_total(partner[0], partner[2]):
        side, partner = partner, side
    keys, gx = gather_blocks(*side)
    k = gx.size - 1
    if keys.size == 0:
        counts = np.zeros(k, dtype=np.int64)
        return (counts, keys, keys.copy()) if elements else counts
    p_xadj, p_adj, p_ids = partner
    # Key only the partner rows from the smallest to the largest id.
    lo, hi = int(p_ids.min()), int(p_ids.max()) + 1
    if hi * bound > _INT64_MAX:
        raise ValueError(f"{hi} rows times bound {bound} overflows the int64 keys")
    arcs = p_adj[p_xadj[lo] : p_xadj[hi]]
    for values in (keys, arcs):
        if values.size and (values.min() < 0 or values.max() >= bound):
            raise range_error(bound)
    offsets = p_ids * np.int64(bound)
    keys += np.repeat(offsets, np.diff(gx))
    # A sentinel above every key makes every search result a real slot.
    arc_keys = np.empty(arcs.size + 1, dtype=np.int64)
    row_offsets = np.arange(lo, hi, dtype=np.int64) * np.int64(bound)
    np.add(np.repeat(row_offsets, np.diff(p_xadj[lo : hi + 1])), arcs, out=arc_keys[:-1])
    arc_keys[-1] = hi * bound
    found = np.searchsorted(arc_keys, keys)
    hit = np.take(arc_keys, found, out=found) == keys
    hits_before = np.zeros(keys.size + 1, dtype=np.int64)
    np.cumsum(hit, out=hits_before[1:])
    counts = hits_before[gx[1:]] - hits_before[gx[:-1]]
    if not elements:
        return counts
    pair_idx = np.repeat(np.arange(k, dtype=np.int64), counts)
    return counts, pair_idx, keys[hit] - offsets[pair_idx]


def _active_backend():
    # Imported lazily: backends.py pulls the numpy kernel from this
    # module at import time, so the dependency must point one way
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
