"""Batched counting kernels shared by all distributed algorithms.

Each helper performs many ``|A ∩ B|`` intersections in one vectorized
batch (per the HPC-Python guidance) and charges the merge-model cost to
the PE's simulated clock.  Work is chunked so temporary arrays stay
bounded even when a PE processes millions of arc pairs.

Received record batches arrive as a
:class:`~repro.net.frames.RecordFrame` — already in the CSR layout the
batch kernels consume — so the receiver side runs without any
per-record Python iteration.

Every helper funnels into :func:`intersect_csr_pairs`, which hands the
CSR-block pairs to the ``csr_pairs`` kernel of the backend selected via
:mod:`repro.core.backends` (``REPRO_KERNEL_BACKEND`` /
``repro-tc --kernel-backend``): the compiled ``native`` (cffi/C)
kernel when it loads, else ``numpy``; both read the blocks in place.
Only a backend registered without ``csr_pairs`` has its blocks
gathered for the ``batch_intersect_*`` dispatchers.  The charged ops
are computed before any backend runs, so everything in this module is
backend-agnostic — see ``docs/KERNELS.md``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..net.frames import RecordFrame
from ..net.machine import PEContext
from .backends import get_backend
from .intersect import (
    batch_intersect_count,
    batch_intersect_count_elements,
    block_total,
    gather_blocks,
)

__all__ = [
    "intersect_csr_pairs",
    "count_csr_pairs",
    "csr_pairs_elements",
    "count_record_pairs",
    "record_pairs_elements",
    "chunked",
]

#: Default number of arc pairs per vectorized batch.
CHUNK_PAIRS = 1 << 18


def chunked(total: int, chunk: int | None = None) -> Iterator[slice]:
    """Yield slices covering ``range(total)`` in pieces of ``chunk``
    (default :data:`CHUNK_PAIRS`, read at call time)."""
    chunk = chunk or CHUNK_PAIRS
    for start in range(0, total, chunk):
        yield slice(start, min(start + chunk, total))


def intersect_csr_pairs(
    left_xadj: np.ndarray,
    left_adj: np.ndarray,
    left_slots: np.ndarray,
    right_xadj: np.ndarray,
    right_adj: np.ndarray,
    right_slots: np.ndarray,
    bound: int,
    *,
    elements: bool = False,
) -> tuple[int, np.ndarray, np.ndarray | None]:
    """``|L_i ∩ R_i|`` for one batch of CSR-block pairs, unchunked.

    Pair ``i`` intersects block ``left_slots[i]`` of the left CSR with
    block ``right_slots[i]`` of the right CSR; values lie in
    ``[0, bound)``.  Returns ``(ops, counts, closing)``: the merge cost
    (the block sizes of both sides), the per-pair counts and, with
    ``elements``, the closing elements in (pair, ascending element)
    order (else ``None``).  The backend's ``csr_pairs`` kernel reads the
    blocks where they are; a backend without one gets them gathered for
    the ``batch_intersect_*`` dispatchers.  Runs of equal
    ``left_slots`` let the native kernel mark the shared block once.
    """
    csr_pairs = get_backend().csr_pairs
    if csr_pairs is None:
        lcat, lx = gather_blocks(left_xadj, left_adj, left_slots)
        rcat, rx = gather_blocks(right_xadj, right_adj, right_slots)
        if elements:
            counts, _, closing, ops = batch_intersect_count_elements(lcat, lx, rcat, rx, bound)
            return ops, counts, closing
        res = batch_intersect_count(lcat, lx, rcat, rx, bound)
        return res.ops, res.counts, None
    ops = block_total(left_xadj, left_slots) + block_total(right_xadj, right_slots)
    pairs = (left_xadj, left_adj, left_slots, right_xadj, right_adj, right_slots, bound)
    if elements:
        counts, _, closing = csr_pairs(*pairs, elements=True)
        return ops, counts, closing
    return ops, csr_pairs(*pairs), None


def count_csr_pairs(
    ctx: PEContext,
    left_xadj: np.ndarray,
    left_adj: np.ndarray,
    left_slots: np.ndarray,
    right_xadj: np.ndarray,
    right_adj: np.ndarray,
    right_slots: np.ndarray,
    bound: int,
) -> int:
    """Sum of ``|L_i ∩ R_i|`` over the pairs of :func:`intersect_csr_pairs`,
    charging the merge cost once per :data:`CHUNK_PAIRS` chunk."""
    if left_slots.size != right_slots.size:
        raise ValueError("slot arrays must align")
    total = 0
    for sl in chunked(left_slots.size):
        ops, counts, _ = intersect_csr_pairs(
            left_xadj, left_adj, left_slots[sl], right_xadj, right_adj, right_slots[sl], bound
        )
        ctx.charge(ops)
        total += int(counts.sum())
    return total


def csr_pairs_elements(
    ctx: PEContext,
    left_xadj: np.ndarray,
    left_adj: np.ndarray,
    left_slots: np.ndarray,
    right_xadj: np.ndarray,
    right_adj: np.ndarray,
    right_slots: np.ndarray,
    bound: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair counts and closing elements of :func:`count_csr_pairs`'s pairs.

    Returns ``(counts, closing)``; ``closing`` is in (pair, ascending
    element) order, so ``np.repeat(endpoint, counts)`` gives each
    closing element its pair's endpoint.  Charges like
    :func:`count_csr_pairs`.
    """
    if left_slots.size != right_slots.size:
        raise ValueError("slot arrays must align")
    counts, closing = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for sl in chunked(left_slots.size):
        ops, c, w = intersect_csr_pairs(
            left_xadj, left_adj, left_slots[sl], right_xadj, right_adj, right_slots[sl], bound,
            elements=True,
        )
        ctx.charge(ops)
        counts.append(c)
        closing.append(w)
    return np.concatenate(counts), np.concatenate(closing)


def _expand_record_pairs(
    ctx: PEContext,
    frame: RecordFrame,
    vlo: int,
    vhi: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For received records, enumerate the (record, local target) pairs.

    A record with an explicit target (Algorithm 2 shape) yields exactly
    one pair for that edge.  A broadcast record (surrogate shape)
    yields one pair per owned ``u ∈ A(v)``.  Returns
    ``(rxadj, radj, rec_idx, targets)``: the record-CSR plus, per pair,
    its record index and owned ``u``.  Works entirely on the frame's
    arrays — no per-record iteration.  The scan charges one op per
    targeted record and one per entry of a broadcast record; an empty
    frame charges nothing.
    """
    rxadj, radj = frame.xadj, frame.neighbors
    has_target = frame.targets >= 0
    targeted = np.flatnonzero(has_target)
    tg = frame.targets[targeted]
    ok = (tg >= vlo) & (tg < vhi)
    rec_idx, targets = targeted[ok], tg[ok]
    if targeted.size:
        ctx.charge(targeted.size)
    if targeted.size < frame.num_records:
        # Owned entries of broadcast records: a binary search in xadj
        # finds each owned entry's record, so no per-entry record array.
        pos = np.flatnonzero((radj >= vlo) & (radj < vhi))
        rec = np.searchsorted(rxadj, pos, "right") - 1
        scanned = radj.size
        if targeted.size:
            bcast = ~has_target[rec]
            rec, pos = rec[bcast], pos[bcast]
            scanned -= block_total(rxadj, targeted)
        ctx.charge(scanned)  # scan for local targets (Algorithm 3 line 15)
        rec_idx = np.concatenate((rec_idx, rec))
        targets = np.concatenate((targets, radj[pos]))
    return rxadj, radj, rec_idx, targets


def count_record_pairs(
    ctx: PEContext,
    frame: RecordFrame,
    local_xadj: np.ndarray,
    local_adj: np.ndarray,
    vlo: int,
    vhi: int,
    bound: int,
) -> int:
    """Receiver-side counting: ``sum |A(v) ∩ A(u)|`` over a received frame.

    ``local_xadj``/``local_adj`` is the receiver's oriented (or
    contracted) CSR, row ``u - vlo``, in global ids.  For every record
    ``(v, A(v))`` and every ``u ∈ A(v) ∩ V_i``, intersect the record's
    array with the local ``A(u)`` (Algorithm 2 lines 6-7 /
    Algorithm 3 lines 14-16).
    """
    rxadj, radj, rec_idx, targets = _expand_record_pairs(ctx, frame, vlo, vhi)
    return count_csr_pairs(ctx, rxadj, radj, rec_idx, local_xadj, local_adj, targets - vlo, bound)


def record_pairs_elements(
    ctx: PEContext,
    frame: RecordFrame,
    local_xadj: np.ndarray,
    local_adj: np.ndarray,
    vlo: int,
    vhi: int,
    bound: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Like :func:`count_record_pairs` but returning the triangles.

    Returns ``(v_ids, u_ids, w_ids)`` — one entry per triangle found at
    this receiver, where ``v`` is the record vertex, ``u`` the owned
    middle vertex and ``w`` the closing vertex.  Needed by the LCC
    extension, which must credit all three corners.
    """
    rxadj, radj, rec_idx, targets = _expand_record_pairs(ctx, frame, vlo, vhi)
    counts, closing = csr_pairs_elements(
        ctx, rxadj, radj, rec_idx, local_xadj, local_adj, targets - vlo, bound
    )
    return np.repeat(frame.vertices[rec_idx], counts), np.repeat(targets, counts), closing
