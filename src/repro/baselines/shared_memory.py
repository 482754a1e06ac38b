"""Shared-memory parallel triangle counting (paper Section III-A1).

Two parallelization strategies over COMPACT-FORWARD, both used as the
paper's intra-node building blocks:

* :func:`vertex_parallel_count` — Shun & Tangwongsan's approach: the
  outer loops over vertices run in parallel; each worker processes a
  contiguous block of vertices.  Simple, but on skewed graphs a block
  containing a hub gets far more work than the others.
* :func:`edge_parallel_count` — Green et al.'s edge-centric strategy:
  the *arc list* is split into chunks of (estimated) equal work using
  the per-arc cost ``|A(v)| + |A(u)|`` and a prefix sum.  The paper
  adopts exactly this for CETRIC's hybrid local phase because it
  fixes the hub imbalance.

Both return per-worker work counts so the load-balance difference the
paper describes is measurable, and both run their workers through a
thread pool (NumPy kernels release the GIL for the bulk of the work;
the `parallel=False` escape hatch keeps results bit-identical for
tests).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..core.kernels import intersect_csr_pairs
from ..core.orientation import orient_by_degree
from ..graphs.csr import CSRGraph

__all__ = ["SharedMemoryResult", "vertex_parallel_count", "edge_parallel_count"]


@dataclass(frozen=True)
class SharedMemoryResult:
    """Outcome of a shared-memory parallel count."""

    triangles: int
    #: Charged merge-model comparisons per worker (load balance view).
    work_per_worker: tuple[int, ...]

    @property
    def load_imbalance(self) -> float:
        """``max / mean`` of per-worker work (1.0 = perfect)."""
        w = np.asarray(self.work_per_worker, dtype=np.float64)
        if w.size == 0 or w.sum() == 0:
            return 1.0
        return float(w.max() / w.mean())


def _count_arc_range(
    og: CSRGraph, src: np.ndarray, lo: int, hi: int
) -> tuple[int, int]:
    """Count triangles over the arc range ``[lo, hi)``; returns (count, ops)."""
    ops, counts, _ = intersect_csr_pairs(
        og.xadj, og.adjncy, src[lo:hi], og.xadj, og.adjncy, og.adjncy[lo:hi], og.num_vertices
    )
    return int(counts.sum()), ops


def _run_chunks(
    og: CSRGraph,
    src: np.ndarray,
    boundaries: np.ndarray,
    parallel: bool,
) -> SharedMemoryResult:
    ranges = [
        (int(boundaries[i]), int(boundaries[i + 1]))
        for i in range(boundaries.size - 1)
    ]
    if parallel and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            results = list(
                pool.map(lambda r: _count_arc_range(og, src, r[0], r[1]), ranges)
            )
    else:
        results = [_count_arc_range(og, src, lo, hi) for lo, hi in ranges]
    total = sum(c for c, _ in results)
    work = tuple(o for _, o in results)
    return SharedMemoryResult(triangles=total, work_per_worker=work)


def vertex_parallel_count(
    graph: CSRGraph, num_workers: int, *, parallel: bool = True
) -> SharedMemoryResult:
    """Vertex-centric parallel EDGEITERATOR (Shun & Tangwongsan style).

    Vertices are split into ``num_workers`` contiguous blocks; each
    worker intersects the out-neighborhoods of all arcs leaving its
    block.
    """
    if num_workers < 1:
        raise ValueError("need at least one worker")
    og = graph if graph.oriented else orient_by_degree(graph)
    src = np.repeat(og.vertices(), og.degrees)
    # Vertex blocks translate to arc ranges via xadj.
    vcuts = np.linspace(0, og.num_vertices, num_workers + 1).astype(np.int64)
    boundaries = og.xadj[vcuts]
    return _run_chunks(og, src, boundaries, parallel)


def edge_parallel_count(
    graph: CSRGraph, num_workers: int, *, parallel: bool = True
) -> SharedMemoryResult:
    """Edge-centric parallel count with static work estimation (Green et al.).

    Per-arc work is estimated as ``|A(v)| + |A(u)|`` (the merge cost);
    chunk boundaries are the work quantiles of the prefix sum, so every
    worker gets nearly the same number of comparisons regardless of
    degree skew.
    """
    if num_workers < 1:
        raise ValueError("need at least one worker")
    og = graph if graph.oriented else orient_by_degree(graph)
    src = np.repeat(og.vertices(), og.degrees)
    deg = np.diff(og.xadj)
    per_arc = deg[src] + deg[og.adjncy]
    prefix = np.zeros(per_arc.size + 1, dtype=np.int64)
    np.cumsum(per_arc, out=prefix[1:])
    targets = (np.arange(1, num_workers, dtype=np.float64) * prefix[-1]) / num_workers
    cuts = np.searchsorted(prefix[1:], targets, side="left") + 1
    boundaries = np.concatenate([[0], cuts, [per_arc.size]]).astype(np.int64)
    np.maximum.accumulate(boundaries, out=boundaries)
    return _run_chunks(og, src, boundaries, parallel)
