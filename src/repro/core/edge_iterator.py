"""Sequential EDGEITERATOR / COMPACT-FORWARD (paper Algorithm 1).

Three interchangeable counters:

* :func:`edge_iterator` — the paper's Algorithm 1, vectorized across
  all oriented arcs with the batch intersection kernel.  Also reports
  the comparison count charged in the merge cost model.
* :func:`edge_iterator_per_vertex` — same traversal but returning the
  per-vertex triangle counts Δ(v) needed for local clustering
  coefficients (Section IV-E).
* :func:`matrix_count` — an independent ``scipy.sparse`` ground-truth
  oracle (``trace-free (A⋅A)∘A`` formulation) used to cross-check every
  other implementation in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.csr import CSRGraph
from .kernels import intersect_csr_pairs
from .orientation import orient_by_degree

__all__ = [
    "SequentialResult",
    "edge_iterator",
    "edge_iterator_per_vertex",
    "matrix_count",
    "triangle_edges",
]


@dataclass(frozen=True)
class SequentialResult:
    """Outcome of a sequential count.

    Attributes
    ----------
    triangles:
        Number of triangles in the graph (each counted once).
    intersection_ops:
        Total merge-model comparisons performed.
    """

    triangles: int
    intersection_ops: int


def _oriented(graph: CSRGraph) -> CSRGraph:
    return graph if graph.oriented else orient_by_degree(graph)


def _arc_intersections(graph: CSRGraph, *, elements: bool = False):
    """``N^+(v) ∩ N^+(u)`` for every oriented arc ``(v, u)``.

    Returns ``(src, dst, ops, counts, closing)`` per arc; ``closing`` as
    in :func:`~repro.core.kernels.intersect_csr_pairs`.  The sources are
    grouped, so they are the side an in-place kernel marks once.
    """
    og = _oriented(graph)
    src = np.repeat(og.vertices(), og.degrees)
    dst = og.adjncy
    ops, counts, closing = intersect_csr_pairs(
        og.xadj, og.adjncy, src, og.xadj, og.adjncy, dst, og.num_vertices, elements=elements
    )
    return src, dst, ops, counts, closing


def edge_iterator(graph: CSRGraph) -> SequentialResult:
    """Count triangles with COMPACT-FORWARD.

    Accepts an undirected graph (oriented internally by degree order)
    or an already-oriented one.  For every oriented arc ``(v, u)`` the
    kernel counts ``|N_v^+ ∩ N_u^+|``; summing over arcs counts every
    triangle exactly once, from its ≺-smallest vertex.
    """
    _, _, ops, counts, _ = _arc_intersections(graph)
    return SequentialResult(triangles=int(counts.sum()), intersection_ops=ops)


def edge_iterator_per_vertex(graph: CSRGraph) -> tuple[np.ndarray, SequentialResult]:
    """Per-vertex triangle counts Δ(v) via the same traversal.

    Every triangle ``{v, u, w}`` is found once (iterating from its
    smallest vertex ``v`` over arc ``(v, u)`` with closing vertex
    ``w``); Δ is incremented for all three corners.
    """
    src, dst, ops, counts, closing = _arc_intersections(graph, elements=True)
    delta = np.zeros(graph.num_vertices, dtype=np.int64)
    # Crediting the arc endpoints per hit is a weighted bincount by the
    # fused per-pair counts; only the closing vertices need the stream.
    np.add.at(delta, src, counts)
    np.add.at(delta, dst, counts)
    np.add.at(delta, closing, 1)
    return delta, SequentialResult(triangles=closing.size, intersection_ops=ops)


def triangle_edges(graph: CSRGraph) -> np.ndarray:
    """Enumerate all triangles as ``(k, 3)`` vertex rows (ascending ids).

    Enumeration is a byproduct of the counting traversal (Section IV-E:
    "since each triangle is found exactly once, this generalizes to
    triangle enumeration").
    """
    src, dst, _, counts, closing = _arc_intersections(graph, elements=True)
    tri = np.column_stack([np.repeat(src, counts), np.repeat(dst, counts), closing])
    tri.sort(axis=1)
    return tri


def matrix_count(graph: CSRGraph) -> int:
    """Ground-truth triangle count via sparse matrix algebra.

    For the degree-oriented adjacency matrix ``A`` (a DAG), the number
    of triangles is ``sum((A @ A) ∘ A)``: entry ``(u, w)`` of ``A @ A``
    counts 2-paths ``u→v→w`` and the Hadamard mask keeps those closed
    by an arc ``u→w``.  Independent of the edge-iterator code path, so
    the two validate each other.
    """
    og = _oriented(graph)
    a = og.to_scipy()
    if a.nnz == 0:
        return 0
    return int(((a @ a).multiply(a)).sum())
