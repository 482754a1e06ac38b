"""The degree order's keys; orienting graphs along a total order.

Triangle counters orient the undirected input along a total order
``u ≺ v`` to count each triangle exactly once.  The paper uses the
degree-based order of Latapy's COMPACT-FORWARD::

    u ≺ v  <=>  d_u < d_v, or (d_u == d_v and u < v)

which directs edges towards high-degree vertices and provably bounds
the out-degree by ``O(sqrt(m))``.  :func:`order_keys` encodes it as one
int64 key per vertex; the distributed orientation
(:func:`repro.core.preprocessing.build_oriented`) encodes ghosts with
the same function and bound, so every PE compares the same keys.

Orienting an undirected :class:`~repro.graphs.csr.CSRGraph` along a key
array keeps, for every vertex ``v``, only the out-neighbors
``N_v^+ = {u : key[v] < key[u]}``.  The result is an *oriented* CSR
graph (one arc per edge) that is acyclic by construction — the
property that guarantees each triangle is counted exactly once from
its ≺-smallest vertex.  The filter is pure NumPy; no per-edge Python
work.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..net.frames import concat_xadj

__all__ = [
    "order_keys",
    "orient",
    "orient_by_degree",
    "out_neighborhoods",
    "is_acyclic_orientation",
]


def order_keys(degrees: np.ndarray, ids: np.ndarray, bound: int) -> np.ndarray:
    """``(degree, id)`` encoded as ``degree * bound + id``, so numeric ``<``
    realizes the total order; ``bound`` must exceed every id."""
    return degrees.astype(np.int64) * np.int64(bound) + ids.astype(np.int64)


def _kept_rows(xadj: np.ndarray, adj: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR ``(xadj, adj)`` restricted to the entries ``keep`` selects."""
    rows = np.repeat(np.arange(xadj.size - 1, dtype=np.int64), np.diff(xadj))
    return concat_xadj(np.bincount(rows[keep], minlength=xadj.size - 1)), adj[keep]


def orient(graph: CSRGraph, keys: np.ndarray) -> CSRGraph:
    """Keep only arcs ``(v, u)`` with ``keys[v] < keys[u]``.

    ``keys`` holds one distinct key per vertex (:func:`order_keys`, or
    :func:`repro.graphs.stats.degeneracy_order`).  Neighborhood
    sortedness (by vertex id) is preserved because filtering a sorted
    sequence keeps it sorted.
    """
    if graph.oriented:
        raise ValueError("graph is already oriented")
    if keys.size != graph.num_vertices:
        raise ValueError("keys cover a different vertex count")
    keep = np.repeat(keys, graph.degrees) < keys[graph.adjncy]
    xadj, adjncy = _kept_rows(graph.xadj, graph.adjncy, keep)
    return CSRGraph(
        xadj,
        adjncy,
        oriented=True,
        sorted_neighborhoods=graph.sorted_neighborhoods,
        name=graph.name,
    )


def orient_by_degree(graph: CSRGraph) -> CSRGraph:
    """Orient with the COMPACT-FORWARD degree order (paper default)."""
    n = graph.num_vertices
    return orient(graph, order_keys(graph.degrees, np.arange(n), n + 1))


def out_neighborhoods(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """Return oriented ``(xadj, adjncy)`` without building a new graph.

    Convenience for kernels that want raw arrays; equivalent to
    ``orient_by_degree(graph)`` but skipping the CSRGraph wrapper when
    the input is already oriented.
    """
    if graph.oriented:
        return graph.xadj, graph.adjncy
    og = orient_by_degree(graph)
    return og.xadj, og.adjncy


def is_acyclic_orientation(oriented: CSRGraph) -> bool:
    """Check that the arc relation is a DAG (sanity/test helper).

    Any orientation along a total order is acyclic; this verifies it
    directly by checking that every arc increases the degree-order key.
    """
    if not oriented.oriented:
        raise ValueError("expected an oriented graph")
    src = np.repeat(oriented.vertices(), oriented.degrees)
    # Out-degree keys are not the orientation keys; a DAG check via
    # topological sort is the robust route.
    import networkx as nx

    dg = nx.DiGraph()
    dg.add_nodes_from(range(oriented.num_vertices))
    dg.add_edges_from(zip(src.tolist(), oriented.adjncy.tolist()))
    return nx.is_directed_acyclic_graph(dg)
