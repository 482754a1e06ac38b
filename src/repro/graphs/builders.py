"""Constructing and cleaning :class:`~repro.graphs.csr.CSRGraph` instances.

The paper's preprocessing (Section V-B/V-C) interprets directed inputs
as undirected, removes isolated vertices, and requires sorted
neighborhoods.  These builders implement that pipeline fully
vectorized: duplicate removal, self-loop removal, symmetrization and
sorting are all ``O(m log m)`` NumPy operations with no per-edge Python
loops.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph

__all__ = [
    "from_edges",
    "from_neighborhoods",
    "from_scipy",
    "from_networkx",
    "empty_graph",
    "remove_isolated_vertices",
    "relabel",
    "induced_subgraph",
    "canonical_edges",
    "sorted_unique",
    "unique_of_sorted",
    "MAX_KEYED_VERTICES",
]


#: Largest vertex-id bound ``n`` for which the edge key ``u * n + v``
#: cannot overflow int64 (``n * n <= 2**63 - 1``).
MAX_KEYED_VERTICES = 3_037_000_499


def unique_of_sorted(values: np.ndarray) -> np.ndarray:
    """Drop repeats from a non-decreasing 1-D array."""
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def sorted_unique(values) -> np.ndarray:
    """Sorted distinct values of ``values`` (flattened), like ``np.unique``.

    One ``np.sort`` and a neighbour-inequality mask.  NumPy's own
    ``np.unique`` takes a hash path for integers that is tens of times
    slower on the id arrays this package deduplicates.
    """
    return unique_of_sorted(np.sort(values, axis=None))


def _edge_keys(edges: np.ndarray, drop_self_loops: bool) -> tuple[np.ndarray, int]:
    """Sorted distinct keys ``lo * n + hi`` of the canonical edges, and ``n``.

    ``n`` is one more than the largest endpoint (1 for no edges).
    Raises ``ValueError`` for a negative endpoint or an ``n`` whose key
    could overflow.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return np.empty(0, dtype=np.int64), 1
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must have shape (k, 2)")
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    if lo.min() < 0:
        row = int(np.argmax(lo < 0))
        u, v = (int(x) for x in edges[row])
        raise ValueError(
            f"negative vertex id in edge {row} ({u}, {v}); vertex ids must be >= 0"
        )
    n = int(hi.max()) + 1
    if n > MAX_KEYED_VERTICES:
        raise ValueError(
            f"vertex id {n - 1} is too large: ids must be below "
            f"{MAX_KEYED_VERTICES} so that the int64 edge key fits"
        )
    if drop_self_loops:
        keep = lo != hi
        lo, hi = lo[keep], hi[keep]
    return sorted_unique(lo * n + hi), n


def canonical_edges(edges: np.ndarray, *, drop_self_loops: bool = True) -> np.ndarray:
    """Normalize an edge list to unique rows ``[u, v]`` with ``u < v``.

    Parameters
    ----------
    edges:
        ``(k, 2)`` integer array; rows may appear in either orientation
        and multiple times (multi-edges collapse to simple edges, as
        the paper does for its directed web crawls).  Vertex ids must
        be non-negative and below :data:`MAX_KEYED_VERTICES`.
    drop_self_loops:
        Remove rows with ``u == v`` (triangle counting is defined on
        simple graphs).

    Rows come out sorted by ``(u, v)``.
    """
    keys, n = _edge_keys(edges, drop_self_loops)
    return np.column_stack(np.divmod(keys, n))


def from_edges(
    edges: np.ndarray,
    num_vertices: int | None = None,
    *,
    name: str = "",
) -> CSRGraph:
    """Build an undirected, simple, sorted CSR graph from an edge list.

    ``edges`` may contain duplicates, self-loops and both orientations;
    they are canonicalized first.  ``num_vertices`` defaults to
    ``max(edges) + 1`` (0 for an empty list).
    """
    keys, n = _edge_keys(edges, drop_self_loops=True)
    lo, hi = np.divmod(keys, n)
    max_id = int(hi.max()) if hi.size else -1
    if num_vertices is None:
        num_vertices = max_id + 1
    elif max_id >= num_vertices:
        raise ValueError("edge endpoint exceeds num_vertices")
    # Symmetrize: every undirected edge becomes the arcs (lo, hi) and
    # (hi, lo).  One sort of the arc keys orders the CSR by (src, dst).
    arcs = np.sort(np.concatenate([keys, hi * n + lo]))
    counts = np.bincount(lo, minlength=num_vertices)
    counts += np.bincount(hi, minlength=num_vertices)
    xadj = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=xadj[1:])
    return CSRGraph(xadj, arcs % n, oriented=False, sorted_neighborhoods=True, name=name)


def from_neighborhoods(neighborhoods, *, name: str = "") -> CSRGraph:
    """Build a graph from an explicit ``{v: iterable}`` -like sequence.

    ``neighborhoods`` is a sequence where entry ``v`` lists ``N_v``.
    The input must already be symmetric; this is checked.  Intended for
    small hand-written graphs in tests and examples.
    """
    adj = [np.asarray(sorted(set(int(x) for x in nb)), dtype=np.int64) for nb in neighborhoods]
    n = len(adj)
    xadj = np.zeros(n + 1, dtype=np.int64)
    xadj[1:] = np.cumsum([a.size for a in adj])
    adjncy = np.concatenate(adj) if n else np.empty(0, dtype=np.int64)
    g = CSRGraph(xadj, adjncy, oriented=False, sorted_neighborhoods=True, name=name)
    if not g.check_symmetric():
        raise ValueError("neighborhoods are not symmetric")
    if not g.check_no_self_loops():
        raise ValueError("self-loops are not allowed")
    return g


def from_scipy(mat, *, name: str = "") -> CSRGraph:
    """Build from a scipy sparse matrix (interpreted as undirected)."""
    from scipy.sparse import coo_matrix

    coo = coo_matrix(mat)
    edges = np.column_stack([coo.row.astype(np.int64), coo.col.astype(np.int64)])
    return from_edges(edges, num_vertices=max(coo.shape), name=name)


def from_networkx(g, *, name: str = "") -> CSRGraph:
    """Build from a networkx graph whose nodes are ``0..n-1``."""
    n = g.number_of_nodes()
    if n and set(g.nodes) != set(range(n)):
        raise ValueError("networkx nodes must be exactly 0..n-1; relabel first")
    edges = np.array([(u, v) for u, v in g.edges], dtype=np.int64).reshape(-1, 2)
    return from_edges(edges, num_vertices=n, name=name)


def empty_graph(num_vertices: int, *, name: str = "") -> CSRGraph:
    """A graph with ``num_vertices`` vertices and no edges."""
    return CSRGraph(
        np.zeros(num_vertices + 1, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        name=name,
    )


def remove_isolated_vertices(g: CSRGraph) -> tuple[CSRGraph, np.ndarray]:
    """Drop degree-0 vertices, compacting ids (paper Section V-C).

    Returns
    -------
    (graph, old_ids):
        ``old_ids[new_v]`` gives the original id of the surviving
        vertex ``new_v``.
    """
    keep = g.degrees > 0
    old_ids = np.flatnonzero(keep).astype(np.int64)
    new_of_old = np.full(g.num_vertices, -1, dtype=np.int64)
    new_of_old[old_ids] = np.arange(old_ids.size, dtype=np.int64)
    e = g.undirected_edges()
    remapped = new_of_old[e]
    return from_edges(remapped, num_vertices=old_ids.size, name=g.name), old_ids


def relabel(g: CSRGraph, perm: np.ndarray) -> CSRGraph:
    """Relabel vertices: new id of vertex ``v`` is ``perm[v]``.

    ``perm`` must be a permutation of ``0..n-1``.  Used to realize the
    globally-sorted-by-rank vertex numbering the machine model assumes
    and for locality experiments (e.g. random shuffles destroy
    locality; BFS orders restore it).
    """
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (g.num_vertices,) or not np.array_equal(
        np.sort(perm), np.arange(g.num_vertices)
    ):
        raise ValueError("perm must be a permutation of 0..n-1")
    e = g.undirected_edges()
    return from_edges(perm[e], num_vertices=g.num_vertices, name=g.name)


def induced_subgraph(g: CSRGraph, vertices: np.ndarray) -> tuple[CSRGraph, np.ndarray]:
    """Induced subgraph ``G(V')`` with compacted ids.

    Returns the subgraph and the sorted original ids (new id ``i``
    corresponds to original ``ids[i]``).
    """
    ids = sorted_unique(np.asarray(vertices, dtype=np.int64))
    if ids.size and (ids[0] < 0 or ids[-1] >= g.num_vertices):
        raise ValueError("vertex id out of range")
    new_of_old = np.full(g.num_vertices, -1, dtype=np.int64)
    new_of_old[ids] = np.arange(ids.size, dtype=np.int64)
    e = g.undirected_edges()
    keep = (new_of_old[e[:, 0]] >= 0) & (new_of_old[e[:, 1]] >= 0)
    sub = from_edges(new_of_old[e[keep]], num_vertices=ids.size, name=g.name)
    return sub, ids
