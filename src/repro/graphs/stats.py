"""Structural graph statistics: degrees, components, cores, degeneracy.

Supporting analysis for the ordering theory behind COMPACT-FORWARD:
the degree ordering bounds out-degrees by ``O(sqrt m)``; the *optimal*
acyclic orientation uses the **degeneracy order** (Matula & Beck),
whose out-degrees are bounded by the graph's degeneracy ``d`` — for
many real networks far below ``sqrt m``.  :func:`degeneracy_order`
plugs straight into :func:`repro.core.orientation.orient` as an
alternative total order.

Also: vectorized degree summaries and connected components (via
``scipy.sparse.csgraph``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph

__all__ = [
    "DegreeSummary",
    "degree_summary",
    "connected_components",
    "core_numbers",
    "degeneracy",
    "degeneracy_order",
]


@dataclass(frozen=True)
class DegreeSummary:
    """Compact description of a degree distribution."""

    min: int
    max: int
    mean: float
    median: float
    #: Ratio max/mean — the skew indicator the experiments care about.
    skew: float

    @classmethod
    def of(cls, degrees: np.ndarray) -> "DegreeSummary":
        """Summary of a degree array (zeros allowed)."""
        if degrees.size == 0:
            return cls(0, 0, 0.0, 0.0, 1.0)
        mean = float(degrees.mean())
        return cls(
            min=int(degrees.min()),
            max=int(degrees.max()),
            mean=mean,
            median=float(np.median(degrees)),
            skew=float(degrees.max() / mean) if mean > 0 else 1.0,
        )


def degree_summary(graph: CSRGraph) -> DegreeSummary:
    """Degree-distribution summary of a graph."""
    return DegreeSummary.of(graph.degrees)


def connected_components(graph: CSRGraph) -> tuple[int, np.ndarray]:
    """``(count, labels)`` via scipy's sparse BFS."""
    from scipy.sparse.csgraph import connected_components as _cc

    if graph.num_vertices == 0:
        return 0, np.empty(0, dtype=np.int64)
    count, labels = _cc(graph.to_scipy(), directed=False)
    return int(count), labels.astype(np.int64)


def core_numbers(graph: CSRGraph) -> np.ndarray:
    """Core number of every vertex (Batagelj–Zaveršnik peeling).

    The classic ``O(n + m)`` bucket algorithm: repeatedly remove a
    minimum-degree vertex; its degree at removal time (monotonized)
    is its core number.
    """
    if graph.oriented:
        raise ValueError("core numbers are defined on the undirected graph")
    n = graph.num_vertices
    deg = graph.degrees.copy()
    core = np.zeros(n, dtype=np.int64)
    if n == 0:
        return core
    # Bucket sort vertices by degree.
    max_deg = int(deg.max(initial=0))
    bucket_pos = np.zeros(max_deg + 2, dtype=np.int64)
    np.cumsum(np.bincount(deg, minlength=max_deg + 1), out=bucket_pos[1:])
    order = np.argsort(deg, kind="stable").astype(np.int64)
    pos_of = np.empty(n, dtype=np.int64)
    pos_of[order] = np.arange(n)
    bucket_start = bucket_pos[:-1].copy()

    removed = np.zeros(n, dtype=bool)
    current = 0
    for i in range(n):
        v = int(order[i])
        dv = int(deg[v])
        current = max(current, dv)
        core[v] = current
        removed[v] = True
        for u in graph.neighbors(v):
            u = int(u)
            if removed[u] or deg[u] <= deg[v]:
                continue
            # Move u one bucket down: swap it with the first vertex of
            # its current bucket, then shrink the bucket boundary.
            du = int(deg[u])
            pu = int(pos_of[u])
            first = int(bucket_start[du])
            w = int(order[first])
            if w != u:
                order[first], order[pu] = u, w
                pos_of[u], pos_of[w] = first, pu
            bucket_start[du] += 1
            deg[u] -= 1
    return core


def degeneracy(graph: CSRGraph) -> int:
    """The graph's degeneracy ``max_v core(v)``."""
    if graph.num_vertices == 0:
        return 0
    return int(core_numbers(graph).max(initial=0))


def degeneracy_order(graph: CSRGraph) -> np.ndarray:
    """Order keys following the peeling sequence: ``keys[v]`` is the
    position at which ``v`` is peeled.

    Orienting along these keys (:func:`repro.core.orientation.orient`)
    bounds every out-degree by the degeneracy — the theoretical optimum
    over acyclic orientations.
    """
    n = graph.num_vertices
    # Re-run the peeling, recording removal positions.
    deg = graph.degrees.copy()
    removed = np.zeros(n, dtype=bool)
    position = np.zeros(n, dtype=np.int64)
    # Simple heap-free peeling with lazily updated buckets (clear at
    # this scale; the bucket variant above is the hot-path version).
    import heapq

    heap = [(int(d), v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    next_pos = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v] or d != deg[v]:
            continue  # stale entry
        removed[v] = True
        position[v] = next_pos
        next_pos += 1
        for u in graph.neighbors(v):
            u = int(u)
            if not removed[u]:
                deg[u] -= 1
                heapq.heappush(heap, (int(deg[u]), u))
    # keys = removal position: earlier-peeled precede later-peeled.
    return position
