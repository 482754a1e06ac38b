"""Vertex reordering: creating and destroying ID locality.

The paper's evaluation hinges on how much locality the vertex
numbering exposes to the 1D partition: web crawls (BFS-like orders)
have small cuts, social networks (essentially random ids) do not.
These utilities produce the canonical orders for locality studies:

* :func:`bfs_order` — breadth-first numbering from a seed vertex per
  component; restores crawl-like locality;
* :func:`random_order` — random shuffle; destroys locality (the
  social-network null model);
* :func:`degree_order` — ascending-degree numbering; aligns the ID
  partition with the degree orientation (hubs all land on the last
  PEs — a pathological case worth testing against).

All return a permutation array ``perm`` with ``perm[v] = new id of
v``, suitable for :func:`repro.graphs.builders.relabel`.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .csr import CSRGraph

__all__ = ["bfs_order", "random_order", "degree_order", "cut_fraction"]


def bfs_order(graph: CSRGraph, *, start: int = 0) -> np.ndarray:
    """BFS numbering (component by component, queue-order levels).

    Unvisited components are entered in ascending id order after the
    start vertex's component is exhausted.
    """
    n = graph.num_vertices
    perm = np.full(n, -1, dtype=np.int64)
    next_id = 0
    visited = np.zeros(n, dtype=bool)
    seeds = [start] if 0 <= start < n else []
    seeds.extend(v for v in range(n))
    for seed in seeds:
        if next_id == n:
            break
        if visited[seed]:
            continue
        q: deque[int] = deque([seed])
        visited[seed] = True
        while q:
            v = q.popleft()
            perm[v] = next_id
            next_id += 1
            for u in graph.neighbors(v):
                if not visited[u]:
                    visited[u] = True
                    q.append(int(u))
    return perm


def random_order(graph: CSRGraph, *, seed: int = 0) -> np.ndarray:
    """Uniformly random permutation (locality null model)."""
    rng = np.random.default_rng(seed)
    return rng.permutation(graph.num_vertices).astype(np.int64)


def degree_order(graph: CSRGraph) -> np.ndarray:
    """Number vertices by ascending ``(degree, id)``.

    After this relabeling the ID order *is* the paper's degree-based
    total order.
    """
    keys = np.argsort(graph.degrees, kind="stable")
    perm = np.empty(graph.num_vertices, dtype=np.int64)
    perm[keys] = np.arange(graph.num_vertices, dtype=np.int64)
    return perm


def cut_fraction(graph: CSRGraph, num_pes: int) -> float:
    """Fraction of edges cut by the ``num_pes``-way ID partition.

    The single scalar that predicts whether contraction pays off.
    """
    if graph.num_edges == 0:
        return 0.0
    from .distributed import distribute

    dist = distribute(graph, num_pes=num_pes)
    return dist.total_cut_edges() / graph.num_edges
