"""Triangle enumeration in action: k-truss decomposition.

Section IV-E notes that since every triangle is found exactly once the
algorithms generalize to triangle *enumeration*.  This example uses
the distributed enumeration to drive a classic downstream analysis:
the k-truss (every edge of a k-truss supports >= k-2 triangles), which
dense-community miners build on.

The triangles are enumerated on a simulated 8-PE machine with CETRIC;
the truss peeling itself is a small local post-process over the edge
support counts.

Run with::

    python examples/truss_decomposition.py
"""

import numpy as np

from repro.core.engine import CONFIGS
from repro.core.enumerate import enumerate_program, gather_all_triangles
from repro.graphs import dataset, distribute, from_edges
from repro.net import Machine

P = 8


def edge_supports(graph, triangles):
    """Support (number of containing triangles) per undirected edge."""
    edges = graph.undirected_edges()
    n = graph.num_vertices
    keys = edges[:, 0] * n + edges[:, 1]
    order = np.argsort(keys)
    sorted_keys = keys[order]
    support = np.zeros(edges.shape[0], dtype=np.int64)
    if triangles.size:
        tri_edges = np.concatenate(
            [triangles[:, [0, 1]], triangles[:, [0, 2]], triangles[:, [1, 2]]]
        )
        tri_keys = tri_edges[:, 0] * n + tri_edges[:, 1]
        idx = np.searchsorted(sorted_keys, tri_keys)
        np.add.at(support, order[idx], 1)
    return edges, support


def max_truss(graph, triangles):
    """Peel edges by support to find the largest k with a k-truss."""
    edges, support = edge_supports(graph, triangles)
    current = from_edges(edges, num_vertices=graph.num_vertices)
    k = 2
    while current.num_edges:
        k += 1
        # Iteratively remove edges with support < k-2.
        while True:
            dist = distribute(current, num_pes=P)
            res = Machine(P).run(enumerate_program, dist, CONFIGS["cetric"])
            tri = gather_all_triangles(res.values)
            e, s = edge_supports(current, tri)
            keep = s >= k - 2
            if np.all(keep):
                break
            current = from_edges(e[keep], num_vertices=current.num_vertices)
            if current.num_edges == 0:
                break
        if current.num_edges == 0:
            return k - 1
    return k - 1


def main() -> None:
    graph = dataset("orkut", scale=0.25)
    dist = distribute(graph, num_pes=P)
    res = Machine(P).run(enumerate_program, dist, CONFIGS["cetric"])
    triangles = gather_all_triangles(res.values)
    print(
        f"input: {graph.name} (n={graph.num_vertices:,}, m={graph.num_edges:,}); "
        f"{triangles.shape[0]:,} triangles enumerated on {P} simulated PEs"
    )

    edges, support = edge_supports(graph, triangles)
    print(f"max edge support: {support.max(initial=0)}")
    hist = np.bincount(np.minimum(support, 10))
    for s, count in enumerate(hist):
        label = f"{s}" if s < 10 else "10+"
        print(f"  support {label:>3s}: {count:7d} edges")

    k = max_truss(graph, triangles)
    print(f"\nlargest non-empty truss: k = {k}")
    assert k >= 3, "a graph with triangles has at least a 3-truss"
    print("k-truss decomposition over distributed enumeration works ✓")


if __name__ == "__main__":
    main()
