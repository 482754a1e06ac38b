"""Tests for the degree-based total order and graph orientation."""

import numpy as np
import pytest

from repro.core.orientation import (
    is_acyclic_orientation,
    order_keys,
    orient,
    orient_by_degree,
    out_neighborhoods,
)
from repro.graphs import generators as gen


def _keys(degrees):
    n = len(degrees)
    return order_keys(np.asarray(degrees), np.arange(n), n + 1)


def test_precedes_degree_then_id():
    keys = order_keys(np.array([1, 2, 2]), np.array([5, 3, 5]), 6)
    assert keys[0] < keys[1]  # lower degree wins
    assert keys[1] < keys[2]  # tie broken by id


def test_order_keys_consistent_with_lexicographic_order(rng):
    degs = rng.integers(0, 20, size=30)
    keys = _keys(degs)
    for _ in range(200):
        i, j = rng.integers(0, 30, size=2)
        if i == j:
            continue
        assert (keys[i] < keys[j]) == ((degs[i], i) < (degs[j], j))


def test_degree_order_is_total(random_graph):
    keys = _keys(random_graph.degrees)
    assert np.unique(keys).size == random_graph.num_vertices


def test_rank_permutation_sorts_keys():
    order = np.argsort(_keys([5, 1, 3, 1]), kind="stable")
    # vertex 1 (deg 1, lowest id) first, then 3, then 2, then 0
    assert order.tolist() == [1, 3, 2, 0]


def test_orientation_halves_arcs(random_graph):
    og = orient_by_degree(random_graph)
    assert og.oriented
    assert og.num_arcs == random_graph.num_edges
    assert og.check_sorted()


def test_orientation_is_acyclic(random_graph):
    og = orient_by_degree(random_graph)
    assert is_acyclic_orientation(og)


def test_is_acyclic_rejects_undirected_input():
    with pytest.raises(ValueError):
        is_acyclic_orientation(gen.ring(4))


def test_orientation_reduces_max_outdegree_on_star():
    """Degree orientation points edges at the hub: its out-degree is 0."""
    g = gen.star(50)
    og = orient_by_degree(g)
    assert og.degree(0) == 0
    assert np.all(og.degrees[1:] == 1)


def test_orient_rejects_oriented_input():
    og = orient_by_degree(gen.ring(5))
    with pytest.raises(ValueError):
        orient_by_degree(og)


def test_orient_rejects_size_mismatch():
    with pytest.raises(ValueError):
        orient(gen.ring(5), _keys([1, 1]))


def test_out_neighborhoods_idempotent_on_oriented():
    og = orient_by_degree(gen.complete_graph(5))
    xadj, adjncy = out_neighborhoods(og)
    assert xadj is og.xadj
    assert adjncy is og.adjncy


def test_out_degree_bound():
    """Degree orientation bounds out-degree by O(sqrt(m))."""
    g = gen.rmat(11, 16, seed=4)
    og = orient_by_degree(g)
    bound = 3 * int(np.sqrt(2 * g.num_edges)) + 1
    assert og.max_degree() <= bound


def test_every_edge_oriented_exactly_once(random_graph):
    og = orient_by_degree(random_graph)
    oriented = set(map(tuple, og.edges()))
    undirected = set(map(tuple, random_graph.undirected_edges()))
    covered = {(min(u, v), max(u, v)) for u, v in oriented}
    assert covered == undirected
