"""Tests for distributed triangle enumeration (Section IV-E)."""

import numpy as np
import pytest

from repro.core.edge_iterator import triangle_edges
from repro.core.engine import EngineConfig
from repro.core.enumerate import enumerate_program, gather_all_triangles
from repro.graphs import distribute
from repro.graphs import generators as gen
from repro.net import Machine

#: ``(contraction, surrogate, indirect)``: both contraction settings with
#: the surrogate, then the Algorithm 2 shape without it under every
#: contraction x indirect combination.
SURROGATE_MATRIX = [
    pytest.param(True, True, False, id="True"),
    pytest.param(False, True, False, id="False"),
    pytest.param(True, False, False, id="True-no-surrogate"),
    pytest.param(False, False, False, id="False-no-surrogate"),
    pytest.param(True, False, True, id="True-no-surrogate-indirect"),
    pytest.param(False, False, True, id="False-no-surrogate-indirect"),
]


def _sequential_sorted(g):
    tri = triangle_edges(g)
    if tri.size == 0:
        return tri
    order = np.lexsort((tri[:, 2], tri[:, 1], tri[:, 0]))
    return tri[order]


@pytest.mark.parametrize("contraction,surrogate,indirect", SURROGATE_MATRIX)
@pytest.mark.parametrize("p", [1, 2, 3, 6])
def test_enumeration_matches_sequential(p, contraction, surrogate, indirect, random_graph):
    g = random_graph
    expected = _sequential_sorted(g)
    dist = distribute(g, num_pes=p)
    config = EngineConfig(contraction=contraction, surrogate=surrogate, indirect=indirect)
    res = Machine(p).run(enumerate_program, dist, config)
    got = gather_all_triangles(res.values)
    assert np.array_equal(got, expected)
    assert res.values[0].total == expected.shape[0]


@pytest.mark.parametrize("surrogate", [True, False])
def test_each_triangle_found_exactly_once(surrogate):
    g = gen.complete_graph(9)
    dist = distribute(g, num_pes=3)
    res = Machine(3).run(
        enumerate_program, dist, EngineConfig(contraction=True, surrogate=surrogate)
    )
    got = gather_all_triangles(res.values)
    # No duplicates across PEs.
    assert np.unique(got, axis=0).shape[0] == got.shape[0] == 84


def test_enumeration_rows_are_real_triangles(random_graph):
    dist = distribute(random_graph, num_pes=4)
    res = Machine(4).run(enumerate_program, dist)
    got = gather_all_triangles(res.values)
    for a, b, c in got[:30]:
        assert random_graph.has_edge(int(a), int(b))
        assert random_graph.has_edge(int(b), int(c))
        assert random_graph.has_edge(int(a), int(c))


def test_enumeration_empty_graph():
    from repro.graphs import empty_graph

    dist = distribute(empty_graph(6), num_pes=2)
    res = Machine(2).run(enumerate_program, dist)
    assert gather_all_triangles(res.values).shape == (0, 3)
    assert res.values[0].total == 0


def test_enumeration_with_indirection():
    g = gen.rgg2d(400, expected_edges=3200, seed=5)
    expected = _sequential_sorted(g)
    dist = distribute(g, num_pes=9)
    res = Machine(9).run(
        enumerate_program, dist, EngineConfig(contraction=True, indirect=True)
    )
    assert np.array_equal(gather_all_triangles(res.values), expected)
