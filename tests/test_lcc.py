"""Tests for local clustering coefficients (Section IV-E)."""

import numpy as np
import pytest

from repro.core.engine import EngineConfig
from repro.core.lcc import lcc_from_delta, lcc_program, lcc_sequential
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


def test_lcc_from_delta_formula():
    delta = np.array([1, 0, 3])
    deg = np.array([2, 1, 4])
    lcc = lcc_from_delta(delta, deg)
    assert lcc[0] == pytest.approx(1.0)  # 2*1/(2*1)
    assert lcc[1] == 0.0  # degree < 2
    assert lcc[2] == pytest.approx(6.0 / 12.0)


def test_lcc_sequential_complete_graph():
    assert np.allclose(lcc_sequential(gen.complete_graph(6)), 1.0)


def test_lcc_sequential_matches_networkx(random_graph):
    import networkx as nx

    lcc = lcc_sequential(random_graph)
    nxg = random_graph.to_networkx()
    expected = nx.clustering(nxg)
    assert np.allclose(lcc, [expected[v] for v in range(random_graph.num_vertices)])


def test_lcc_range(random_graph):
    lcc = lcc_sequential(random_graph)
    assert np.all(lcc >= 0.0) and np.all(lcc <= 1.0)


@pytest.mark.parametrize("p", [1, 2, 3, 6])
@pytest.mark.parametrize("contraction,surrogate,indirect", SURROGATE_MATRIX)
def test_distributed_lcc_matches_sequential(p, contraction, surrogate, indirect, random_graph):
    g = random_graph
    expected = lcc_sequential(g)
    dist = distribute(g, num_pes=p)
    config = EngineConfig(contraction=contraction, surrogate=surrogate, indirect=indirect)
    res = Machine(p).run(lcc_program, dist, config)
    got = np.concatenate([v.lcc for v in res.values])
    assert np.allclose(got, expected)


@pytest.mark.parametrize("p", [2, 4])
def test_distributed_delta_sums_to_three_t(p):
    g = gen.rmat(8, 8, seed=3)
    from repro.core.edge_iterator import edge_iterator

    truth = edge_iterator(g).triangles
    dist = distribute(g, num_pes=p)
    res = Machine(p).run(lcc_program, dist, EngineConfig(contraction=True))
    total_delta = sum(int(v.delta.sum()) for v in res.values)
    assert total_delta == 3 * truth
    assert res.values[0].triangles_total == truth


def test_distributed_lcc_indirect_variant():
    g = gen.rgg2d(600, expected_edges=5000, seed=4)
    expected = lcc_sequential(g)
    dist = distribute(g, num_pes=9)
    res = Machine(9).run(
        lcc_program, dist, EngineConfig(contraction=True, indirect=True)
    )
    got = np.concatenate([v.lcc for v in res.values])
    assert np.allclose(got, expected)


def test_lcc_on_triangle_free_graph():
    g = gen.grid2d(6, 6)
    dist = distribute(g, num_pes=4)
    res = Machine(4).run(lcc_program, dist, EngineConfig(contraction=True))
    for v in res.values:
        assert np.all(v.lcc == 0.0)
        assert np.all(v.delta == 0)


def test_lcc_ghost_delta_exchange_needed():
    """A triangle whose corners span PEs: every owner gets credit."""
    from repro.graphs import from_edges

    # Triangle 0-3-5 with p=3: corners on PEs 0,1,2 (type 3).
    g = from_edges(np.array([[0, 3], [3, 5], [0, 5]]), num_vertices=6)
    dist = distribute(g, num_pes=3)
    res = Machine(3).run(lcc_program, dist, EngineConfig(contraction=True))
    delta = np.concatenate([v.delta for v in res.values])
    assert delta.tolist() == [1, 0, 0, 1, 0, 1]
