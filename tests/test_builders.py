"""Unit tests for graph construction and cleaning."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.graphs import (
    canonical_edges,
    empty_graph,
    from_edges,
    from_neighborhoods,
    from_networkx,
    from_scipy,
    induced_subgraph,
    relabel,
    remove_isolated_vertices,
)
from repro.graphs.builders import MAX_KEYED_VERTICES, sorted_unique, unique_of_sorted
from repro.graphs.generators import complete_graph, ring


def test_canonical_edges_dedups_and_orients():
    e = np.array([[1, 0], [0, 1], [0, 1], [2, 2], [3, 2]])
    canon = canonical_edges(e)
    assert canon.tolist() == [[0, 1], [2, 3]]


def test_canonical_edges_empty():
    assert canonical_edges(np.empty((0, 2), dtype=np.int64)).shape == (0, 2)


def test_canonical_edges_keeps_self_loops_when_asked():
    e = np.array([[2, 2]])
    assert canonical_edges(e, drop_self_loops=False).tolist() == [[2, 2]]


def test_canonical_edges_rejects_bad_shape():
    with pytest.raises(ValueError):
        canonical_edges(np.array([[1, 2, 3]]))


def test_from_edges_symmetrizes_and_sorts():
    g = from_edges(np.array([[2, 0], [1, 2]]))
    assert g.num_vertices == 3
    assert g.num_edges == 2
    assert list(g.neighbors(2)) == [0, 1]
    assert g.check_symmetric()
    assert g.check_sorted()


def test_from_edges_handles_duplicates_and_loops():
    g = from_edges(np.array([[0, 1], [1, 0], [0, 0], [0, 1]]))
    assert g.num_edges == 1


def test_from_edges_respects_num_vertices():
    g = from_edges(np.array([[0, 1]]), num_vertices=5)
    assert g.num_vertices == 5
    assert g.degree(4) == 0
    with pytest.raises(ValueError):
        from_edges(np.array([[0, 9]]), num_vertices=5)


def test_from_neighborhoods_roundtrip():
    g = from_neighborhoods([[1, 2], [0, 2], [0, 1]])
    assert g.num_edges == 3
    with pytest.raises(ValueError):
        from_neighborhoods([[1], []])  # not symmetric
    with pytest.raises(ValueError):
        from_neighborhoods([[0]])  # self loop


def test_from_scipy_and_networkx():
    base = complete_graph(5)
    g1 = from_scipy(base.to_scipy())
    g2 = from_networkx(base.to_networkx())
    assert g1.num_edges == g2.num_edges == 10


def test_from_networkx_requires_compact_ids():
    import networkx as nx

    g = nx.Graph()
    g.add_edge("a", "b")
    with pytest.raises(ValueError):
        from_networkx(g)


def test_empty_graph():
    g = empty_graph(7)
    assert g.num_vertices == 7
    assert g.num_edges == 0


def test_remove_isolated_vertices():
    g = from_edges(np.array([[0, 3], [3, 5]]), num_vertices=8)
    cleaned, old_ids = remove_isolated_vertices(g)
    assert cleaned.num_vertices == 3
    assert cleaned.num_edges == 2
    assert old_ids.tolist() == [0, 3, 5]


def test_remove_isolated_noop_when_none():
    g = ring(5)
    cleaned, old_ids = remove_isolated_vertices(g)
    assert cleaned.num_vertices == 5
    assert old_ids.tolist() == list(range(5))


def test_relabel_preserves_structure():
    g = complete_graph(5)
    perm = np.array([4, 3, 2, 1, 0])
    h = relabel(g, perm)
    assert h.num_edges == g.num_edges
    # K5 is invariant under relabeling.
    assert np.array_equal(h.xadj, g.xadj)


def test_relabel_rejects_non_permutation():
    g = ring(4)
    with pytest.raises(ValueError):
        relabel(g, np.array([0, 0, 1, 2]))
    with pytest.raises(ValueError):
        relabel(g, np.array([0, 1, 2]))


def test_induced_subgraph():
    g = complete_graph(6)
    sub, ids = induced_subgraph(g, np.array([1, 3, 5]))
    assert ids.tolist() == [1, 3, 5]
    assert sub.num_vertices == 3
    assert sub.num_edges == 3  # triangle


def test_induced_subgraph_out_of_range():
    with pytest.raises(ValueError):
        induced_subgraph(ring(4), np.array([9]))


@pytest.mark.parametrize(
    "values",
    [
        np.empty(0, dtype=np.int64),
        np.array([7]),
        np.array([3, 1, 3, 3, 0, 1]),
        np.arange(12, dtype=np.int32).reshape(3, 4) % 5,
        np.random.default_rng(0).integers(-50, 50, size=1000),
        np.array([0.5, -1.0, 0.5, 2.0]),
    ],
)
def test_sorted_unique_equals_np_unique(values):
    got = sorted_unique(values)
    want = np.unique(values)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_unique_of_sorted_drops_repeats():
    assert unique_of_sorted(np.array([0, 0, 2, 5, 5, 5, 9])).tolist() == [0, 2, 5, 9]
    assert unique_of_sorted(np.empty(0, dtype=np.int64)).size == 0


@pytest.mark.parametrize("build", [canonical_edges, from_edges])
def test_negative_endpoint_rejected_with_its_edge(build):
    with pytest.raises(ValueError, match=r"negative vertex id in edge 2 \(4, -2\)"):
        build(np.array([[0, 1], [1, 2], [4, -2], [-7, 0]]))


@pytest.mark.parametrize("build", [canonical_edges, from_edges])
def test_negative_self_loop_rejected(build):
    with pytest.raises(ValueError, match="negative vertex id"):
        build(np.array([[-1, -1]]))


@pytest.mark.parametrize("build", [canonical_edges, from_edges])
def test_id_too_large_for_edge_key_rejected(build):
    with pytest.raises(ValueError, match="vertex id 3037000499 is too large"):
        build(np.array([[0, MAX_KEYED_VERTICES]]))


def test_largest_keyable_id_is_accepted():
    big = MAX_KEYED_VERTICES - 1
    canon = canonical_edges(np.array([[big, 0], [big - 1, big], [0, big]]))
    assert canon.tolist() == [[0, big], [big - 1, big]]


def test_src_has_no_np_unique_outside_sorted_unique():
    """NumPy's ``np.unique`` takes a slow hash path on integer ids; every
    deduplication in the package goes through ``sorted_unique``."""
    src = Path(repro.__file__).parent
    offenders = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
            ):
                offenders.append(f"{path.relative_to(src)}:{node.lineno}")
    assert offenders == []
