"""Tests for per-PE local views: ghosts, interface, cut edges, expansion."""

import numpy as np
import pytest

from repro.graphs import distribute, from_edges, partition_by_vertices
from repro.graphs.distributed import LocalGraph
from repro.graphs.generators import disjoint_cliques, gnm, grid2d, rgg2d, ring, rmat


def test_distribute_partitions_all_vertices():
    g = ring(10)
    dist = distribute(g, num_pes=3)
    assert dist.num_pes == 3
    assert sum(v.num_local_vertices for v in dist.views) == 10
    assert sum(v.num_local_arcs for v in dist.views) == g.num_arcs


def test_distribute_requires_exactly_one_spec():
    g = ring(6)
    with pytest.raises(ValueError):
        distribute(g)
    with pytest.raises(ValueError):
        distribute(g, num_pes=2, partition=partition_by_vertices(6, 2))


def test_distribute_rejects_oriented():
    from repro.core.orientation import orient_by_degree

    with pytest.raises(ValueError):
        distribute(orient_by_degree(ring(6)), num_pes=2)


def test_ring_ghosts_and_cut():
    g = ring(12)
    dist = distribute(g, num_pes=4)  # blocks of 3
    v0 = dist.view(0)  # owns 0,1,2; neighbors 11 and 3 are ghosts
    assert v0.ghost_vertices.tolist() == [3, 11]
    assert sorted(v0.interface_vertices().tolist()) == [0, 2]
    assert v0.num_cut_edges == 2
    assert dist.total_cut_edges() == 4


def test_neighbors_accessor():
    g = ring(9)
    dist = distribute(g, num_pes=3)
    v1 = dist.view(1)  # owns 3,4,5
    assert v1.neighbors(4).tolist() == [3, 5]
    with pytest.raises(KeyError):
        v1.neighbors(0)


def test_degree_of_matches_global():
    g = gnm(60, 300, seed=2)
    dist = distribute(g, num_pes=5)
    for view in dist.views:
        for v in view.owned_vertices():
            assert view.degree_of(int(v)) == g.degree(int(v))


def test_degree_of_rejects_vertices_not_owned():
    g = gnm(60, 300, seed=2)
    v1 = distribute(g, num_pes=5).view(1)  # owns 12..23
    for v in (10, 11, 24, -1):
        with pytest.raises(KeyError):
            v1.degree_of(v)


def test_cut_edges_mirrored_across_pes():
    g = gnm(50, 250, seed=3)
    dist = distribute(g, num_pes=4)
    seen = set()
    for view in dist.views:
        for v, u in view.cut_edges():
            seen.add((int(v), int(u)))
    # every cut arc's mirror is present
    assert all((u, v) in seen for v, u in seen)


def test_disjoint_cliques_have_empty_cut():
    g = disjoint_cliques(4, 5)  # contiguous ids per clique
    dist = distribute(g, num_pes=4)
    assert dist.total_cut_edges() == 0
    assert dist.max_ghosts() == 0


def test_slots_of_lookup():
    g = ring(8)
    dist = distribute(g, num_pes=4)
    v1 = dist.view(1)  # owns 2, 3; ghosts 1 (PE0) and 4 (PE2)
    assert v1.ids.tolist() == [1, 2, 3, 4]  # sorted(owned ∪ ghosts)
    assert v1.owned_slots == slice(1, 3)
    assert v1.slots_of(v1.owned_vertices()).tolist() == [1, 2]
    assert v1.slots_of(v1.ghost_vertices).tolist() == [0, 3]
    assert v1.slots_of([4, 2, 1]).tolist() == [3, 1, 0]
    assert v1.slots_of(np.empty(0, dtype=np.int64)).size == 0
    for unknown in ([0], [5], [2, 7]):  # neither owned nor a ghost
        with pytest.raises(KeyError):
            v1.slots_of(np.array(unknown))
    lonely = LocalGraph(rank=0, partition=dist.partition, xadj=[0, 0, 0], adjncy=[])
    with pytest.raises(KeyError):  # no ghosts at all
        lonely.slots_of([3])


def test_ghost_ranks_and_neighbor_pes():
    g = ring(12)
    dist = distribute(g, num_pes=4)
    v1 = dist.view(1)  # owns 3,4,5; ghosts 2 (PE0) and 6 (PE2)
    assert v1.ghost_ranks().tolist() == [0, 2]
    assert v1.neighbor_pes().tolist() == [0, 2]


def test_ghost_local_neighborhoods_invert_cut_edges():
    g = from_edges(np.array([[0, 4], [1, 4], [2, 5], [0, 1]]), num_vertices=6)
    dist = distribute(g, num_pes=2)  # PE0 owns 0..2, PE1 owns 3..5
    v0 = dist.view(0)
    gxadj, gadj = v0.ghost_local_neighborhoods(v0.adj_slots())
    # ghosts of PE0: [4, 5]; N_4 ∩ V_0 = {0,1}; N_5 ∩ V_0 = {2}
    assert v0.ghost_vertices.tolist() == [4, 5]
    assert v0.ids[gadj[gxadj[0] : gxadj[1]]].tolist() == [0, 1]
    assert v0.ids[gadj[gxadj[1] : gxadj[2]]].tolist() == [2]


def test_ghost_local_neighborhoods_empty_cut():
    g = disjoint_cliques(2, 4)
    dist = distribute(g, num_pes=2)
    lg = dist.view(0)
    gxadj, gadj = lg.ghost_local_neighborhoods(lg.adj_slots())
    assert gadj.size == 0


def test_empty_pe_views():
    g = ring(4)
    dist = distribute(g, num_pes=6)  # some PEs own nothing
    assert sum(v.num_local_vertices for v in dist.views) == 4
    empty = [v for v in dist.views if v.num_local_vertices == 0]
    assert empty
    for v in empty:
        assert v.num_ghosts == 0
        assert v.cut_edges().size == 0


def test_grid_locality_small_cut():
    """Row-major grid ids: the p-way cut is O(p * side)."""
    side = 20
    g = grid2d(side, side)
    dist = distribute(g, num_pes=4)
    assert dist.total_cut_edges() <= 4 * side


def test_memory_words_accounts_arrays():
    g = ring(8)
    dist = distribute(g, num_pes=2)
    v = dist.view(0)
    assert v.memory_words() == v.xadj.size + v.adjncy.size


# The benchmark's input graphs and PE counts (rmat14 serves both the
# ditric and the cetric workload).
_BENCH_GRAPHS = {
    "rmat14-p16": (lambda: rmat(14, 16, seed=1), 16),
    "rgg15-p16": (lambda: rgg2d(2**15, expected_edges=2**19, seed=1), 16),
    "gnm14-p64": (lambda: gnm(2**14, 2**17, seed=1), 64),
}


@pytest.mark.parametrize("case", sorted(_BENCH_GRAPHS))
def test_id_bookkeeping_matches_unique_and_lexsort(case):
    """Sort-and-mask ghost/interface/neighbour-PE sets and the ghost CSR
    equal the plain ``np.unique``/``np.lexsort`` expressions."""
    make, p = _BENCH_GRAPHS[case]
    for lg in distribute(make(), num_pes=p).views:
        nonlocal_mask = ~lg.is_local(lg.adjncy)
        src = np.repeat(lg.owned_vertices(), lg.degrees)
        ghosts = np.unique(lg.adjncy[nonlocal_mask])
        assert np.array_equal(lg.ghost_vertices, ghosts)
        assert np.array_equal(lg.interface_vertices(), np.unique(src[nonlocal_mask]))
        assert np.array_equal(lg.neighbor_pes(), np.unique(lg.partition.rank_of(ghosts)))
        cut = lg.cut_edges()
        slots = np.searchsorted(ghosts, cut[:, 1])
        order = np.lexsort((cut[:, 0], slots))
        gxadj, gadjncy = lg.ghost_local_neighborhoods(lg.adj_slots())
        assert np.array_equal(lg.ids[gadjncy], cut[order, 0])
        assert np.array_equal(gxadj[1:], np.cumsum(np.bincount(slots, minlength=ghosts.size)))
