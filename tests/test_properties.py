"""Property-based tests (hypothesis) for core invariants.

Strategy: random edge lists → every algorithm agrees with the oracle;
plus structural invariants the paper's correctness argument rests on
(orientation acyclicity, Lemma 1, surrogate completeness, router
delivery, partition laws).
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from post_utils import post_record

from repro.core.backends import resolve_backend
from repro.core.edge_iterator import edge_iterator, matrix_count
from repro.core.engine import EngineConfig, counting_program
from repro.core.intersect import batch_intersect_count, concat_xadj, intersect_count
from repro.core.lcc import lcc_program, lcc_sequential
from repro.core.native import native_available
from repro.core.orientation import orient_by_degree
from repro.graphs import distribute, from_edges, partition_by_vertices
from repro.net import Machine

SETTINGS = dict(max_examples=40, deadline=None)

#: Loadable backends with an in-place ``csr_pairs`` kernel.
_IN_PLACE_BACKENDS = ["numpy"] + (["native"] if native_available() else [])


@st.composite
def edge_lists(draw, max_n=24, max_m=60):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=0, max_value=max_m))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=k,
            max_size=k,
        )
    )
    return n, np.array(edges, dtype=np.int64).reshape(-1, 2)


@st.composite
def graphs(draw):
    n, edges = draw(edge_lists())
    return from_edges(edges, num_vertices=n)


# ---------------------------------------------------------------- oracles
@settings(**SETTINGS)
@given(graphs())
def test_oracles_agree(g):
    assert edge_iterator(g).triangles == matrix_count(g)


@settings(**SETTINGS)
@given(graphs())
def test_triangles_invariant_under_relabeling(g):
    from repro.graphs import relabel

    rng = np.random.default_rng(7)
    perm = rng.permutation(g.num_vertices)
    assert edge_iterator(g).triangles == edge_iterator(relabel(g, perm)).triangles


@settings(**SETTINGS)
@given(graphs())
def test_orientation_partitions_edges(g):
    og = orient_by_degree(g)
    assert og.num_arcs == g.num_edges
    # every oriented arc is an edge of g
    for u, v in og.edges()[:50]:
        assert g.has_edge(int(u), int(v))


@settings(**SETTINGS)
@given(graphs(), st.integers(min_value=1, max_value=6))
def test_distributed_variants_match_oracle(g, p):
    truth = matrix_count(g)
    dist = distribute(g, num_pes=p)
    for cfg in (
        EngineConfig(),
        EngineConfig(contraction=True),
        EngineConfig(indirect=True, contraction=True),
        EngineConfig(aggregate=False, surrogate=False),
    ):
        res = Machine(p).run(counting_program, dist, cfg)
        assert res.values[0].triangles_total == truth


@settings(**SETTINGS)
@given(graphs(), st.integers(min_value=1, max_value=5))
def test_lemma1_cut_graph_counts_type3(g, p):
    """Lemma 1: triangles of the cut graph == type-3 triangles of G."""
    part = partition_by_vertices(g.num_vertices, p)
    e = g.undirected_edges()
    if e.size == 0:
        return
    ranks = part.rank_of(e.ravel()).reshape(-1, 2)
    cut_edges = e[ranks[:, 0] != ranks[:, 1]]
    cut_graph = from_edges(cut_edges, num_vertices=g.num_vertices)
    cut_triangles = edge_iterator(cut_graph).triangles
    # Count type-3 triangles directly from the enumeration.
    from repro.core.edge_iterator import triangle_edges

    tri = triangle_edges(g)
    if tri.size:
        tri_ranks = part.rank_of(tri.ravel()).reshape(-1, 3)
        type3 = int(
            np.count_nonzero(
                (tri_ranks[:, 0] != tri_ranks[:, 1])
                & (tri_ranks[:, 1] != tri_ranks[:, 2])
                & (tri_ranks[:, 0] != tri_ranks[:, 2])
            )
        )
    else:
        type3 = 0
    assert cut_triangles == type3


@settings(**SETTINGS)
@given(graphs(), st.integers(min_value=1, max_value=5))
def test_lcc_distributed_matches_sequential(g, p):
    expected = lcc_sequential(g)
    dist = distribute(g, num_pes=p)
    res = Machine(p).run(lcc_program, dist, EngineConfig(contraction=True))
    got = np.concatenate([v.lcc for v in res.values])
    assert np.allclose(got, expected)


@settings(**SETTINGS)
@given(graphs())
def test_lcc_bounds(g):
    lcc = lcc_sequential(g)
    assert np.all((lcc >= 0.0) & (lcc <= 1.0))


# ---------------------------------------------------------------- kernels
@settings(**SETTINGS)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 40), max_size=12),
            st.lists(st.integers(0, 40), max_size=12),
        ),
        max_size=12,
    )
)
def test_batch_intersection_matches_set_semantics(pairs):
    a_blocks = [np.unique(np.array(a, dtype=np.int64)) for a, _ in pairs]
    b_blocks = [np.unique(np.array(b, dtype=np.int64)) for _, b in pairs]
    a_cat = np.concatenate(a_blocks) if a_blocks else np.empty(0, dtype=np.int64)
    b_cat = np.concatenate(b_blocks) if b_blocks else np.empty(0, dtype=np.int64)
    a_x = concat_xadj(np.array([x.size for x in a_blocks], dtype=np.int64))
    b_x = concat_xadj(np.array([x.size for x in b_blocks], dtype=np.int64))
    res = batch_intersect_count(a_cat, a_x, b_cat, b_x, 41)
    common = [sorted(set(a.tolist()) & set(b.tolist())) for a, b in zip(a_blocks, b_blocks)]
    expected = [len(c) for c in common]
    assert res.counts.tolist() == expected
    # The same pairs read in place, with the B blocks named in reverse.
    ids = np.arange(len(pairs), dtype=np.int64)
    rev_x = concat_xadj(np.array([x.size for x in b_blocks[::-1]], dtype=np.int64))
    rev_cat = np.concatenate(b_blocks[::-1]) if b_blocks else b_cat
    hits = [(i, w) for i, c in enumerate(common) for w in c]
    for name in _IN_PLACE_BACKENDS:
        csr_pairs = resolve_backend(name).csr_pairs
        args = (a_x, a_cat, ids, rev_x, rev_cat, ids[::-1], 41)
        assert csr_pairs(*args).tolist() == expected, name
        counts, pair_idx, elements = csr_pairs(*args, elements=True)
        assert counts.tolist() == expected, name
        assert list(zip(pair_idx.tolist(), elements.tolist())) == hits, name


@settings(**SETTINGS)
@given(
    st.lists(st.integers(0, 100), max_size=30),
    st.lists(st.integers(0, 100), max_size=30),
)
def test_scalar_intersection_matches_sets(a, b):
    ua = np.unique(np.array(a, dtype=np.int64))
    ub = np.unique(np.array(b, dtype=np.int64))
    assert intersect_count(ua, ub) == len(set(ua.tolist()) & set(ub.tolist()))


# ---------------------------------------------------------------- partitions
@settings(**SETTINGS)
@given(st.integers(0, 200), st.integers(1, 16))
def test_partition_covers_and_ordered(n, p):
    part = partition_by_vertices(n, p)
    sizes = [part.owned_count(i) for i in range(p)]
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    if n:
        ranks = part.rank_of(np.arange(n))
        assert np.all(np.diff(ranks) >= 0)


@settings(**SETTINGS)
@given(graphs(), st.integers(1, 6))
def test_ghosts_are_exactly_remote_neighbors(g, p):
    dist = distribute(g, num_pes=p)
    for view in dist.views:
        expected = set()
        for v in view.owned_vertices():
            for u in g.neighbors(int(v)):
                if not (view.vlo <= u < view.vhi):
                    expected.add(int(u))
        assert set(view.ghost_vertices.tolist()) == expected


# ---------------------------------------------------------------- routing
@settings(**SETTINGS)
@given(st.integers(1, 30))
def test_grid_proxy_valid_for_all_pairs(p):
    from repro.net import Grid

    g = Grid.of(p)
    for s in range(p):
        for d in range(p):
            assert 0 <= g.proxy(s, d) < p


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 12), st.data())
def test_grid_router_delivery_random_traffic(p, data):
    from repro.net import GridRouter

    traffic = data.draw(
        st.lists(
            st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)),
            max_size=20,
        )
    )

    def prog(ctx):
        r = GridRouter(ctx, "t", threshold_words=32)
        for src, dest in traffic:
            if src == ctx.rank:
                post_record(r, dest, src * 1000 + dest, [])
        recs = yield from r.finalize()
        return sorted(recs.vertices.tolist())

    res = Machine(p).run(prog)
    for rank in range(p):
        expected = sorted(s * 1000 + d for s, d in traffic if d == rank)
        assert res.values[rank] == expected


# ---------------------------------------------------------------- bloom
@settings(**SETTINGS)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=200), st.integers(0, 100))
def test_bloom_never_false_negative(keys, seed):
    from repro.amq import BloomFilter

    arr = np.unique(np.array(keys, dtype=np.int64))
    f = BloomFilter.for_elements(arr.size, bits_per_element=6, seed=seed)
    f.add(arr)
    assert np.all(f.query(arr))


@settings(**SETTINGS)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=200), st.integers(0, 100))
def test_ssbf_never_false_negative(keys, seed):
    from repro.amq import SingleShotBloomFilter

    arr = np.unique(np.array(keys, dtype=np.int64))
    f = SingleShotBloomFilter.for_elements(arr.size, cells_per_element=8, seed=seed)
    f.add(arr)
    assert np.all(f.query(arr))


# ------------------------------------------------- other analytics
@settings(max_examples=25, deadline=None)
@given(graphs(), st.integers(min_value=1, max_value=5))
def test_distributed_kcore_property(g, p):
    from repro.core.kcore import kcore_program
    from repro.graphs.stats import core_numbers

    dist = distribute(g, num_pes=p)
    res = Machine(p).run(kcore_program, dist)
    got = np.concatenate([v.cores for v in res.values])
    assert np.array_equal(got, core_numbers(g))


@settings(max_examples=25, deadline=None)
@given(graphs(), st.integers(min_value=1, max_value=5))
def test_distributed_components_property(g, p):
    from repro.core.components import components_program
    from repro.graphs.stats import connected_components

    count, labels = connected_components(g)
    dist = distribute(g, num_pes=p)
    res = Machine(p).run(components_program, dist)
    got = np.concatenate([v.labels for v in res.values])
    assert res.values[0].num_components == count
    # Two vertices share a scipy component iff they share a label.
    for comp in range(count):
        members = np.flatnonzero(labels == comp)
        assert np.unique(got[members]).size == 1


@settings(max_examples=25, deadline=None)
@given(graphs())
def test_degeneracy_orientation_property(g):
    from repro.core.orientation import orient
    from repro.graphs.stats import degeneracy, degeneracy_order

    og = orient(g, degeneracy_order(g))
    assert og.max_degree() <= max(degeneracy(g), 0)
    assert edge_iterator(og).triangles == edge_iterator(g).triangles
