"""Tests for ghost-degree exchange and distributed orientation."""

import numpy as np
import pytest

from repro.core import components, kcore, preprocessing
from repro.core.orientation import orient_by_degree
from repro.core.preprocessing import build_oriented, exchange_ghost_degrees
from repro.graphs import distribute
from repro.graphs import generators as gen
from repro.net import Machine


def _exchange_prog(ctx, dist, mode):
    lg = dist.view(ctx.rank)
    degs = yield from exchange_ghost_degrees(ctx, lg, mode=mode)
    return degs


@pytest.mark.parametrize("mode", ["dense", "sparse"])
@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_ghost_degrees_correct(mode, p, random_graph):
    g = random_graph
    dist = distribute(g, num_pes=p)
    res = Machine(p).run(_exchange_prog, dist, mode)
    for rank, degs in enumerate(res.values):
        lg = dist.view(rank)
        expected = g.degrees[lg.ghost_vertices]
        assert np.array_equal(degs, expected), (rank, mode)
        assert lg.ghost_degrees is degs


def _reference_send_lists(lg):
    """The send lists as a lexicographic 2-D unique over (rank, v) pairs."""
    cut = lg.cut_edges()
    lists = {}
    if cut.size:
        tgt_ranks = lg.partition.rank_of(cut[:, 1])
        pairs = np.unique(np.column_stack([tgt_ranks, cut[:, 0]]), axis=0)
        for rank in np.unique(pairs[:, 0]):
            lists[int(rank)] = pairs[pairs[:, 0] == rank, 1]
    return lists


def _reference_plan(ctx, lg):
    """The 2-D unique send lists, charged one operation per cut arc."""
    ctx.charge(lg.cut_edges().shape[0])
    return list(_reference_send_lists(lg).items())


def _degrees_of(lg, ids):
    return lg.xadj[ids - lg.vlo + 1] - lg.xadj[ids - lg.vlo]


SEND_LIST_GRAPHS = {
    "rmat": lambda: gen.rmat(7, 8, seed=3),
    "gnm": lambda: gen.gnm(90, 500, seed=5),
    "star": lambda: gen.star(40),
}

#: mode -> (module whose ``ghost_send_lists`` is replaced by the
#: reference, program arguments, values sent along the ids in the first
#: exchange).  Every mode reaches the collectives through
#: ``preprocessing``'s halo exchange, so that is where they are spied.
#: k-core sends its initial estimates (the degrees), components its
#: initial labels (the ids).
SEND_LIST_SITES = {
    "dense": (preprocessing, (_exchange_prog, "dense"), _degrees_of),
    "sparse": (preprocessing, (_exchange_prog, "sparse"), _degrees_of),
    "kcore": (kcore, (kcore.kcore_program,), _degrees_of),
    "components": (components, (components.components_program,), lambda lg, ids: ids),
}


@pytest.mark.parametrize("mode", ["dense", "sparse", "kcore", "components"])
@pytest.mark.parametrize("p", [1, 3, 16, "n+3"])
@pytest.mark.parametrize("graph", sorted(SEND_LIST_GRAPHS))
def test_send_lists_match_unique_reference(graph, p, mode, monkeypatch):
    """Per-rank payloads of the first exchange equal the 2-D unique
    formulation: same ranks in the same order, same ids/value arrays and
    dtypes, same words; and the run's simulated metrics (time, ops,
    messages, words) equal a run on the 2-D unique send lists."""
    g = SEND_LIST_GRAPHS[graph]()
    if p == "n+3":  # more PEs than vertices: some PEs own nothing
        p = g.num_vertices + 3
    dist = distribute(g, num_pes=p)
    module, (program, *args), values_of = SEND_LIST_SITES[mode]
    with monkeypatch.context() as m:
        m.setattr(module, "ghost_send_lists", _reference_plan)
        expected = Machine(p).run(program, dist, *args).metrics.summary()
    sent = {}

    def spy(original, to_dict):
        def wrapper(ctx, payloads, **kwargs):
            sent.setdefault(ctx.rank, to_dict(payloads))
            return (yield from original(ctx, payloads, **kwargs))

        return wrapper

    monkeypatch.setattr(preprocessing, "alltoallv_dense", spy(preprocessing.alltoallv_dense, dict))
    monkeypatch.setattr(
        preprocessing,
        "sparse_alltoall",
        spy(preprocessing.sparse_alltoall, lambda triples: {d: (pl, w) for d, pl, w in triples}),
    )
    res = Machine(p).run(program, dist, *args)
    assert res.metrics.summary() == expected
    assert sorted(sent) == list(range(p))
    for rank, out in enumerate(res.values):
        lg = dist.view(rank)
        ref = _reference_send_lists(lg)
        got = sent[rank]
        assert list(got) == list(ref), rank
        for dest, ids in ref.items():
            (got_ids, got_vals), got_words = got[dest]
            assert got_words == 2 * ids.size
            for a, b in ((got_ids, ids), (got_vals, values_of(lg, ids))):
                assert a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()
        if program is _exchange_prog:
            assert np.array_equal(lg.ghost_degrees, g.degrees[lg.ghost_vertices])
            assert lg.ghost_degrees is out


def test_exchange_rejects_bad_mode():
    g = gen.ring(6)
    dist = distribute(g, num_pes=2)
    with pytest.raises(ValueError):
        Machine(2).run(_exchange_prog, dist, "bogus")


def test_sparse_cheaper_than_dense_on_local_graph():
    """Few communication partners: sparse avoids the p-1 message tax."""
    g = gen.grid2d(16, 16)
    p = 8
    dist = distribute(g, num_pes=p)
    dense = Machine(p).run(_exchange_prog, dist, "dense")
    sparse = Machine(p).run(_exchange_prog, dist, "sparse")
    assert sparse.metrics.total_messages < dense.metrics.total_messages


def _orient_prog(ctx, dist, with_ghosts):
    lg = dist.view(ctx.rank)
    yield from exchange_ghost_degrees(ctx, lg)
    og = build_oriented(ctx, lg, with_ghosts=with_ghosts)
    return og


@pytest.mark.parametrize("p", [1, 2, 4])
def test_distributed_orientation_matches_sequential(p, random_graph):
    g = random_graph
    seq = orient_by_degree(g)
    dist = distribute(g, num_pes=p)
    res = Machine(p).run(_orient_prog, dist, False)
    for rank, og in enumerate(res.values):
        lg = dist.view(rank)
        for v in lg.owned_vertices():
            assert og.out_neighborhood(int(v)).tolist() == seq.neighbors(int(v)).tolist()


def test_out_neighborhood_rejects_vertices_not_owned():
    g = gen.gnm(60, 300, seed=2)
    dist = distribute(g, num_pes=5)
    og = Machine(5).run(_orient_prog, dist, False).values[1]  # owns 12..23
    for v in (10, 11, 24, -1):
        with pytest.raises(KeyError):
            og.out_neighborhood(v)


def test_orientation_requires_ghost_degrees():
    g = gen.ring(8)
    dist = distribute(g, num_pes=2)

    def prog(ctx):
        lg = dist.view(ctx.rank)
        with pytest.raises(RuntimeError):
            build_oriented(ctx, lg)
        return None
        yield  # pragma: no cover

    Machine(2).run(prog)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ghost_out_neighborhoods_restricted_and_oriented(p, random_graph):
    g = random_graph
    seq = orient_by_degree(g)
    dist = distribute(g, num_pes=p)
    res = Machine(p).run(_orient_prog, dist, True)
    for rank, og in enumerate(res.values):
        lg = dist.view(rank)
        for slot, ghost in enumerate(lg.ghost_vertices):
            got = og.ghost_out_neighborhood(slot)
            expected = [
                u for u in seq.neighbors(int(ghost)) if lg.vlo <= u < lg.vhi
            ]
            assert got.tolist() == expected


def test_ghost_neighborhood_access_requires_flag():
    g = gen.ring(8)
    dist = distribute(g, num_pes=2)
    res = Machine(2).run(_orient_prog, dist, False)
    with pytest.raises(RuntimeError):
        res.values[0].ghost_out_neighborhood(0)


def test_contracted_drops_exactly_local_arcs(random_graph):
    p = 4
    g = random_graph
    dist = distribute(g, num_pes=p)
    res = Machine(p).run(_orient_prog, dist, True)
    for rank, og in enumerate(res.values):
        lg = dist.view(rank)
        cxadj, cadj = og.contracted()
        assert np.all(~lg.is_owned(cadj))  # only cut arcs remain
        # Counts add up: oriented = contracted + local arcs.
        local_arcs = int(np.count_nonzero(lg.is_owned(og.oadjncy)))
        assert cadj.size == og.oadjncy.size - local_arcs


def test_order_keys_of_matches_degree_order(random_graph):
    p = 3
    g = random_graph
    dist = distribute(g, num_pes=p)
    res = Machine(p).run(_orient_prog, dist, False)
    n = g.num_vertices
    global_keys = g.degrees.astype(np.int64) * (n + 1) + np.arange(n)
    for rank, og in enumerate(res.values):
        lg = dist.view(rank)
        slots = np.arange(lg.ids.size)
        assert np.array_equal(og.order_keys_of(slots), global_keys[lg.ids])


def test_out_degrees_property(random_graph):
    dist = distribute(random_graph, num_pes=2)
    res = Machine(2).run(_orient_prog, dist, False)
    for og in res.values:
        assert np.array_equal(og.out_degrees(), np.diff(og.oxadj))
