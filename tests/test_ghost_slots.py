"""The slot table of the distributed view and the one halo exchange.

A PE addresses every vertex it knows by slot, its position in
``ids = sorted(owned ∪ ghosts)``
(:class:`repro.graphs.distributed.LocalGraph`).  Owned values reach the
PEs holding them as ghosts through
:func:`repro.core.preprocessing.exchange_ghost_values` alone.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.preprocessing import exchange_ghost_values, ghost_send_lists
from repro.graphs import distribute
from repro.graphs import generators as gen
from repro.net import Machine

GRAPHS = {
    "gnm": lambda: gen.gnm(60, 240, seed=7),
    "rmat": lambda: gen.rmat(6, 5, seed=2),
    "star": lambda: gen.star(20),
    "edgeless": lambda: gen.gnm(12, 0, seed=1),
}
#: ``n+3``: more PEs than vertices, so some PEs own nothing.
PES = [1, 4, "n+3"]


def _distributed(graph, p):
    g = GRAPHS[graph]()
    if p == "n+3":
        p = g.num_vertices + 3
    return g, distribute(g, num_pes=p)


def _reference_slot(lg, v):
    known = sorted(set(lg.owned_vertices().tolist()) | set(lg.ghost_vertices.tolist()))
    return known.index(v)


@pytest.mark.parametrize("p", PES)
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_adj_slots_match_per_entry_reference(graph, p):
    _, dist = _distributed(graph, p)
    for lg in dist.views:
        slots = lg.adj_slots()
        assert slots.dtype == np.int64
        assert slots.tolist() == [_reference_slot(lg, v) for v in lg.adjncy.tolist()]
        assert np.array_equal(lg.slots_of(lg.adjncy), slots)


@pytest.mark.parametrize("p", PES)
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_slot_table_relabels_adjacency_in_order(graph, p):
    _, dist = _distributed(graph, p)
    for lg in dist.views:
        ids, slots = lg.ids, lg.adj_slots()
        assert ids[slots].tobytes() == lg.adjncy.tobytes()
        # Every block ascends, as the global neighbourhoods do.
        for s in range(lg.num_local_vertices):
            assert np.all(np.diff(slots[lg.xadj[s] : lg.xadj[s + 1]]) > 0)
        # The owned vertices fill one contiguous run of slots.
        own = lg.owned_slots
        assert np.array_equal(ids[own], lg.owned_vertices())
        assert np.array_equal(lg.is_owned(np.arange(ids.size)), np.isin(ids, lg.owned_vertices()))


@pytest.mark.parametrize("p", PES)
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_gather_over_slots_matches_owned_or_ghost_lookup(graph, p, rng):
    _, dist = _distributed(graph, p)
    for lg in dist.views:
        own = rng.integers(0, 1000, lg.num_local_vertices)
        ghost = rng.integers(0, 1000, lg.num_ghosts)
        ghost_of = dict(zip(lg.ghost_vertices.tolist(), ghost.tolist()))
        expected = [
            own[v - lg.vlo] if lg.vlo <= v < lg.vhi else ghost_of[v] for v in lg.adjncy.tolist()
        ]
        values = lg.by_slot(own, ghost)
        assert values[lg.adj_slots()].tolist() == expected
        assert np.array_equal(lg.ghost_part(values), ghost)


def _halo_prog(ctx, dist, values, mode):
    lg = dist.view(ctx.rank)
    own = values[lg.vlo : lg.vhi]
    return (
        yield from exchange_ghost_values(ctx, lg, ghost_send_lists(ctx, lg), own, "halo", mode=mode)
    )


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize("mode", ["dense", "sparse"])
@pytest.mark.parametrize("p", PES)
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_exchange_ghost_values_returns_owner_values(graph, p, mode, dtype, rng):
    g, dist = _distributed(graph, p)
    values = (rng.standard_normal(g.num_vertices) * 100).astype(dtype)
    res = Machine(dist.num_pes).run(_halo_prog, dist, values, mode)
    for lg, got in zip(dist.views, res.values):
        assert got.dtype == values.dtype
        assert np.array_equal(got, values[lg.ghost_vertices])


def _outside_distributed_view(root: Path, flagged) -> list[str]:
    """``path:line`` of every AST node ``flagged`` selects, in every module
    under ``root`` except ``graphs/distributed.py``."""
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path.relative_to(root) == Path("graphs", "distributed.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.relative_to(root)}:{n.lineno}" for n in ast.walk(tree) if flagged(n)]
    return offenders


def _is_ghost_searchsorted(node) -> bool:
    """``searchsorted`` on ``ghost_vertices`` or a name ``ghosts``:
    ``np.searchsorted(ghosts, ...)``, ``np.searchsorted(a=ghosts, ...)`` or
    ``ghosts.searchsorted(...)``."""

    def is_ghost_ids(n):
        return (isinstance(n, ast.Name) and n.id == "ghosts") or (
            isinstance(n, ast.Attribute) and n.attr == "ghost_vertices"
        )

    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "searchsorted"
    ):
        return False
    subjects = [node.func.value, *node.args[:1]]
    subjects += [kw.value for kw in node.keywords if kw.arg == "a"]
    return any(is_ghost_ids(s) for s in subjects)


def _is_concatenate_gather(node) -> bool:
    """A subscript of a ``concatenate(...)`` call: the hand-made slot
    gather ``np.concatenate((owned, ghost))[slots]``."""
    if not (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call)):
        return False
    func = node.value.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name == "concatenate"


def test_ghost_ids_are_resolved_only_by_the_distributed_view():
    """The slot table lives in one module: everything else asks
    ``LocalGraph.adj_slots``/``slots_of`` instead of searching the ghosts."""
    assert _outside_distributed_view(Path(repro.__file__).parent, _is_ghost_searchsorted) == []


def test_slot_values_are_gathered_only_by_the_distributed_view():
    """Owned and ghost values become one slot-indexed array through
    ``LocalGraph.by_slot``, never a hand-made concatenate-gather."""
    assert _outside_distributed_view(Path(repro.__file__).parent, _is_concatenate_gather) == []
