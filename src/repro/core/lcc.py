"""Local clustering coefficients, sequential and distributed (Section IV-E).

The paper's extension: every triangle ``{v, u, w}`` is found from
exactly one incident vertex, so per-vertex triangle counts ``Δ(v)``
can be maintained by crediting all three corners at the finding PE.
In the distributed case a corner may be a *ghost* of the finding PE
(both the record vertex and the closing vertex of a global-phase
triangle are ghosts of the receiver), so each PE also keeps Δ for its
ghosts and a postprocessing all-to-all pushes ghost-Δ values back to
the owners — "analogous to the initial degree exchange".

``LCC(v) = 2 Δ(v) / (d_v (d_v - 1))`` (the fraction of closed wedges
at ``v``; networkx's convention).  Vertices of degree < 2 get 0.

:func:`lcc_program` is the counting traversal of
:mod:`repro.core.engine` (its ``_triangle_phases`` skeleton) with a
consumer that credits corners; the Δ bookkeeping and push-back
(:class:`_GhostDelta`) are shared with the approximate LCC of
:mod:`repro.core.approx`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.distributed import DistGraph
from ..net.comm import allreduce, alltoallv_dense
from ..net.machine import PEContext
from .edge_iterator import edge_iterator_per_vertex
from .engine import CONFIGS, EngineConfig, _triangle_phases

__all__ = ["lcc_from_delta", "lcc_sequential", "lcc_program", "PELcc"]


def lcc_from_delta(delta: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """``2 Δ / (d (d - 1))`` with 0 for degree < 2 vertices."""
    delta = np.asarray(delta, dtype=np.float64)
    degrees = np.asarray(degrees, dtype=np.float64)
    denom = degrees * (degrees - 1.0)
    out = np.zeros_like(delta)
    np.divide(2.0 * delta, denom, out=out, where=denom > 0)
    return out


def lcc_sequential(graph: CSRGraph) -> np.ndarray:
    """Exact LCC of every vertex via the sequential edge iterator."""
    delta, _ = edge_iterator_per_vertex(graph)
    return lcc_from_delta(delta, graph.degrees)


@dataclass
class PELcc:
    """Per-PE outcome of the distributed LCC program."""

    #: Exact Δ(v) for this PE's owned vertices (row ``v - vlo``).
    delta: np.ndarray
    #: LCC of owned vertices.
    lcc: np.ndarray
    #: Global triangle total (byproduct check: ``sum Δ / 3``).
    triangles_total: int


class _GhostDelta:
    """Per-vertex triangle credits Δ of one PE: owned vertices and ghosts.

    A triangle found here may have ghost corners; their credits collect
    in the ghost slots until :meth:`push_back` sends them to the owners.
    """

    def __init__(self, lg, dtype) -> None:
        self.lg = lg
        #: Δ of the owned vertices and ghosts, indexed by slot.
        self.values = np.zeros(lg.ids.size, dtype=dtype)
        #: Δ of the owned vertices (a view of :attr:`values`).
        self.local = self.values[lg.owned_slots]

    def credit(self, ctx: PEContext, slots: np.ndarray, weight=1) -> None:
        """Add ``weight`` (a scalar or one per corner) to each listed
        corner slot, owned or ghost."""
        np.add.at(self.values, slots, weight)
        ctx.charge(slots.size)

    def push_back(self, ctx: PEContext, tag_label: str) -> Generator[None, None, None]:
        """Send every nonzero ghost Δ to its owner and add what arrives
        (collective; Section IV-E's postprocessing all-to-all)."""
        lg = self.lg
        with ctx.span("delta-exchange"):
            ghost = lg.ghost_part(self.values)
            nz = ghost > 0
            gids, gvals = lg.ghost_vertices[nz], ghost[nz]
            # Ghosts ascend, so their owners do: one payload per run.
            owner = lg.partition.rank_of(gids)
            starts = np.flatnonzero(np.diff(owner, prepend=-1))
            payloads = {
                rank: ((ids, vals), 2 * ids.size)
                for rank, ids, vals in zip(
                    owner[starts].tolist(), np.split(gids, starts[1:]), np.split(gvals, starts[1:])
                )
            }
            msgs = yield from alltoallv_dense(ctx, payloads, tag_label=tag_label)
            for msg in msgs:
                if msg.payload is None:
                    continue
                ids, vals = msg.payload
                np.add.at(self.local, ids - lg.vlo, vals)
                ctx.charge(ids.size)


def lcc_program(
    ctx: PEContext,
    dist: DistGraph,
    config: EngineConfig = CONFIGS["cetric"],
) -> Generator[None, None, PELcc]:
    """Distributed exact LCC (CETRIC- or DITRIC-flavoured by config).

    Returns per-PE Δ and LCC arrays for the owned vertices; all PEs
    additionally learn the global triangle total (consistency check).
    """
    lg = dist.view(ctx.rank)
    delta = _GhostDelta(lg, np.int64)

    def credit_corners(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        for corners in (a, b, c):
            delta.credit(ctx, corners)

    yield from _triangle_phases(ctx, lg, config, "lcc-nbh", credit_corners)
    yield from delta.push_back(ctx, "delta-xchg")
    my_sum = int(delta.local.sum())
    grand = yield from allreduce(ctx, my_sum, lambda x, y: x + y)
    lcc = lcc_from_delta(delta.local, lg.degrees)
    return PELcc(delta=delta.local, lcc=lcc, triangles_total=int(grand) // 3)
