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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from ..graphs.builders import sorted_unique
from ..graphs.csr import CSRGraph
from ..graphs.distributed import DistGraph
from ..net.aggregation import BufferedMessageQueue
from ..net.comm import allreduce, alltoallv_dense
from ..net.indirect import GridRouter
from ..net.machine import PEContext
from .edge_iterator import edge_iterator_per_vertex
from .engine import EngineConfig, _post_cut_neighborhoods, _surrogate_filter
from .kernels import csr_pairs_elements, record_pairs_elements
from .preprocessing import OrientedLocalGraph, build_oriented, exchange_ghost_degrees

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

    #: Exact Δ(v) for this PE's owned vertices (aligned with the slot).
    delta: np.ndarray
    #: LCC of owned vertices.
    lcc: np.ndarray
    #: Global triangle total (byproduct check: ``sum Δ / 3``).
    triangles_total: int


def _triangles_elements_local(
    ctx: PEContext, og: OrientedLocalGraph, *, expanded: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local-phase triangles as corner triples (a, b, closing).

    Mirrors :func:`repro.core.engine._local_phase_pairs` but keeps the
    identity of every triangle for Δ accumulation.
    """
    lg = og.lg
    vlo = lg.vlo
    bound = og.num_vertices + 1
    nloc = lg.num_local_vertices
    src_slots = np.repeat(np.arange(nloc, dtype=np.int64), np.diff(og.oxadj))
    dst = og.oadjncy
    dst_local = lg.is_local(dst)
    ghosts = lg.ghost_vertices

    # (left_xadj, left_adj, left_slots, right_xadj, right_adj, right_slots),
    # then the two known corners of each pair's triangles.
    groups = [
        (og.oxadj, og.oadjncy, src_slots[dst_local], og.oxadj, og.oadjncy, dst[dst_local] - vlo)
    ]
    corners = [(src_slots[dst_local] + vlo, dst[dst_local])]
    if expanded:
        g_src = src_slots[~dst_local]
        g_dst = dst[~dst_local]
        if g_src.size:
            g_slots = np.searchsorted(ghosts, g_dst)
            groups.append((og.oxadj, og.oadjncy, g_src, og.goxadj, og.goadjncy, g_slots))
            corners.append((g_src + vlo, g_dst))
        if ghosts.size:
            gh_src = np.repeat(np.arange(ghosts.size, dtype=np.int64), np.diff(og.goxadj))
            gh_dst = og.goadjncy
            groups.append(
                (og.goxadj, og.goadjncy, gh_src, og.oxadj, og.oadjncy, gh_dst - vlo)
            )
            corners.append((ghosts[gh_src], gh_dst))

    a_out, b_out, c_out = [], [], []
    for pairs, (a, b) in zip(groups, corners):
        counts, closing = csr_pairs_elements(ctx, *pairs, bound)
        # closing is in (pair, element) order, so repeating each pair's
        # corners by its count lines them up with its closing vertices.
        a_out.append(np.repeat(a, counts))
        b_out.append(np.repeat(b, counts))
        c_out.append(closing)
    return np.concatenate(a_out), np.concatenate(b_out), np.concatenate(c_out)


def lcc_program(
    ctx: PEContext,
    dist: DistGraph,
    config: EngineConfig = EngineConfig(contraction=True),
) -> Generator[None, None, PELcc]:
    """Distributed exact LCC (CETRIC- or DITRIC-flavoured by config).

    Returns per-PE Δ and LCC arrays for the owned vertices; all PEs
    additionally learn the global triangle total (consistency check).
    """
    lg = dist.view(ctx.rank)
    vlo, vhi = lg.vlo, lg.vhi
    bound = dist.num_vertices + 1
    ghosts = lg.ghost_vertices

    with ctx.span("preprocessing"):
        yield from exchange_ghost_degrees(ctx, lg, mode=config.degree_exchange)
        og = build_oriented(ctx, lg, with_ghosts=config.contraction)

    delta_local = np.zeros(lg.num_local_vertices, dtype=np.int64)
    delta_ghost = np.zeros(ghosts.size, dtype=np.int64)

    def credit(vertices: np.ndarray) -> None:
        """Add one triangle credit to each listed corner (owned or ghost)."""
        owned = (vertices >= vlo) & (vertices < vhi)
        np.add.at(delta_local, vertices[owned] - vlo, 1)
        if ghosts.size and not np.all(owned):
            slots = np.searchsorted(ghosts, vertices[~owned])
            np.add.at(delta_ghost, slots, 1)
        ctx.charge(vertices.size)

    with ctx.span("local"):
        a, b, c = _triangles_elements_local(ctx, og, expanded=config.contraction)
        for corners in (a, b, c):
            credit(corners)
        yield

    if config.contraction:
        with ctx.span("contraction"):
            send_xadj, send_adj = og.contracted()
            ctx.charge(og.oadjncy.size)
    else:
        send_xadj, send_adj = og.oxadj, og.oadjncy

    with ctx.span("global"):
        threshold = config.threshold_words(lg.num_local_arcs)
        router = (
            GridRouter(ctx, "lcc-nbh", threshold)
            if config.indirect
            else BufferedMessageQueue(ctx, "lcc-nbh", threshold)
        )
        nloc = lg.num_local_vertices
        s_src = np.repeat(np.arange(nloc, dtype=np.int64), np.diff(send_xadj))
        cut_mask = ~lg.is_local(send_adj)
        c_src = s_src[cut_mask]
        c_dst = send_adj[cut_mask]
        dst_ranks = lg.partition.rank_of(c_dst) if c_dst.size else c_dst
        sends = _surrogate_filter(c_src, dst_ranks, enabled=config.surrogate)
        ctx.charge(c_src.size)
        _post_cut_neighborhoods(
            router, send_xadj, send_adj, c_src, c_dst, dst_ranks, sends, vlo,
            targeted=False,
        )
        records = yield from router.finalize()
        rv, ru, rw = record_pairs_elements(
            ctx,
            records,
            send_xadj if config.contraction else og.oxadj,
            send_adj if config.contraction else og.oadjncy,
            vlo,
            vhi,
            bound,
        )
        for corners in (rv, ru, rw):
            credit(corners)
        yield

    with ctx.span("delta-exchange"):
        # Push ghost-Δ values back to their owners (Section IV-E).
        payloads: dict[int, tuple[tuple[np.ndarray, np.ndarray], int]] = {}
        if ghosts.size:
            nz = delta_ghost > 0
            gids = ghosts[nz]
            gvals = delta_ghost[nz]
            owner = lg.partition.rank_of(gids) if gids.size else gids
            for rank in sorted_unique(owner):
                sel = owner == rank
                payloads[int(rank)] = ((gids[sel], gvals[sel]), 2 * int(sel.sum()))
        msgs = yield from alltoallv_dense(ctx, payloads, tag_label="delta-xchg")
        for msg in msgs:
            if msg.payload is None:
                continue
            ids, vals = msg.payload
            np.add.at(delta_local, ids - vlo, vals)
            ctx.charge(ids.size)

    my_sum = int(delta_local.sum())
    grand = yield from allreduce(ctx, my_sum, lambda x, y: x + y)
    lcc = lcc_from_delta(delta_local, lg.degrees)
    return PELcc(delta=delta_local, lcc=lcc, triangles_total=int(grand) // 3)
