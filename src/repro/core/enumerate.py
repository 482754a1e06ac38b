"""Distributed triangle enumeration (Section IV-E).

"Since each triangle is found exactly once, this can be easily
generalized to the case of triangle enumeration."  This module does
exactly that: the CETRIC/DITRIC traversal with the element-returning
kernels, yielding on every PE the list of triangles *it discovered*.
The union over PEs is the exact triangle set, each triangle appearing
exactly once (asserted by the tests against the sequential
enumeration).

Useful when the application needs the triangles themselves (motif
analysis, support counting for truss decomposition) rather than
counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from ..graphs.distributed import DistGraph
from ..net.aggregation import BufferedMessageQueue
from ..net.comm import allreduce
from ..net.indirect import GridRouter
from ..net.machine import PEContext
from .engine import EngineConfig, _post_cut_neighborhoods, _surrogate_filter
from .kernels import record_pairs_elements
from .lcc import _triangles_elements_local
from .preprocessing import build_oriented, exchange_ghost_degrees

__all__ = ["PETriangles", "enumerate_program", "gather_all_triangles"]


@dataclass
class PETriangles:
    """Per-PE enumeration outcome."""

    #: Triangles found on this PE, one row ``[a, b, c]`` with ascending
    #: vertex ids; globally disjoint across PEs and jointly complete.
    triangles: np.ndarray
    #: Global total (consistency check, equals ``sum len(triangles)``).
    total: int


def _rows(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    tri = np.column_stack([a, b, c])
    tri.sort(axis=1)
    return tri


def enumerate_program(
    ctx: PEContext,
    dist: DistGraph,
    config: EngineConfig = EngineConfig(contraction=True),
) -> Generator[None, None, PETriangles]:
    """SPMD triangle enumeration (CETRIC- or DITRIC-flavoured)."""
    lg = dist.view(ctx.rank)
    vlo, vhi = lg.vlo, lg.vhi
    bound = dist.num_vertices + 1

    with ctx.span("preprocessing"):
        yield from exchange_ghost_degrees(ctx, lg, mode=config.degree_exchange)
        og = build_oriented(ctx, lg, with_ghosts=config.contraction)

    parts: list[np.ndarray] = []
    with ctx.span("local"):
        a, b, c = _triangles_elements_local(ctx, og, expanded=config.contraction)
        if a.size:
            parts.append(_rows(a, b, c))
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
            GridRouter(ctx, "enum-nbh", threshold)
            if config.indirect
            else BufferedMessageQueue(ctx, "enum-nbh", threshold)
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
        if rv.size:
            parts.append(_rows(rv, ru, rw))
        yield

    mine = (
        np.concatenate(parts, axis=0) if parts else np.empty((0, 3), dtype=np.int64)
    )
    total = yield from allreduce(ctx, int(mine.shape[0]), lambda x, y: x + y)
    return PETriangles(triangles=mine, total=int(total))


def gather_all_triangles(values: list[PETriangles]) -> np.ndarray:
    """Union of per-PE triangle lists, canonically sorted (driver-side)."""
    parts = [v.triangles for v in values if v.triangles.size]
    if not parts:
        return np.empty((0, 3), dtype=np.int64)
    tri = np.concatenate(parts, axis=0)
    order = np.lexsort((tri[:, 2], tri[:, 1], tri[:, 0]))
    return tri[order]
