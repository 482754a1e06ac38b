"""Distributed preprocessing: ghost-degree exchange and orientation.

Paper Section IV-D ("Preprocessing"): before counting, every PE must

1. learn the degrees of its ghost vertices (``exchange_ghost_degree``
   in Algorithm 3) — required because the degree-based total order
   compares ``(degree, id)`` pairs and ghost degrees are remote
   information;
2. orient its local neighborhoods along that order and keep them
   sorted;
3. (CETRIC only) expand the adjacency structure with the *local*
   neighborhoods of ghost vertices, obtained by rewiring incoming cut
   edges — no communication needed.

The degree exchange is one instance of the module's halo exchange,
:func:`exchange_ghost_values`: each PE pushes a value per owned vertex
to the PEs holding it as a ghost and gets back its ghosts' values in
:attr:`~repro.graphs.distributed.LocalGraph.ghost_vertices` order.
k-core (:mod:`repro.core.kcore`) and connected components
(:mod:`repro.core.components`) run one such exchange per round over
the same send lists.  It runs over the dense all-to-all by default, as
in the paper's evaluation ("we use a simple dense all-to-all
operation"), with the sparse variant available (``mode="sparse"``) for
ablations.

All construction work is vectorized and charged to the simulated cost
model: one operation per adjacency entry touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from ..graphs.distributed import LocalGraph
from ..net.comm import alltoallv_dense, sparse_alltoall
from ..net.machine import PEContext
from .intersect import concat_xadj

__all__ = [
    "exchange_ghost_degrees",
    "exchange_ghost_values",
    "ghost_send_lists",
    "first_of_runs",
    "OrientedLocalGraph",
    "build_oriented",
    "DEGREE_XCHG_PHASE",
]

#: Phase label under which degree-exchange time is accounted.
DEGREE_XCHG_PHASE = "preprocessing"


def first_of_runs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal ``(a[i], b[i])`` pairs.

    Cut arcs come grouped by source vertex with neighbours ascending and
    the 1D ID partition makes the owning rank monotone in the id, so
    each ``(vertex, destination PE)`` pair is one run (Section IV-D).
    """
    first = np.ones(a.size, dtype=bool)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return first


def ghost_send_lists(ctx: PEContext, lg: LocalGraph) -> list[tuple[int, np.ndarray]]:
    """``[(rank, ids)]``: which owned vertices each other PE holds as ghosts.

    ``v`` goes to every PE that owns a neighbour of ``v``.  Keeps the
    first cut arc of each ``(v, rank)`` run and sorts stably by rank, so
    ranks ascend and ``v`` ascends within a rank.  Charges one operation
    per cut arc scanned.
    """
    cut = lg.cut_edges()
    if not cut.size:
        return []
    src, ranks = cut[:, 0], lg.partition.rank_of(cut[:, 1])
    kept = np.flatnonzero(first_of_runs(src, ranks))
    kept = kept[np.argsort(ranks[kept], kind="stable")]
    ctx.charge(cut.shape[0])
    ids, ranks = src[kept], ranks[kept]
    splits = np.flatnonzero(np.diff(ranks)) + 1
    return list(zip(ranks[np.r_[0, splits]].tolist(), np.split(ids, splits)))


def exchange_ghost_values(
    ctx: PEContext,
    lg: LocalGraph,
    send_lists: list[tuple[int, np.ndarray]],
    values: np.ndarray,
    tag_label: str,
    *,
    mode: str = "dense",
) -> Generator[None, None, np.ndarray]:
    """Push owned values to the PEs holding them as ghosts (collective).

    ``values`` is aligned with the owned slots; for each ``(rank, ids)``
    of ``send_lists`` (see :func:`ghost_send_lists`) the PE sends
    ``(ids, values of ids)`` to ``rank``, 2 words per entry.  Charges
    one operation per received id.  Returns the arriving values aligned
    with ``lg.ghost_vertices``.
    """
    if mode not in ("dense", "sparse"):
        raise ValueError("mode must be 'dense' or 'sparse'")
    payloads = {
        rank: ((ids, values[ids - lg.vlo]), 2 * ids.size) for rank, ids in send_lists
    }
    if mode == "dense":
        msgs = yield from alltoallv_dense(ctx, payloads, tag_label=tag_label)
    else:
        triples = [(d, p, w) for d, (p, w) in payloads.items()]
        msgs = yield from sparse_alltoall(ctx, triples, tag_label=tag_label)
    received = [msg.payload for msg in msgs if msg.payload is not None]
    for ids, _ in received:
        ctx.charge(ids.size)
    ghost_values = np.zeros(lg.num_ghosts, dtype=values.dtype)
    if received:
        ids, vals = (np.concatenate(parts) for parts in zip(*received))
        ghost_values[lg.slots_of(ids) - lg.num_local_vertices] = vals
    return ghost_values


def exchange_ghost_degrees(
    ctx: PEContext,
    lg: LocalGraph,
    *,
    mode: str = "dense",
) -> Generator[None, None, np.ndarray]:
    """Fetch the degrees of all ghost vertices (collective halo exchange).

    Returns them aligned with ``lg.ghost_vertices`` and stores them on
    ``lg.ghost_degrees``.
    """
    lg.ghost_degrees = yield from exchange_ghost_values(
        ctx, lg, ghost_send_lists(ctx, lg), lg.degrees, "deg-xchg", mode=mode
    )
    return lg.ghost_degrees


@dataclass
class OrientedLocalGraph:
    """A PE's degree-oriented view, ready for counting.

    Arrays (all global vertex ids, neighborhoods sorted by id):

    * ``oxadj`` / ``oadjncy`` — ``A(v) = {x in N_v | x > v}`` for every
      owned vertex ``v`` (Algorithm 3 line 3); slot of ``v`` is
      ``v - vlo``.
    * ``goxadj`` / ``goadjncy`` — ``A(g) = {x in N_g | x > g, x in V_i}``
      for every ghost ``g`` (Algorithm 3 line 4), indexed by ghost
      slot; present only when built with ``with_ghosts=True``
      (CETRIC's expanded local graph).
    * ``key_bound`` and the degree arrays let callers evaluate the
      total order for any locally known vertex.
    """

    lg: LocalGraph
    oxadj: np.ndarray
    oadjncy: np.ndarray
    goxadj: np.ndarray | None
    goadjncy: np.ndarray | None
    #: Order keys of owned vertices (aligned with local slots).
    local_keys: np.ndarray
    #: Order keys of ghosts (aligned with ghost slots).
    ghost_keys: np.ndarray

    @property
    def vlo(self) -> int:
        """First owned vertex id (slot 0)."""
        return self.lg.vlo

    @property
    def num_vertices(self) -> int:
        """Global vertex count (key/offset bound for batch kernels)."""
        return self.lg.partition.num_vertices

    def out_neighborhood(self, v: int) -> np.ndarray:
        """``A(v)`` of an owned vertex."""
        s = v - self.lg.vlo
        return self.oadjncy[self.oxadj[s] : self.oxadj[s + 1]]

    def out_degrees(self) -> np.ndarray:
        """``d^+`` of all owned vertices."""
        return np.diff(self.oxadj)

    def ghost_out_neighborhood(self, slot: int) -> np.ndarray:
        """``A(g)`` of the ghost in the given slot (local-restricted)."""
        if self.goxadj is None:
            raise RuntimeError("built without ghost neighborhoods")
        return self.goadjncy[self.goxadj[slot] : self.goxadj[slot + 1]]

    def order_keys_of(self, vertices: np.ndarray) -> np.ndarray:
        """Total-order keys for any locally known (owned or ghost) vertices.

        Needed by wedge-checking baselines that must decide which
        endpoint of a candidate closing edge is the ≺-smaller one.
        """
        return np.concatenate((self.local_keys, self.ghost_keys))[self.lg.slots_of(vertices)]

    def contracted(self) -> tuple[np.ndarray, np.ndarray]:
        """CETRIC's contraction (Algorithm 3 line 8): drop non-cut arcs.

        Returns ``(cxadj, cadjncy)`` where the neighborhood of owned
        vertex ``v`` keeps only out-neighbors *not* local to this PE.
        """
        mask = ~self.lg.is_local(self.oadjncy)
        src_slots = np.repeat(
            np.arange(self.lg.num_local_vertices, dtype=np.int64),
            np.diff(self.oxadj),
        )
        counts = np.bincount(src_slots[mask], minlength=self.lg.num_local_vertices)
        cxadj = concat_xadj(counts)
        return cxadj, self.oadjncy[mask]


def _order_keys(degrees: np.ndarray, ids: np.ndarray, bound: int) -> np.ndarray:
    """``(degree, id)`` encoded so numeric ``<`` realizes the total order."""
    return degrees.astype(np.int64) * np.int64(bound) + ids.astype(np.int64)


def build_oriented(
    ctx: PEContext,
    lg: LocalGraph,
    *,
    with_ghosts: bool = False,
) -> OrientedLocalGraph:
    """Orient the local view along the degree order (no communication).

    Requires ``lg.ghost_degrees`` to be filled (run
    :func:`exchange_ghost_degrees` first) unless the PE has no ghosts.

    ``with_ghosts=True`` additionally builds the ghosts' local-restricted
    out-neighborhoods — the expanded local graph of CETRIC's local
    phase.  Work charged: one op per adjacency entry scanned.
    """
    ghosts = lg.ghost_vertices
    if ghosts.size and lg.ghost_degrees is None:
        raise RuntimeError("ghost degrees missing; run exchange_ghost_degrees")
    n = lg.partition.num_vertices
    bound = n + 1

    local_ids = lg.owned_vertices()
    local_keys = _order_keys(lg.degrees, local_ids, bound)
    ghost_keys = (
        _order_keys(lg.ghost_degrees, ghosts, bound)
        if ghosts.size
        else np.empty(0, dtype=np.int64)
    )

    src_keys = np.repeat(local_keys, lg.degrees)
    dst_keys = np.concatenate((local_keys, ghost_keys))[lg.adj_slots()]
    keep = src_keys < dst_keys
    src_slots = np.repeat(
        np.arange(lg.num_local_vertices, dtype=np.int64), lg.degrees
    )
    counts = np.bincount(src_slots[keep], minlength=lg.num_local_vertices)
    oxadj = concat_xadj(counts)
    oadjncy = lg.adjncy[keep]
    ctx.charge(lg.adjncy.size)  # one pass over the local adjacency

    goxadj = goadjncy = None
    if with_ghosts:
        gxadj, gadjncy = lg.ghost_local_neighborhoods()
        # Keep x with x > g under the order: key(x) > key(g).
        g_src_keys = np.repeat(ghost_keys, np.diff(gxadj))
        g_dst_keys = local_keys[gadjncy - lg.vlo]
        gkeep = g_src_keys < g_dst_keys
        g_src_slots = np.repeat(np.arange(ghosts.size, dtype=np.int64), np.diff(gxadj))
        gcounts = np.bincount(g_src_slots[gkeep], minlength=ghosts.size)
        goxadj = concat_xadj(gcounts)
        goadjncy = gadjncy[gkeep]
        ctx.charge(gadjncy.size)

    return OrientedLocalGraph(
        lg=lg,
        oxadj=oxadj,
        oadjncy=oadjncy,
        goxadj=goxadj,
        goadjncy=goadjncy,
        local_keys=local_keys,
        ghost_keys=ghost_keys,
    )
