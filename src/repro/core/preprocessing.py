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
from .orientation import _kept_rows, order_keys

__all__ = [
    "exchange_ghost_degrees",
    "exchange_ghost_values",
    "ghost_send_lists",
    "first_of_runs",
    "OrientedLocalGraph",
    "build_oriented",
    "orient_by_keys",
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
    bounds = np.flatnonzero(np.diff(ranks, prepend=-1, append=-1)).tolist()
    return [(int(ranks[lo]), ids[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


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
    flat = np.concatenate([np.empty(0, np.int64), *(ids for _, ids in send_lists)])
    gathered, end = values[flat - lg.vlo], 0  # one gather, sliced per rank
    payloads = {}
    for rank, ids in send_lists:
        end += ids.size
        payloads[rank] = ((ids, gathered[end - ids.size : end]), 2 * ids.size)
    if mode == "dense":
        msgs = yield from alltoallv_dense(ctx, payloads, tag_label=tag_label)
    else:
        triples = [(d, p, w) for d, (p, w) in payloads.items()]
        msgs = yield from sparse_alltoall(ctx, triples, tag_label=tag_label)
    received = [msg.payload for msg in msgs if msg.payload is not None]
    for ids, _ in received:
        ctx.charge(ids.size)
    arrived = np.zeros(lg.ids.size, dtype=values.dtype)
    if received:
        ids, vals = (np.concatenate(parts) for parts in zip(*received))
        arrived[lg.slots_of(ids)] = vals
    return lg.ghost_part(arrived)


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

    Neighbour entries are slots of the PE's slot table
    (:attr:`~repro.graphs.distributed.LocalGraph.ids`), sorted:

    * ``oxadj`` / ``oadjncy`` — ``A(v) = {x in N_v | x > v}`` for every
      owned vertex ``v`` (Algorithm 3 line 3), row ``v - vlo``.
    * ``goxadj`` / ``goadjncy`` — ``A(g) = {x in N_g | x > g, x in V_i}``
      for every ghost ``g`` (Algorithm 3 line 4), in ghost order;
      present only when built with ``with_ghosts=True`` (CETRIC's
      expanded local graph).
    * ``local_keys`` / ``ghost_keys`` — the order keys of the owned
      vertices and the ghosts (:meth:`order_keys_of` by slot).
    """

    lg: LocalGraph
    oxadj: np.ndarray
    oadjncy: np.ndarray
    goxadj: np.ndarray | None
    goadjncy: np.ndarray | None
    #: Order keys of owned vertices (aligned with the rows).
    local_keys: np.ndarray
    #: Order keys of ghosts (aligned with ghost_vertices).
    ghost_keys: np.ndarray

    def out_neighborhood(self, v: int) -> np.ndarray:
        """``A(v)`` of an owned vertex, in global ids (``KeyError`` for
        any other)."""
        s = v - self.lg.vlo
        if not 0 <= s < self.lg.num_local_vertices:
            raise KeyError(f"vertex {v} is not local to PE {self.lg.rank}")
        return self.lg.ids[self.oadjncy[self.oxadj[s] : self.oxadj[s + 1]]]

    def out_degrees(self) -> np.ndarray:
        """``d^+`` of all owned vertices."""
        return np.diff(self.oxadj)

    def ghost_out_neighborhood(self, k: int) -> np.ndarray:
        """``A(g)`` of the ``k``-th ghost (local-restricted), in global ids."""
        if self.goxadj is None:
            raise RuntimeError("built without ghost neighborhoods")
        return self.lg.ids[self.goadjncy[self.goxadj[k] : self.goxadj[k + 1]]]

    def order_keys_of(self, slots: np.ndarray) -> np.ndarray:
        """Total-order keys of the given slots.

        Needed by wedge-checking baselines that must decide which
        endpoint of a candidate closing edge is the ≺-smaller one.
        """
        return self.lg.by_slot(self.local_keys, self.ghost_keys)[slots]

    def slot_rows(self) -> tuple[tuple, tuple | None]:
        """The owned and the ghost rows as ``(xadj, adjncy)`` CSRs with one
        row per slot; the other kind's rows are empty.  The ghost CSR is
        ``None`` when built without ghost neighborhoods."""
        lg = self.lg
        no_owned = np.zeros(lg.num_local_vertices, dtype=np.int64)
        no_ghosts = np.zeros(lg.num_ghosts, dtype=np.int64)
        owned = (concat_xadj(lg.by_slot(self.out_degrees(), no_ghosts)), self.oadjncy)
        if self.goxadj is None:
            return owned, None
        return owned, (concat_xadj(lg.by_slot(no_owned, np.diff(self.goxadj))), self.goadjncy)

    def contracted(self) -> tuple[np.ndarray, np.ndarray]:
        """CETRIC's contraction (Algorithm 3 line 8): drop non-cut arcs.

        Returns ``(cxadj, cadjncy)`` where the neighborhood of owned
        vertex ``v`` keeps only out-neighbors *not* local to this PE.
        """
        cut = ~self.lg.is_owned(self.oadjncy)
        return _kept_rows(self.oxadj, self.oadjncy, cut)


def orient_by_keys(
    ctx: PEContext,
    lg: LocalGraph,
    local_keys: np.ndarray,
    ghost_keys: np.ndarray,
    *,
    with_ghosts: bool = False,
) -> OrientedLocalGraph:
    """Orient the local view along the order of the given keys (no
    communication): ``A(v)`` keeps the neighbours ``x`` with
    ``key(v) < key(x)``.

    ``with_ghosts=True`` additionally builds the ghosts' local-restricted
    out-neighborhoods — the expanded local graph of CETRIC's local
    phase.  Work charged: one op per adjacency entry scanned.
    """
    keys = lg.by_slot(local_keys, ghost_keys)
    adj = lg.adj_slots()
    oxadj, oadjncy = _kept_rows(lg.xadj, adj, np.repeat(local_keys, lg.degrees) < keys[adj])
    ctx.charge(adj.size)  # one pass over the local adjacency

    goxadj = goadjncy = None
    if with_ghosts:
        gxadj, gadj = lg.ghost_local_neighborhoods(adj)
        # Keep x with x > g under the order: key(x) > key(g).
        keep = np.repeat(ghost_keys, np.diff(gxadj)) < keys[gadj]
        goxadj, goadjncy = _kept_rows(gxadj, gadj, keep)
        ctx.charge(gadj.size)

    return OrientedLocalGraph(lg, oxadj, oadjncy, goxadj, goadjncy, local_keys, ghost_keys)


def build_oriented(
    ctx: PEContext,
    lg: LocalGraph,
    *,
    with_ghosts: bool = False,
) -> OrientedLocalGraph:
    """Orient the local view along the degree order (no communication).

    Requires ``lg.ghost_degrees`` to be filled (run
    :func:`exchange_ghost_degrees` first) unless the PE has no ghosts.
    See :func:`orient_by_keys` for ``with_ghosts``.
    """
    ghosts = lg.ghost_vertices
    if ghosts.size and lg.ghost_degrees is None:
        raise RuntimeError("ghost degrees missing; run exchange_ghost_degrees")
    bound = lg.partition.num_vertices + 1
    local_keys = order_keys(lg.degrees, lg.owned_vertices(), bound)
    ghost_keys = order_keys(lg.ghost_degrees, ghosts, bound) if ghosts.size else ghosts
    return orient_by_keys(ctx, lg, local_keys, ghost_keys, with_ghosts=with_ghosts)
