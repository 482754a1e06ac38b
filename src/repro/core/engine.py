"""The distributed counting engine behind DITRIC and CETRIC.

One parametrized SPMD program implements the whole algorithm family of
Section IV; the public entry points (:mod:`repro.core.ditric`,
:mod:`repro.core.cetric`, :mod:`repro.core.naive_distributed`) are
configurations of it:

=================== ============ =========== ========== ===========
variant             contraction  aggregation indirect   surrogate
=================== ============ =========== ========== ===========
Algorithm 2 (naive) no           off         no         off
Algorithm 2 + aggr  no           on          no         off
DITRIC              no           on          no         on
DITRIC²             no           on          yes        on
CETRIC              yes          on          no         on
CETRIC²             yes          on          yes        on
=================== ============ =========== ========== ===========

Phases are attributed to the labels Fig. 7 uses: ``preprocessing``
(degree exchange, orientation, and — for CETRIC — building the
expanded graph), ``local`` (intersections on locally available arcs),
``contraction`` and ``global`` (message exchange plus receiver-side
intersections and the final reduction).

Fault tolerance
---------------
The program is marked :func:`~repro.net.reliable.fault_tolerant`: on a
machine with a checkpoint store (see
:func:`repro.core.checkpoint.run_with_recovery`) it snapshots at the
phase boundaries of Lemma 1's decomposition — after the local phase
(oriented structure + type-1/2 count) and after contraction (the cut
send structure) — so a PE crash during the communication-heavy global
phase re-runs only that phase.  All point-to-point traffic flows
through the aggregation queues and collectives, which ride the
machine's transport; there are no raw ``ctx.send`` calls here (lint
rule R5 checks this).  Because every exchange goes through those
primitives — which complete in-flight sends (``ctx.sync_sends``)
before their termination barriers — the program runs unchanged on the
contended network model of :mod:`repro.sim` (see
``docs/SIMULATION.md``); checkpoint phase boundaries and retransmit
timers are engine events there, not extra scheduler rounds.
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
from ..net.messages import HEADER_WORDS
from ..net.reliable import fault_tolerant
from .intersect import gather_blocks
from .kernels import count_csr_pairs, count_record_pairs
from .preprocessing import OrientedLocalGraph, build_oriented, exchange_ghost_degrees, first_of_runs

__all__ = ["EngineConfig", "PECounts", "counting_program"]


@dataclass(frozen=True)
class EngineConfig:
    """Knobs selecting an algorithm variant (see module table)."""

    #: CETRIC's two-phase scheme: count type-1/2 locally on the
    #: expanded graph, contract, run the global phase on cut edges only.
    contraction: bool = False
    #: Dynamic buffered aggregation (Section IV-A).  ``False`` sends one
    #: message per neighborhood — the Fig. 2 "no aggregation" setup.
    aggregate: bool = True
    #: Grid-based indirect delivery (Section IV-B) — the ² variants.
    indirect: bool = False
    #: Arifuzzaman-style redundant-send suppression (Section IV-D).
    surrogate: bool = True
    #: Ghost-degree exchange flavour: "dense" (paper default) or "sparse".
    degree_exchange: str = "dense"
    #: Aggregation threshold delta as a multiple of the local arc count
    #: (delta in O(|E_i|) gives the linear-memory guarantee).
    threshold_factor: float = 1.0

    def threshold_words(self, local_arcs: int) -> int:
        """The concrete flush threshold for a PE with ``local_arcs`` arcs."""
        if not self.aggregate:
            return 0
        return max(16, int(self.threshold_factor * max(local_arcs, 1)))


@dataclass
class PECounts:
    """Per-PE outcome of the counting program."""

    triangles_total: int
    local_count: int
    remote_count: int
    records_sent: int


def _local_phase_pairs(
    ctx: PEContext, og, *, expanded: bool
) -> int:
    """All intersections available without communication.

    ``expanded=False`` (DITRIC): arcs ``(v, u)`` with both endpoints
    owned, full ``A`` sets — finds type-1 triangles only.

    ``expanded=True`` (CETRIC): the expanded local graph — every arc of
    Algorithm 3 lines 5-7, with ghost ``A`` sets restricted to local
    vertices — finds all type-1 and type-2 triangles.
    """
    lg = og.lg
    vlo = lg.vlo
    bound = og.num_vertices + 1
    nloc = lg.num_local_vertices
    src_slots = np.repeat(np.arange(nloc, dtype=np.int64), np.diff(og.oxadj))
    dst = og.oadjncy
    dst_local = lg.is_local(dst)
    total = 0

    # Group 1: owned -> owned (both variants).
    l_src = src_slots[dst_local]
    l_dst = dst[dst_local]
    total += count_csr_pairs(
        ctx, og.oxadj, og.oadjncy, l_src, og.oxadj, og.oadjncy, l_dst - vlo, bound
    )
    if not expanded:
        return total

    ghosts = lg.ghost_vertices
    # Group 2: owned v -> ghost u; intersect full A(v) with the
    # local-restricted A(u) of the ghost.
    g_src = src_slots[~dst_local]
    g_dst = dst[~dst_local]
    if g_src.size:
        g_slots = np.searchsorted(ghosts, g_dst)
        total += count_csr_pairs(
            ctx, og.oxadj, og.oadjncy, g_src, og.goxadj, og.goadjncy, g_slots, bound
        )
    # Group 3: ghost g -> owned u (u in A(g), always owned by
    # construction); intersect A(g) with full A(u).
    if ghosts.size:
        gh_src_slots = np.repeat(
            np.arange(ghosts.size, dtype=np.int64), np.diff(og.goxadj)
        )
        gh_dst = og.goadjncy
        total += count_csr_pairs(
            ctx, og.goxadj, og.goadjncy, gh_src_slots, og.oxadj, og.oadjncy, gh_dst - vlo, bound
        )
    return total


def _surrogate_filter(
    src_slots: np.ndarray, dst_ranks: np.ndarray, *, enabled: bool
) -> np.ndarray:
    """Mask selecting which cut arcs trigger a neighborhood send.

    With the surrogate optimization only the first arc of each
    ``(vertex, destination PE)`` run sends (:func:`first_of_runs`).
    """
    if not enabled:
        return np.ones(src_slots.size, dtype=bool)
    return first_of_runs(src_slots, dst_ranks)


def _post_cut_neighborhoods(
    router,
    send_xadj: np.ndarray,
    send_adj: np.ndarray,
    c_src: np.ndarray,
    c_dst: np.ndarray,
    dst_ranks: np.ndarray,
    sends: np.ndarray,
    vlo: int,
    *,
    targeted: bool,
) -> tuple[int, int]:
    """Post one record per selected cut arc, as a single packed batch.

    With ``targeted`` (Algorithm 2 shape) each record carries its owned
    endpoint ``c_dst``; otherwise the records are surrogate broadcasts.
    Returns ``(records, words)`` posted — ``words`` is exactly the sum
    of the per-record ``Record.words`` charges.
    """
    slots = c_src[sends]
    k = int(slots.size)
    if k == 0:
        return 0, 0
    neighbors, nbh_xadj = gather_blocks(send_xadj, send_adj, slots)
    targets = c_dst[sends] if targeted else np.full(k, -1, dtype=np.int64)
    router.post_many(dst_ranks[sends], vlo + slots, targets, nbh_xadj, neighbors)
    words = int(neighbors.size) + HEADER_WORDS * k + (k if targeted else 0)
    return k, words


@fault_tolerant
def counting_program(
    ctx: PEContext, dist: DistGraph, config: EngineConfig
) -> Generator[None, None, PECounts]:
    """SPMD triangle counting on one PE (run via ``Machine.run``)."""
    lg = dist.view(ctx.rank)
    vlo, vhi = lg.vlo, lg.vhi
    bound = dist.num_vertices + 1

    snap = ctx.restore("local")
    if snap is None:  # noqa: R8 -- restore() replays a globally consistent snapshot: the machine checkpoints all PEs at the same barrier, so every rank sees the same None-or-snapshot and takes the same arm
        with ctx.span("preprocessing"):
            yield from exchange_ghost_degrees(ctx, lg, mode=config.degree_exchange)
            og = build_oriented(ctx, lg, with_ghosts=config.contraction)

        with ctx.span("local"):
            local_count = _local_phase_pairs(ctx, og, expanded=config.contraction)
            yield

        ctx.checkpoint(
            "local",
            {
                "oxadj": og.oxadj,
                "oadjncy": og.oadjncy,
                "goxadj": og.goxadj,
                "goadjncy": og.goadjncy,
                "local_keys": og.local_keys,
                "ghost_keys": og.ghost_keys,
                "local_count": int(local_count),
            },
        )
    else:
        # Replay: the whole preprocessing + local phase — including the
        # degree-exchange messages — is skipped on *every* PE (the
        # store only replays globally stable snapshots), so the SPMD
        # message pattern stays consistent.
        og = OrientedLocalGraph(
            lg=lg,
            oxadj=snap["oxadj"],
            oadjncy=snap["oadjncy"],
            goxadj=snap["goxadj"],
            goadjncy=snap["goadjncy"],
            local_keys=snap["local_keys"],
            ghost_keys=snap["ghost_keys"],
        )
        local_count = snap["local_count"]
        yield

    if config.contraction:
        csnap = ctx.restore("contraction")
        if csnap is None:
            with ctx.span("contraction"):
                send_xadj, send_adj = og.contracted()
                ctx.charge(og.oadjncy.size)  # one pass to drop non-cut arcs
            ctx.checkpoint(
                "contraction", {"send_xadj": send_xadj, "send_adj": send_adj}
            )
        else:
            send_xadj, send_adj = csnap["send_xadj"], csnap["send_adj"]
            yield
    else:
        send_xadj, send_adj = og.oxadj, og.oadjncy

    with ctx.span("global"):
        threshold = config.threshold_words(lg.num_local_arcs)
        tag = "nbh"
        router = (
            GridRouter(ctx, tag, threshold)
            if config.indirect
            else BufferedMessageQueue(ctx, tag, threshold)
        )
        # Cut arcs of the *send* structure (full A for DITRIC,
        # contracted A for CETRIC); dst is a ghost for every kept arc.
        nloc = lg.num_local_vertices
        s_src = np.repeat(np.arange(nloc, dtype=np.int64), np.diff(send_xadj))
        s_dst = send_adj
        cut_mask = ~lg.is_local(s_dst)
        c_src = s_src[cut_mask]
        c_dst = s_dst[cut_mask]
        dst_ranks = lg.partition.rank_of(c_dst) if c_dst.size else c_dst
        sends = _surrogate_filter(c_src, dst_ranks, enabled=config.surrogate)
        ctx.charge(c_src.size)  # scanning cut arcs / surrogate bookkeeping
        # Surrogate: one broadcast (v, A(v)) record per destination PE
        # (the receiver loops over all its local u in A(v)).  Otherwise
        # the Algorithm 2 shape: one targeted ((v, u), A(v)) record per
        # cut arc, possibly shipping the same neighborhood repeatedly.
        records_sent, posted_words = _post_cut_neighborhoods(
            router,
            send_xadj,
            send_adj,
            c_src,
            c_dst,
            dst_ranks,
            sends,
            vlo,
            targeted=not config.surrogate,
        )
        ctx.charge(posted_words)  # buffer writes
        records = yield from router.finalize()
        remote_count = count_record_pairs(
            ctx,
            records,
            send_xadj if config.contraction else og.oxadj,
            send_adj if config.contraction else og.oadjncy,
            vlo,
            vhi,
            bound,
        )
        yield

    my_total = local_count + remote_count
    grand_total = yield from allreduce(ctx, my_total, lambda a, b: a + b)
    return PECounts(
        triangles_total=int(grand_total),
        local_count=int(local_count),
        remote_count=int(remote_count),
        records_sent=records_sent,
    )
