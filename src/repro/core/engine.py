"""The distributed counting engine behind DITRIC and CETRIC.

One parametrized SPMD program implements the whole algorithm family of
Section IV.  :data:`CONFIGS` names its variants, and
``counting_program(ctx, dist, CONFIGS[name])`` is the entry point for
each of them:

=================== ================== ============ =========== ========== ===========
variant             ``CONFIGS`` key    contraction  aggregation indirect   surrogate
=================== ================== ============ =========== ========== ===========
Algorithm 2 (naive) naive              no           off         no         off
Algorithm 2 + aggr  naive-aggregated   no           on          no         off
DITRIC              ditric             no           on          no         on
DITRIC²             ditric2            no           on          yes        on
CETRIC              cetric             yes          on          no         on
CETRIC²             cetric2            yes          on          yes        on
=================== ================== ============ =========== ========== ===========

Algorithm 2 without aggregation ships each neighbourhood as its own
message (the Fig. 2 "no aggregation" series) and, without the
surrogate filter, may send one neighbourhood to the same PE twice.

Phases are attributed to the labels Fig. 7 uses: ``preprocessing``
(degree exchange, orientation, and — for CETRIC — building the
expanded graph), ``local`` (intersections on locally available arcs),
``contraction`` and ``global`` (message exchange plus receiver-side
intersections and the final reduction).

One skeleton, four programs
---------------------------
Section IV-E's extensions are the same traversal with other kernels,
and they share this module's phase helpers: :func:`_preprocess`, the
local phase's CSR pair groups (:func:`_local_pair_groups`, counted by
:func:`_local_phase_pairs` or listed as corner triples by
:func:`_local_phase_triangles`), :func:`_send_structure` (contraction),
and the global phase's router choice, cut-arc scan and surrogate
filter (:func:`_post_cut_neighborhoods`).

* :func:`counting_program` — counts; adds checkpoints at the phase
  boundaries.
* :func:`repro.core.enumerate.enumerate_program` and
  :func:`repro.core.lcc.lcc_program` — run :func:`_triangle_phases`,
  which reports every triangle exactly once as ``(a, b, c)`` corners.
* :func:`repro.core.approx.amq_cetric_program` and
  :func:`~repro.core.approx.amq_lcc_program` — ship one AMQ filter per
  (vertex, destination PE) run instead of the neighborhood.

Accounting differs in one place: only :func:`counting_program`
charges the posted words (the buffer writes, between the post and
``finalize``); enumeration and LCC post without that charge.

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
from typing import Callable, Generator

import numpy as np

from ..graphs.distributed import DistGraph
from ..net.aggregation import BufferedMessageQueue
from ..net.comm import allreduce
from ..net.frames import record_words
from ..net.indirect import GridRouter
from ..net.machine import PEContext
from ..net.reliable import fault_tolerant
from .intersect import gather_blocks
from .kernels import count_csr_pairs, count_record_pairs, csr_pairs_elements, record_pairs_elements
from .preprocessing import OrientedLocalGraph, build_oriented, exchange_ghost_degrees, first_of_runs

# gather_blocks is re-exported, not called: benchmarks/e2e/layers.py looks
# it up here until ROADMAP item 1 retargets that entry to the queue.
__all__ = ["CONFIGS", "EngineConfig", "PECounts", "counting_program", "gather_blocks"]


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


#: The algorithm variants of the module table, by public name.
CONFIGS: dict[str, EngineConfig] = {
    "naive": EngineConfig(aggregate=False, surrogate=False),
    "naive-aggregated": EngineConfig(surrogate=False),
    "ditric": EngineConfig(),
    "ditric2": EngineConfig(indirect=True),
    "cetric": EngineConfig(contraction=True),
    "cetric2": EngineConfig(contraction=True, indirect=True),
}


@dataclass
class PECounts:
    """Per-PE outcome of the counting program."""

    triangles_total: int
    local_count: int
    remote_count: int
    records_sent: int


def _preprocess(
    ctx: PEContext, lg, config: EngineConfig
) -> Generator[None, None, OrientedLocalGraph]:
    """The ``preprocessing`` phase: ghost-degree exchange, then orientation
    (with the ghosts' local-restricted ``A`` sets under contraction)."""
    with ctx.span("preprocessing"):
        yield from exchange_ghost_degrees(ctx, lg, mode=config.degree_exchange)
        return build_oriented(ctx, lg, with_ghosts=config.contraction)


def _local_pair_groups(og: OrientedLocalGraph, *, expanded: bool) -> list[tuple]:
    """The CSR pair groups of the local phase, each with its two known corners.

    Returns ``(pairs, a, b)`` triples: ``pairs`` is the ``(left_xadj,
    left_adj, left_slots, right_xadj, right_adj, right_slots)`` batch of
    :func:`count_csr_pairs` over the slot-row CSRs of
    :meth:`~repro.core.preprocessing.OrientedLocalGraph.slot_rows`, and
    ``a``/``b`` hold the slots of each pair's two endpoints (the closing
    vertex is the intersection).

    ``expanded=False`` (DITRIC): arcs ``(v, u)`` with both endpoints
    owned, full ``A`` sets — finds type-1 triangles only.

    ``expanded=True`` (CETRIC): the expanded local graph — every arc of
    Algorithm 3 lines 5-7, with ghost ``A`` sets restricted to local
    vertices — finds all type-1 and type-2 triangles.
    """
    owned, ghost = og.slot_rows()
    slots = np.arange(og.lg.ids.size, dtype=np.int64)
    src, dst = np.repeat(slots, np.diff(owned[0])), og.oadjncy
    local = og.lg.is_owned(dst)

    def group(left, a, right, b):
        return (*left, a, *right, b), a, b

    # Owned v -> owned u (both variants): full A(v) with full A(u).
    groups = [group(owned, src[local], owned, dst[local])]
    if expanded:
        # Owned v -> ghost u: full A(v) with the local-restricted A(u).
        groups.append(group(owned, src[~local], ghost, dst[~local]))
        # Ghost g -> owned u (u in A(g) is owned by construction): A(g)
        # with full A(u).
        groups.append(group(ghost, np.repeat(slots, np.diff(ghost[0])), owned, og.goadjncy))
    return groups


def _local_phase_pairs(ctx: PEContext, og: OrientedLocalGraph, *, expanded: bool) -> int:
    """Triangles available without communication (see :func:`_local_pair_groups`)."""
    bound = og.lg.ids.size
    groups = _local_pair_groups(og, expanded=expanded)
    return sum(count_csr_pairs(ctx, *pairs, bound) for pairs, _, _ in groups)


def _local_phase_triangles(
    ctx: PEContext, og: OrientedLocalGraph, *, expanded: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The local phase's triangles as corner slot triples ``(a, b, closing)``."""
    bound = og.lg.ids.size
    a_out, b_out, c_out = [], [], []
    for pairs, a, b in _local_pair_groups(og, expanded=expanded):
        counts, closing = csr_pairs_elements(ctx, *pairs, bound)
        # closing is in (pair, element) order, so repeating each pair's
        # corners by its count lines them up with its closing vertices.
        a_out.append(np.repeat(a, counts))
        b_out.append(np.repeat(b, counts))
        c_out.append(closing)
    return np.concatenate(a_out), np.concatenate(b_out), np.concatenate(c_out)


def _send_structure(
    ctx: PEContext, og: OrientedLocalGraph, contraction: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR the global phase ships, in slots (``ids[...]`` leaves the PE):
    contracted to the cut arcs (the ``contraction`` phase of CETRIC) or
    the full oriented one (DITRIC)."""
    if not contraction:
        return og.oxadj, og.oadjncy
    with ctx.span("contraction"):
        send = og.contracted()
        ctx.charge(og.oadjncy.size)  # one pass to drop non-cut arcs
    return send


def _router(ctx: PEContext, lg, config: EngineConfig, tag: str):
    """The global phase's message queue: grid-indirect or direct."""
    threshold = config.threshold_words(lg.num_local_arcs)
    if config.indirect:
        return GridRouter(ctx, tag, threshold)
    return BufferedMessageQueue(ctx, tag, threshold)


def _cut_arcs(
    lg, send_xadj: np.ndarray, send_adj: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(source slots, ghost targets, destination ranks)`` of the cut arcs
    of a send structure, in CSR order."""
    s_src = np.repeat(np.arange(lg.num_local_vertices, dtype=np.int64), np.diff(send_xadj))
    cut = ~lg.is_local(send_adj)
    c_src, c_dst = s_src[cut], send_adj[cut]
    dst_ranks = lg.partition.rank_of(c_dst) if c_dst.size else c_dst
    return c_src, c_dst, dst_ranks


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
    ctx: PEContext,
    lg,
    config: EngineConfig,
    send_xadj: np.ndarray,
    send_adj: np.ndarray,
    tag: str,
) -> tuple:
    """Post the global phase's neighborhood records as one packed batch.

    Surrogate: one broadcast ``(v, A(v))`` record per destination PE
    (the receiver loops over all its owned ``u ∈ A(v)``).  Otherwise
    the Algorithm 2 shape: one targeted ``((v, u), A(v))`` record per
    cut arc, carrying its owned endpoint ``u``.  Records are posted as
    slots of the send structure, which the queue gathers itself.
    Returns ``(router, records, words)``: the queue to ``finalize`` and
    what was posted — ``words`` is the sum of the records'
    :func:`~repro.net.frames.record_words`.
    """
    router = _router(ctx, lg, config, tag)
    c_src, c_dst, dst_ranks = _cut_arcs(lg, send_xadj, send_adj)
    sends = _surrogate_filter(c_src, dst_ranks, enabled=config.surrogate)
    ctx.charge(c_src.size)  # scanning cut arcs / surrogate bookkeeping
    slots = c_src[sends]
    k = int(slots.size)
    if k == 0:
        return router, 0, 0
    targeted = not config.surrogate
    targets = c_dst[sends] if targeted else np.full(k, -1, dtype=np.int64)
    router.post_many(dst_ranks[sends], lg.vlo + slots, targets, slots, send_xadj, send_adj)
    words = record_words(send_xadj[slots + 1] - send_xadj[slots], targets)
    return router, k, int(words.sum())


def _triangle_phases(
    ctx: PEContext,
    lg,
    config: EngineConfig,
    tag: str,
    found: Callable[[np.ndarray, np.ndarray, np.ndarray], None],
) -> Generator[None, None, None]:
    """Every phase up to the final reduction, reporting triangles.

    The skeleton of the element-returning programs (enumeration, exact
    LCC): ``found(a, b, c)`` receives each phase's triangles as corner
    slot arrays — the local phase's, then those this PE closes on
    records received under ``tag`` — and every triangle is reported
    exactly once machine-wide.
    """
    og = yield from _preprocess(ctx, lg, config)
    with ctx.span("local"):
        found(*_local_phase_triangles(ctx, og, expanded=config.contraction))
        yield
    send_xadj, send_adj = _send_structure(ctx, og, config.contraction)
    send_adj = lg.ids[send_adj]
    del og
    with ctx.span("global"):
        router, _, _ = _post_cut_neighborhoods(ctx, lg, config, send_xadj, send_adj, tag)
        records = yield from router.finalize()
        bound = lg.partition.num_vertices + 1
        corners = record_pairs_elements(ctx, records, send_xadj, send_adj, lg.vlo, lg.vhi, bound)
        found(*(lg.slots_of(ids) for ids in corners))
        del records  # a received view pins its sender's whole gather
        yield


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
        og = yield from _preprocess(ctx, lg, config)
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
            send_xadj, send_adj = _send_structure(ctx, og, config.contraction)
            ctx.checkpoint(
                "contraction", {"send_xadj": send_xadj, "send_adj": send_adj}
            )
        else:
            send_xadj, send_adj = csnap["send_xadj"], csnap["send_adj"]
            yield
    else:
        send_xadj, send_adj = og.oxadj, og.oadjncy
    # DITRIC ships its whole oriented CSR: drop the slot-valued copy.
    send_adj = lg.ids[send_adj]
    del og, snap

    with ctx.span("global"):
        router, records_sent, posted_words = _post_cut_neighborhoods(
            ctx, lg, config, send_xadj, send_adj, "nbh"
        )
        ctx.charge(posted_words)  # buffer writes
        records = yield from router.finalize()
        remote_count = count_record_pairs(ctx, records, send_xadj, send_adj, vlo, vhi, bound)
        del records  # a received view pins its sender's whole gather
        yield

    my_total = local_count + remote_count
    grand_total = yield from allreduce(ctx, my_total, lambda a, b: a + b)
    return PECounts(
        triangles_total=int(grand_total),
        local_count=int(local_count),
        remote_count=int(remote_count),
        records_sent=records_sent,
    )
