"""Approximate triangle counting (paper Sections III-B and IV-E).

Three approximations:

* :func:`amq_cetric_program` — the paper's own contribution: CETRIC
  with an **AMQ global phase**.  Type-1/2 triangles are counted
  exactly in the local phase; for type-3 triangles each shipped
  neighborhood ``A(v)`` is replaced by an approximate-membership
  structure ``A'(v)`` (Bloom filter or compressed single-shot Bloom
  filter).  The receiver approximates ``|A(u) ∩ A(v)|`` by querying
  all members of ``A(u)`` against ``A'(v)`` and, optionally, corrects
  the expected false positives to obtain a *truthful* estimator:
  with ``c`` positive out of ``s`` queries at FPR ``f``, the unbiased
  estimate of the true intersection is ``(c - s f) / (1 - f)``.
* :func:`doulion` — DOULION edge sampling (Tsourakakis et al.): keep
  each edge with probability ``q``, count exactly on the sparsified
  graph, scale by ``q^{-3}``.
* :func:`colorful` — colorful triangle counting (Pagh &
  Tsourakakis): color vertices with ``N`` colors, keep monochromatic
  edges, count, scale by ``N^2``.

DOULION and colorful need a triangle counter as a black box — any of
this package's exact algorithms — and only approximate the *global*
count, whereas the AMQ scheme also supports approximate local
clustering coefficients (the property the paper highlights).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Literal

import numpy as np

from ..amq.bloom import BloomFilter
from ..amq.ssbf import SingleShotBloomFilter
from ..graphs.builders import from_edges, sorted_unique
from ..graphs.csr import CSRGraph
from ..graphs.distributed import DistGraph
from ..net.aggregation import BufferedMessageQueue
from ..net.comm import allreduce, alltoallv_dense
from ..net.indirect import GridRouter
from ..net.machine import PEContext
from .edge_iterator import edge_iterator
from .engine import EngineConfig, _local_phase_pairs, _surrogate_filter
from .preprocessing import build_oriented, exchange_ghost_degrees

__all__ = [
    "AmqRecord",
    "PEApproxCounts",
    "PEApproxLcc",
    "amq_cetric_program",
    "amq_lcc_program",
    "doulion",
    "colorful",
    "ApproxResult",
]


@dataclass(frozen=True)
class AmqRecord:
    """Global-phase record with an AMQ instead of the raw neighborhood.

    ``targets`` lists the members of ``A(v)`` owned by the destination
    PE (the sender knows them — they are the reason the record is sent
    at all), so the receiver knows which local intersections to
    evaluate; only the *rest* of ``A(v)`` is compressed away into the
    filter.
    """

    vertex: int
    targets: np.ndarray
    amq: BloomFilter | SingleShotBloomFilter
    #: |A(v)| at the sender (needed by nobody, kept for diagnostics).
    source_size: int

    @property
    def words(self) -> int:
        """Wire size: targets + filter + (vertex, sizes) header."""
        return int(self.targets.size) + int(self.amq.storage_words) + 3


@dataclass
class PEApproxCounts:
    """Per-PE outcome of the AMQ-approximate program."""

    estimate_total: float
    exact_local: int
    approx_remote: float


def _make_amq(
    kind: Literal["bloom", "ssbf"], neighborhood: np.ndarray, vertex: int, budget: float
) -> BloomFilter | SingleShotBloomFilter:
    """Build the sender-side filter for one neighborhood.

    The hash seed is derived from the record vertex so both endpoints
    agree without extra communication.
    """
    if kind == "bloom":
        f = BloomFilter.for_elements(neighborhood.size, bits_per_element=budget, seed=vertex)
    elif kind == "ssbf":
        f = SingleShotBloomFilter.for_elements(
            neighborhood.size, cells_per_element=budget, seed=vertex
        )
    else:
        raise ValueError("kind must be 'bloom' or 'ssbf'")
    f.add(neighborhood)
    return f


def amq_cetric_program(
    ctx: PEContext,
    dist: DistGraph,
    *,
    amq_kind: Literal["bloom", "ssbf"] = "bloom",
    budget: float = 8.0,
    correct_bias: bool = True,
    config: EngineConfig = EngineConfig(contraction=True),
) -> Generator[None, None, PEApproxCounts]:
    """CETRIC with the approximate (AMQ) global phase.

    Parameters
    ----------
    amq_kind:
        ``"bloom"`` (budget = bits per element) or ``"ssbf"``
        (budget = cells per element, FPR ~ 1/budget).
    correct_bias:
        Subtract the expected false positives, yielding the truthful
        estimator of Section IV-E.
    """
    if not config.contraction:
        raise ValueError("the AMQ phase replaces CETRIC's global phase; contraction required")
    lg = dist.view(ctx.rank)
    vlo, vhi = lg.vlo, lg.vhi

    with ctx.span("preprocessing"):
        yield from exchange_ghost_degrees(ctx, lg, mode=config.degree_exchange)
        og = build_oriented(ctx, lg, with_ghosts=True)

    with ctx.span("local"):
        exact_local = _local_phase_pairs(ctx, og, expanded=True)
        yield

    with ctx.span("contraction"):
        send_xadj, send_adj = og.contracted()
        ctx.charge(og.oadjncy.size)

    with ctx.span("global"):
        threshold = config.threshold_words(lg.num_local_arcs)
        router = (
            GridRouter(ctx, "amq-nbh", threshold)
            if config.indirect
            else BufferedMessageQueue(ctx, "amq-nbh", threshold)
        )
        nloc = lg.num_local_vertices
        s_src = np.repeat(np.arange(nloc, dtype=np.int64), np.diff(send_xadj))
        cut_mask = ~lg.is_local(send_adj)  # all true post-contraction
        c_src = s_src[cut_mask]
        c_dst = send_adj[cut_mask]
        dst_ranks = lg.partition.rank_of(c_dst) if c_dst.size else c_dst
        first = _surrogate_filter(c_src, dst_ranks, enabled=True)
        ctx.charge(c_src.size)
        # Group cut arcs into (vertex, destination PE) runs; the run
        # members are exactly the receiver-side targets.
        run_starts = np.flatnonzero(first)
        run_ends = np.concatenate([run_starts[1:], [c_src.size]])
        # Per-run loop, not post_many: each run builds an opaque AMQ
        # payload (a Bloom filter is inherently a per-destination
        # object), so there is no frameable array batch to pack.
        for start, end in zip(run_starts.tolist(), run_ends.tolist()):
            slot = int(c_src[start])
            rank = int(dst_ranks[start])
            v = vlo + slot
            nbh = send_adj[send_xadj[slot] : send_xadj[slot + 1]]
            amq = _make_amq(amq_kind, nbh, v, budget)
            ctx.charge(nbh.size)  # filter construction
            rec = AmqRecord(
                vertex=v,
                targets=c_dst[start:end],
                amq=amq,
                source_size=int(nbh.size),
            )
            router.post(rank, rec)
        records = yield from router.finalize()

        approx_remote = 0.0
        for rec in records:
            fpr = rec.amq.expected_fpr()
            for u in rec.targets.tolist():
                a_u = send_adj[send_xadj[u - vlo] : send_xadj[u - vlo + 1]]
                if a_u.size == 0:
                    continue
                hits = int(np.count_nonzero(rec.amq.query(a_u)))
                ctx.charge(a_u.size)
                if correct_bias and fpr < 1.0:
                    approx_remote += (hits - a_u.size * fpr) / (1.0 - fpr)
                else:
                    approx_remote += hits
        yield

    my_total = float(exact_local) + approx_remote
    grand = yield from allreduce(ctx, my_total, lambda a, b: a + b)
    return PEApproxCounts(
        estimate_total=float(grand),
        exact_local=int(exact_local),
        approx_remote=float(approx_remote),
    )


@dataclass
class PEApproxLcc:
    """Per-PE outcome of the approximate-LCC program."""

    #: Approximate Δ per owned vertex (types 1/2 exact, type 3 estimated).
    delta: np.ndarray
    #: Approximate LCC per owned vertex.
    lcc: np.ndarray
    #: Global triangle estimate (``sum Δ / 3`` over all PEs).
    estimate_total: float


def amq_lcc_program(
    ctx: PEContext,
    dist: DistGraph,
    *,
    amq_kind: Literal["bloom", "ssbf"] = "bloom",
    budget: float = 8.0,
    correct_bias: bool = True,
) -> Generator[None, None, PEApproxLcc]:
    """Approximate local clustering coefficients (Section IV-E).

    The property the paper highlights: sampling approximations
    (DOULION, colorful) only estimate the *global* count, but the AMQ
    scheme keeps every type-1/2 triangle exact and only approximates
    the type-3 contributions, so *per-vertex* Δ — and hence LCC —
    stays accurate.

    Bias correction scales each positive query's corner credit by the
    truthful-pair factor ``(c - s f) / ((1 - f) c)`` (``c`` positives
    of ``s`` queries at FPR ``f``), so the pair's total contribution
    matches the unbiased estimator of :func:`amq_cetric_program`.
    """
    # Local import: lcc imports engine helpers that this module also uses.
    from .lcc import _triangles_elements_local, lcc_from_delta

    lg = dist.view(ctx.rank)
    vlo, vhi = lg.vlo, lg.vhi
    ghosts = lg.ghost_vertices

    with ctx.span("preprocessing"):
        yield from exchange_ghost_degrees(ctx, lg)
        og = build_oriented(ctx, lg, with_ghosts=True)

    delta_local = np.zeros(lg.num_local_vertices, dtype=np.float64)
    delta_ghost = np.zeros(ghosts.size, dtype=np.float64)

    def credit(vertices: np.ndarray, weight) -> None:
        owned = (vertices >= vlo) & (vertices < vhi)
        np.add.at(delta_local, vertices[owned] - vlo, np.broadcast_to(weight, vertices.shape)[owned])
        if ghosts.size and not np.all(owned):
            slots = np.searchsorted(ghosts, vertices[~owned])
            np.add.at(delta_ghost, slots, np.broadcast_to(weight, vertices.shape)[~owned])
        ctx.charge(vertices.size)

    with ctx.span("local"):
        a, b, c = _triangles_elements_local(ctx, og, expanded=True)
        for corners in (a, b, c):
            credit(corners, 1.0)
        yield

    with ctx.span("contraction"):
        send_xadj, send_adj = og.contracted()
        ctx.charge(og.oadjncy.size)

    with ctx.span("global"):
        threshold = EngineConfig().threshold_words(lg.num_local_arcs)
        router = BufferedMessageQueue(ctx, "amq-lcc", threshold)
        nloc = lg.num_local_vertices
        s_src = np.repeat(np.arange(nloc, dtype=np.int64), np.diff(send_xadj))
        c_src = s_src
        c_dst = send_adj
        dst_ranks = lg.partition.rank_of(c_dst) if c_dst.size else c_dst
        first = _surrogate_filter(c_src, dst_ranks, enabled=True)
        ctx.charge(c_src.size)
        run_starts = np.flatnonzero(first)
        run_ends = np.concatenate([run_starts[1:], [c_src.size]])
        # Per-run loop as in amq_cetric_program: opaque AMQ payloads.
        for start, end in zip(run_starts.tolist(), run_ends.tolist()):
            slot = int(c_src[start])
            rank = int(dst_ranks[start])
            v = vlo + slot
            nbh = send_adj[send_xadj[slot] : send_xadj[slot + 1]]
            amq = _make_amq(amq_kind, nbh, v, budget)
            ctx.charge(nbh.size)
            router.post(
                rank,
                AmqRecord(
                    vertex=v,
                    targets=c_dst[start:end],
                    amq=amq,
                    source_size=int(nbh.size),
                ),
            )
        records = yield from router.finalize()
        for rec in records:
            fpr = rec.amq.expected_fpr()
            for u in rec.targets.tolist():
                a_u = send_adj[send_xadj[u - vlo] : send_xadj[u - vlo + 1]]
                if a_u.size == 0:
                    continue
                positive = rec.amq.query(a_u)
                ctx.charge(a_u.size)
                hits = int(np.count_nonzero(positive))
                if hits == 0:
                    continue
                if correct_bias and fpr < 1.0:
                    weight = max(0.0, (hits - a_u.size * fpr) / ((1.0 - fpr) * hits))
                else:
                    weight = 1.0
                # Corners: record vertex v (ghost), owned u, positives w.
                credit(np.array([rec.vertex], dtype=np.int64), weight * hits)
                delta_local[u - vlo] += weight * hits
                credit(a_u[positive], weight)
        yield

    with ctx.span("delta-exchange"):
        payloads: dict[int, tuple[tuple[np.ndarray, np.ndarray], int]] = {}
        if ghosts.size:
            nz = delta_ghost > 0
            gids = ghosts[nz]
            gvals = delta_ghost[nz]
            owner = lg.partition.rank_of(gids) if gids.size else gids
            for rank in sorted_unique(owner):
                sel = owner == rank
                payloads[int(rank)] = ((gids[sel], gvals[sel]), 2 * int(sel.sum()))
        msgs = yield from alltoallv_dense(ctx, payloads, tag_label="amq-delta")
        for msg in msgs:
            if msg.payload is None:
                continue
            ids, vals = msg.payload
            np.add.at(delta_local, ids - vlo, vals)
            ctx.charge(ids.size)

    my_sum = float(delta_local.sum())
    grand = yield from allreduce(ctx, my_sum, lambda x, y: x + y)
    lcc = lcc_from_delta(delta_local, lg.degrees)
    return PEApproxLcc(delta=delta_local, lcc=lcc, estimate_total=float(grand) / 3.0)


# ----------------------------------------------------------------------
# Black-box sampling approximations (Section III-B baselines)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ApproxResult:
    """Outcome of a sampling-based approximation."""

    estimate: float
    #: Triangles counted in the reduced graph.
    reduced_count: int
    #: Edges of the reduced graph.
    reduced_edges: int


def doulion(
    graph: CSRGraph,
    q: float,
    *,
    seed: int = 0,
    counter: Callable[[CSRGraph], int] | None = None,
) -> ApproxResult:
    """DOULION: sample edges with probability ``q``, scale by ``q^{-3}``."""
    if not (0.0 < q <= 1.0):
        raise ValueError("q must be in (0, 1]")
    rng = np.random.default_rng(seed)
    edges = graph.undirected_edges()
    keep = rng.random(edges.shape[0]) < q
    reduced = from_edges(edges[keep], num_vertices=graph.num_vertices, name=f"{graph.name}|doulion")
    count = counter(reduced) if counter else edge_iterator(reduced).triangles
    return ApproxResult(
        estimate=count / q**3, reduced_count=int(count), reduced_edges=reduced.num_edges
    )


def colorful(
    graph: CSRGraph,
    num_colors: int,
    *,
    seed: int = 0,
    counter: Callable[[CSRGraph], int] | None = None,
) -> ApproxResult:
    """Colorful triangle counting: keep monochromatic edges, scale by ``N^2``."""
    if num_colors < 1:
        raise ValueError("need at least one color")
    rng = np.random.default_rng(seed)
    colors = rng.integers(0, num_colors, size=graph.num_vertices)
    edges = graph.undirected_edges()
    keep = colors[edges[:, 0]] == colors[edges[:, 1]]
    reduced = from_edges(edges[keep], num_vertices=graph.num_vertices, name=f"{graph.name}|colorful")
    count = counter(reduced) if counter else edge_iterator(reduced).triangles
    return ApproxResult(
        estimate=count * float(num_colors) ** 2,
        reduced_count=int(count),
        reduced_edges=reduced.num_edges,
    )
