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
  It and :func:`amq_lcc_program` reuse the phase helpers of
  :mod:`repro.core.engine` up to the global phase and share one
  per-run AMQ post loop and one query loop; the approximate LCC shares
  the ghost-Δ push-back of :mod:`repro.core.lcc`.
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
from ..graphs.builders import from_edges
from ..graphs.csr import CSRGraph
from ..graphs.distributed import DistGraph
from ..net.comm import allreduce
from ..net.frames import RecordFrame, concat_xadj
from ..net.machine import PEContext
from .edge_iterator import edge_iterator
from .engine import (
    CONFIGS,
    EngineConfig,
    _cut_arcs,
    _local_phase_pairs,
    _local_phase_triangles,
    _preprocess,
    _router,
    _send_structure,
    _surrogate_filter,
)
from .lcc import _GhostDelta, lcc_from_delta

__all__ = [
    "PEApproxCounts",
    "PEApproxLcc",
    "amq_cetric_program",
    "amq_lcc_program",
    "doulion",
    "colorful",
    "ApproxResult",
]


@dataclass
class PEApproxCounts:
    """Per-PE outcome of the AMQ-approximate program."""

    estimate_total: float
    exact_local: int
    approx_remote: float


_AMQ_KINDS = {"bloom": BloomFilter, "ssbf": SingleShotBloomFilter}


def _make_amq(
    kind: Literal["bloom", "ssbf"], neighborhood: np.ndarray, vertex: int, budget: float
) -> BloomFilter | SingleShotBloomFilter:
    """Build the sender-side filter for one neighborhood.

    The hash seed is derived from the record vertex so both endpoints
    agree without extra communication.
    """
    if kind not in _AMQ_KINDS:
        raise ValueError("kind must be 'bloom' or 'ssbf'")
    f = _AMQ_KINDS[kind].for_elements(neighborhood.size, budget, seed=vertex)
    f.add(neighborhood)
    return f


def _amq_global_phase(
    ctx: PEContext,
    lg,
    config: EngineConfig,
    send_xadj: np.ndarray,
    send_adj: np.ndarray,
    tag: str,
    amq_kind: Literal["bloom", "ssbf"],
    budget: float,
) -> Generator[None, None, RecordFrame]:
    """Ship one filter per (vertex, destination PE) run of the contracted
    cut arcs and return the records received (collective).

    Each record is ``(v, |A(v)|, [filter words, targets])``: the targets
    are the members of ``A(v)`` owned by the destination PE (the run
    members, the reason the record is sent at all); only the rest of
    ``A(v)`` is compressed away into the filter.  The charge per record is the
    block plus the header and the target word, ``t + W + 3``.
    """
    router = _router(ctx, lg, config, tag)
    c_src, c_dst, dst_ranks = _cut_arcs(lg, send_xadj, send_adj)
    first = _surrogate_filter(c_src, dst_ranks, enabled=True)
    ctx.charge(c_src.size)
    run_starts = np.flatnonzero(first)
    run_ends = np.concatenate([run_starts[1:], [c_src.size]])
    # A filter is built per run, but all of them leave in one post_many.
    blocks: list[np.ndarray] = []
    for start, end in zip(run_starts.tolist(), run_ends.tolist()):
        slot = int(c_src[start])
        nbh = send_adj[send_xadj[slot] : send_xadj[slot + 1]]
        amq = _make_amq(amq_kind, nbh, lg.vlo + slot, budget)
        ctx.charge(nbh.size)  # filter construction
        blocks.append(np.concatenate([amq.to_words(), c_dst[start:end]]))
    slots = c_src[run_starts]
    router.post_many(
        dst_ranks[run_starts],
        lg.vlo + slots,
        send_xadj[slots + 1] - send_xadj[slots],  # |A(v)| in the target field
        np.arange(slots.size, dtype=np.int64),
        concat_xadj([b.size for b in blocks]),
        np.concatenate([np.empty(0, dtype=np.int64), *blocks]),
    )
    return (yield from router.finalize())


def _amq_queries(
    ctx: PEContext,
    received: RecordFrame,
    send_xadj: np.ndarray,
    send_adj: np.ndarray,
    vlo: int,
    amq_kind: Literal["bloom", "ssbf"],
    budget: float,
) -> list[tuple[int, BloomFilter | SingleShotBloomFilter, int, slice, np.ndarray]]:
    """Decode every received filter (sized like :func:`_make_amq` from
    ``|A(v)|`` in the target field) and query it with the ``A(u)`` of each
    of its owned targets ``u``: ``(v, filter, u, block, positive mask)``
    per non-empty ``A(u) = send_adj[block]``.  Decoding charges nothing,
    like receiving."""
    out = []
    bounds = received.xadj.tolist()
    for i, (v, size) in enumerate(zip(received.vertices.tolist(), received.targets.tolist())):
        block = received.neighbors[bounds[i] : bounds[i + 1]]
        if amq_kind == "bloom":
            amq = BloomFilter.from_words(block, size, budget, seed=v)
            used = amq.storage_words
        else:
            amq, used = SingleShotBloomFilter.from_words(block, size, budget, seed=v)
        for u in block[used:].tolist():
            a_u = slice(send_xadj[u - vlo], send_xadj[u - vlo + 1])
            if a_u.start == a_u.stop:
                continue
            positive = amq.query(send_adj[a_u])
            ctx.charge(positive.size)
            out.append((v, amq, u, a_u, positive))
    return out


def amq_cetric_program(
    ctx: PEContext,
    dist: DistGraph,
    *,
    amq_kind: Literal["bloom", "ssbf"] = "bloom",
    budget: float = 8.0,
    correct_bias: bool = True,
    config: EngineConfig = CONFIGS["cetric"],
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
    og = yield from _preprocess(ctx, lg, config)
    with ctx.span("local"):
        exact_local = _local_phase_pairs(ctx, og, expanded=True)
        yield

    send_xadj, send_adj = _send_structure(ctx, og, True)
    send_adj = lg.ids[send_adj]
    with ctx.span("global"):
        received = yield from _amq_global_phase(
            ctx, lg, config, send_xadj, send_adj, "amq-nbh", amq_kind, budget
        )
        approx_remote = 0.0
        for _, amq, _, _, positive in _amq_queries(
            ctx, received, send_xadj, send_adj, lg.vlo, amq_kind, budget
        ):
            hits = int(np.count_nonzero(positive))
            fpr = amq.expected_fpr()
            if correct_bias and fpr < 1.0:
                approx_remote += (hits - positive.size * fpr) / (1.0 - fpr)
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
    config = CONFIGS["cetric"]
    lg = dist.view(ctx.rank)
    og = yield from _preprocess(ctx, lg, config)
    delta = _GhostDelta(lg, np.float64)
    with ctx.span("local"):
        for corners in _local_phase_triangles(ctx, og, expanded=True):
            delta.credit(ctx, corners, 1.0)
        yield

    send_xadj, send_slots = _send_structure(ctx, og, True)
    send_adj = lg.ids[send_slots]
    with ctx.span("global"):
        received = yield from _amq_global_phase(
            ctx, lg, config, send_xadj, send_adj, "amq-lcc", amq_kind, budget
        )
        for v, amq, u, a_u, positive in _amq_queries(
            ctx, received, send_xadj, send_adj, lg.vlo, amq_kind, budget
        ):
            hits = int(np.count_nonzero(positive))
            if hits == 0:
                continue
            fpr = amq.expected_fpr()
            if correct_bias and fpr < 1.0:
                weight = max(0.0, (hits - positive.size * fpr) / ((1.0 - fpr) * hits))
            else:
                weight = 1.0
            # Corners: record vertex v (ghost), owned u, positives w.
            delta.credit(ctx, lg.slots_of([v]), weight * hits)
            delta.local[u - lg.vlo] += weight * hits
            delta.credit(ctx, send_slots[a_u][positive], weight)
        yield

    yield from delta.push_back(ctx, "amq-delta")
    my_sum = float(delta.local.sum())
    grand = yield from allreduce(ctx, my_sum, lambda x, y: x + y)
    lcc = lcc_from_delta(delta.local, lg.degrees)
    return PEApproxLcc(delta=delta.local, lcc=lcc, estimate_total=float(grand) / 3.0)


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
