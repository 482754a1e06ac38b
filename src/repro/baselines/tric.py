"""TriC-like baseline (Ghosh & Halappanavar, HPEC 2020).

The paper characterizes TriC by three design choices it then observes
in the experiments:

* **no degree orientation** — TriC works with the implicit vertex-ID
  order, so out-neighborhoods of hub vertices are not shrunk and the
  intersection work on skewed graphs balloons;
* **static message aggregation** — all outgoing neighborhoods are
  buffered *in full* before a **single irregular all-to-all**; the
  buffer is never emptied mid-run, so per-PE memory grows with the
  (superlinear) communication volume and large/skewed inputs crash
  with out-of-memory errors (Section V-D/V-E);
* the single batched exchange means exactly ``p - 1`` messages per PE
  — unbeatable startup cost on inputs with tiny cuts (road networks),
  where TriC is initially the fastest code in Fig. 6.

This reproduction keeps all three properties: ID orientation built
without any preprocessing exchange, one dense all-to-all, and a
:class:`~repro.net.machine.OutOfMemoryError` when the staged buffer
exceeds the machine's per-PE budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from ..graphs.distributed import DistGraph
from ..net.comm import allreduce, alltoallv_dense
from ..net.frames import group_frames, merge_frames
from ..net.machine import PEContext
from ..core.engine import _cut_arcs, _local_phase_pairs, _surrogate_filter
from ..core.kernels import count_record_pairs
from ..core.preprocessing import orient_by_keys

__all__ = ["tric_program", "PETricCounts"]


@dataclass
class PETricCounts:
    """Per-PE outcome of the TriC-like baseline."""

    triangles_total: int
    local_count: int
    remote_count: int
    staged_words: int


def tric_program(
    ctx: PEContext, dist: DistGraph
) -> Generator[None, None, PETricCounts]:
    """SPMD program for the TriC-like baseline.

    Raises :class:`~repro.net.machine.OutOfMemoryError` when the
    statically staged send buffer exceeds ``spec.memory_words`` —
    reproducing TriC's crashes on large / skewed inputs.
    """
    lg = dist.view(ctx.rank)
    vlo, vhi = lg.vlo, lg.vhi
    bound = dist.num_vertices + 1

    with ctx.span("preprocessing"):
        # The plain vertex-ID order, A(v) = {u in N_v : u > v}: computable
        # without ghost degrees, which is why TriC has essentially no
        # preprocessing phase.
        og = orient_by_keys(ctx, lg, lg.owned_vertices(), lg.ghost_vertices)

    with ctx.span("local"):
        local_count = _local_phase_pairs(ctx, og, expanded=False)
        yield

    with ctx.span("global"):
        # Stage *everything* up front (static aggregation).
        oxadj, oadjncy = og.oxadj, lg.ids[og.oadjncy]
        c_src, _, dst_ranks = _cut_arcs(lg, oxadj, oadjncy)
        sends = _surrogate_filter(c_src, dst_ranks, enabled=True)
        ctx.charge(c_src.size)
        # One frame per destination: the surrogate records sorted
        # stably by destination, so each frame keeps the CSR order.
        slots, ranks = c_src[sends], dst_ranks[sends]
        order, starts, frames = group_frames(
            ranks, ctx.num_pes, vlo + slots, np.full(slots.size, -1, dtype=np.int64),
            slots, oxadj, oadjncy,
        )
        payloads = {
            dest: (frame, frame.words)
            for dest, frame in zip(ranks[order[starts[:-1]]].tolist(), frames)
        }
        staged_words = sum(words for _, words in payloads.values())
        ctx.metrics.note_buffer(staged_words)
        # The static buffer is never emptied before the exchange: if it
        # does not fit next to the local graph, the run dies — TriC's
        # observed failure mode on large/skewed inputs.
        ctx.check_memory(
            staged_words + lg.memory_words(),
            what="static TriC send buffer + local graph",
        )
        ctx.charge(staged_words)
        msgs = yield from alltoallv_dense(ctx, payloads, tag_label="tric")
        records = merge_frames(m.payload for m in msgs if m.payload is not None)
        remote_count = count_record_pairs(
            ctx, records, oxadj, oadjncy, vlo, vhi, bound
        )
        yield

    grand = yield from allreduce(
        ctx, local_count + remote_count, lambda a, b: a + b
    )
    return PETricCounts(
        triangles_total=int(grand),
        local_count=int(local_count),
        remote_count=int(remote_count),
        staged_words=staged_words,
    )
