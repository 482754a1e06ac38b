"""Dynamic buffered message queues (paper Section IV-A).

DITRIC's message aggregation: each PE keeps one growable buffer per
communication partner and appends application *records* (a vertex id
plus its out-neighborhood) to them.  When the total buffered size
exceeds a threshold ``delta``, all buffers are flushed as one
aggregated message per destination, implemented in the real system
with double buffering over non-blocking sends.

Setting ``delta = O(|E_i|)`` bounds the memory used for aggregation by
the local input size — the paper's linear-memory guarantee, in contrast
to TriC's static single-shot buffers (reproduced in
:mod:`repro.baselines.tric`) which can exceed memory because the
*total* communication volume is superlinear.

In the simulation a non-blocking send completes instantly at
alpha+beta*l model cost, so double buffering has no separate timing
effect; what the queue faithfully reproduces is message *counts*,
aggregated message *sizes*, and the buffer high-water mark (the
memory claim).

A ``threshold_words`` of 0 degenerates to one message per record —
exactly the "no aggregation" configuration of Fig. 2.

Wire format
-----------
Every payload is a :class:`~repro.net.frames.RecordFrame` (a
:class:`~repro.net.frames.ForwardFrame` on the grid row hop), one per
destination and flush.  :meth:`BufferedMessageQueue.post_many` takes
records as slot references into a source CSR and never materializes
per-record objects.  It plans all flush points of a call from the block
sizes, sorts the batch once by (segment, destination) and gathers every
block once, straight into that order; the flushed frames are read-only
views of that one gather.  Message counts, sizes, and the buffer
high-water mark are bit-identical to posting the same records one
``post_many`` call at a time (see ``docs/PERFORMANCE.md``).  A record's
block is any word sequence: a neighborhood, or an AMQ filter's words
followed by its targets (:mod:`repro.core.approx`).
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from .comm import barrier, drain
from .frames import ForwardFrame, RecordFrame, group_frames, merge_frames, record_words
from .machine import PEContext
from .messages import Tag

__all__ = ["RecordFrame", "BufferedMessageQueue"]


class BufferedMessageQueue:
    """Per-destination aggregation buffers with a global flush threshold.

    Parameters
    ----------
    ctx:
        The owning PE's context.
    tag:
        Tag for the aggregated messages.
    threshold_words:
        Flush when the *total* buffered words exceed this (the paper's
        ``delta``).  0 means flush on every post (no aggregation).
    """

    def __init__(self, ctx: PEContext, tag: Tag, threshold_words: int):
        if threshold_words < 0:
            raise ValueError("threshold must be non-negative")
        self.ctx = ctx
        self.tag = tag
        self.threshold_words = int(threshold_words)
        #: Per destination, the buffered frames in post order: read-only
        #: slices of ``post_many``'s gathers (``ForwardFrame`` on the
        #: grid row hop).
        self._chunks: dict[int, list[RecordFrame | ForwardFrame]] = {}
        self._buffer_words: dict[int, int] = {}
        self._total_words = 0
        self._local: list = []
        self.flushes = 0
        self.records_posted = 0

    def post_many(
        self,
        dest_ranks: np.ndarray,
        vertices: np.ndarray,
        targets: np.ndarray,
        slots: np.ndarray,
        xadj: np.ndarray,
        adj: np.ndarray,
        *,
        final_dests: np.ndarray | None = None,
    ) -> None:
        """Post a whole batch of records as references into a source CSR.

        The ``i``-th record is ``(vertices[i], targets[i],
        adj[xadj[slots[i]]:xadj[slots[i]+1]])`` bound for
        ``dest_ranks[i]`` (``targets[i] == -1`` for broadcast); slots may
        repeat.  With ``final_dests`` the records are grid row-hop
        forwards: ``dest_ranks`` holds the proxy and each record is
        charged one extra routing word.

        Equivalent to posting the records one per call in batch order —
        same flush boundaries, per-destination record order, buffer
        high-water marks, and wire words — without a Python loop over
        records.  Flush points are found from the block sizes alone
        (:func:`~repro.net.frames.record_words`), by ``searchsorted`` on
        the cumulative word counts (each threshold-crossing record
        closes a segment).  :func:`~repro.net.frames.group_frames` then
        sorts the records by (segment, destination) and gathers every
        neighborhood once, straight into that order: each group is
        buffered as a read-only frame slice of the gather, and a
        destination's lone slice leaves as is.
        """
        dest_ranks = np.asarray(dest_ranks, dtype=np.int64)
        k = int(dest_ranks.size)
        if k == 0:
            return
        vertices = np.asarray(vertices, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        xadj = np.asarray(xadj, dtype=np.int64)
        if final_dests is not None:
            final_dests = np.asarray(final_dests, dtype=np.int64)
        self.records_posted += k

        self_mask = dest_ranks == self.ctx.rank
        if np.any(self_mask):
            idx = np.flatnonzero(self_mask)
            _, _, (local,) = group_frames(
                np.zeros(idx.size, dtype=np.int64), 1,
                vertices[idx], targets[idx], slots[idx], xadj, adj,
            )
            if final_dests is not None:
                local = ForwardFrame(final_dests[idx], local)
            self._local.append(local)
            idx = np.flatnonzero(~self_mask)
            dest_ranks, vertices, targets, slots = (
                a[idx] for a in (dest_ranks, vertices, targets, slots)
            )
            if final_dests is not None:
                final_dests = final_dests[idx]

        n = int(dest_ranks.size)
        if n == 0:
            return
        rw = record_words(xadj[slots + 1] - xadj[slots], targets)
        if final_dests is not None:
            rw += 1  # the routing word
        cw = np.cumsum(rw)

        # Plan the flush points: the first record whose cumulative total
        # strictly exceeds the threshold closes a segment, and the buffer
        # restarts empty after it.
        stops: list[int] = []
        base, prev = self._total_words, 0
        while (end := int(np.searchsorted(cw, self.threshold_words - base + prev, "right"))) < n:
            stops.append(end + 1)
            base, prev = 0, int(cw[end])

        # Every (segment, dest) group becomes one frame, in batch order.
        seg = np.searchsorted(np.asarray(stops, dtype=np.int64), np.arange(n), "right")
        order, starts, chunks = group_frames(
            seg * self.ctx.num_pes + dest_ranks, (len(stops) + 1) * self.ctx.num_pes,
            vertices, targets, slots, xadj, adj,
        )
        fd = final_dests[order] if final_dests is not None else None
        if fd is not None:
            fd.flags.writeable = False
        group_dests = dest_ranks[order[starts[:-1]]].tolist()
        group_words = np.add.reduceat(rw[order], starts[:-1]).tolist()
        starts = starts.tolist()
        flush_after = set(stops)
        for g, (dest, words, chunk) in enumerate(zip(group_dests, group_words, chunks)):
            hi = starts[g + 1]
            if fd is not None:
                chunk = ForwardFrame(fd[starts[g] : hi], chunk)
            self._chunks.setdefault(dest, []).append(chunk)
            self._buffer_words[dest] = self._buffer_words.get(dest, 0) + words
            self._total_words += words
            if hi in flush_after:
                # Running totals rise monotonically within a segment, so
                # one high-water sample at its end equals per-post sampling.
                self.ctx.metrics.note_buffer(self._total_words)
                self.flush()
        self.ctx.metrics.note_buffer(self._total_words)

    def flush(self) -> None:
        """Send every non-empty buffer as one aggregated message.

        Each destination's buffered slices leave as one frame
        (:func:`~repro.net.frames.merge_frames`).  These
        sends use the machine's configured transport, so under a
        :mod:`repro.faults` plan the reliable layer sequences and
        retransmits them — fault-tolerant programs may use the queue
        freely (no :func:`~repro.net.reliable.reliable_send` wrapper
        needed; lint rule R5 only patrols hand-written ``ctx.send``).
        """
        if not self._chunks:
            return
        dests = sorted(self._chunks)
        frames = [merge_frames(self._chunks[dest]) for dest in dests]
        self.ctx.send_many(dests, self.tag, frames, [self._buffer_words[d] for d in dests])
        self._chunks = {}
        self._buffer_words = {}
        self._total_words = 0
        self.flushes += 1

    def finalize(self) -> Generator[None, None, RecordFrame | ForwardFrame]:
        """Flush remaining buffers, synchronize, and drain received records.

        The barrier plays the role of NBX termination detection: after
        it completes, every PE has posted (and, in the simulation,
        delivered) all its sends, so the inbox drain is complete.
        Must be called by all PEs (collectively).

        Returns everything received (and self-posted) as one merged
        frame, in arrival order — a :class:`ForwardFrame` on the grid
        row hop.  A lone received frame comes back as is, a read-only
        view of its sender's gather.
        """
        self.flush()
        # NBX discipline (see sparse_alltoall): our flushed frames must
        # finish delivery before the barrier concludes the exchange.
        yield from self.ctx.sync_sends()
        yield from barrier(self.ctx)
        parts = [msg.payload for msg in drain(self.ctx, self.tag)]
        parts.extend(self._local)
        self._local = []
        return merge_frames(parts)
