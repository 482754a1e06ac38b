"""Grid-based indirect message delivery (paper Section IV-B, Fig. 3).

PEs are arranged in a logical 2D grid with
``cols = floor(sqrt(p) + 1/2)`` columns (round to nearest integer) and
``ceil(p / cols)`` rows; the last row may be partially filled.  A
message from ``P_{i,j}`` to ``P_{k,l}`` first travels along row ``i``
to the *proxy* ``P_{i,l}``, which forwards it along column ``l``.
Every PE then has only ``O(sqrt(p))`` communication partners, cutting
the startup-dominated cost of many small messages at the price of (at
most) doubling the volume.

When the sender sits in the partial last row and the natural proxy
``P_{i,l}`` does not exist, the paper transposes the last row and
appends it as a column on the right: sender ``P_{i',j'}`` is treated as
occupying virtual position ``(j', cols)``, so its proxy becomes
``P_{j',l}`` — always a valid PE (row ``j'`` is full because only the
last row is partial).

:class:`GridRouter` pairs the scheme with the aggregation queue of
:mod:`repro.net.aggregation`: row-hop messages aggregate per proxy, the
proxy re-aggregates everything bound for the same final destination
(the "all messages from a processor row designated to P_{k,l} get
aggregated at the proxy" effect), and the threshold keeps memory
linear.  Neither hop copies a neighborhood before its queue gathers
it: the sender's two queues gather from the same source CSR, and a
proxy re-posts a received (read-only) frame as the source CSR of its
column-hop ``post_many``.

Indirect hops ride ordinary machine messages, so under the contended
network model (:class:`repro.sim.network.Network`) *each hop* claims
link capacity separately: funnelling a whole PE row's traffic through
one proxy serializes it on that proxy node's uplink/downlink — the
congestion effect the flat alpha-beta model cannot see, and exactly
what the indirection-vs-direct trade of Section IV-B is about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator

import numpy as np

from .aggregation import BufferedMessageQueue
from .frames import ForwardFrame, RecordFrame
from .machine import PEContext
from .messages import Tag

__all__ = ["Grid", "GridRouter"]


@dataclass(frozen=True)
class Grid:
    """The logical 2D arrangement of ``p`` PEs."""

    num_pes: int
    cols: int

    @classmethod
    def of(cls, num_pes: int) -> "Grid":
        """Grid with ``floor(sqrt(p) + 1/2)`` columns (paper's rounding)."""
        if num_pes < 1:
            raise ValueError("need at least one PE")
        cols = max(1, int(math.floor(math.sqrt(num_pes) + 0.5)))
        return cls(num_pes=num_pes, cols=cols)

    @property
    def rows(self) -> int:
        """Number of grid rows (last one possibly partial)."""
        return -(-self.num_pes // self.cols)

    def position(self, rank: int) -> tuple[int, int]:
        """Grid coordinates ``(row, col)`` of a PE."""
        if not (0 <= rank < self.num_pes):
            raise ValueError(f"invalid rank {rank}")
        return divmod(rank, self.cols)

    def rank_at(self, row: int, col: int) -> int:
        """PE id at grid coordinates (must exist)."""
        rank = row * self.cols + col
        if not (0 <= col < self.cols and 0 <= rank < self.num_pes):
            raise ValueError(f"no PE at ({row}, {col})")
        return rank

    def proxy(self, src: int, dest: int) -> int:
        """The intermediate hop for a ``src -> dest`` message.

        Returns ``dest`` itself when no intermediate hop is needed
        (same row, same column, or the proxy coincides with either
        endpoint).
        """
        si, sj = self.position(src)
        di, dj = self.position(dest)
        if si == di or sj == dj:
            return dest
        candidate = si * self.cols + dj
        if candidate >= self.num_pes:
            # Partial-last-row fix: treat src as sitting at the virtual
            # transposed position (sj, cols); proxy along that row.
            candidate = sj * self.cols + dj
        if candidate in (src, dest):
            return dest
        return candidate

    def proxies(self, src: int) -> np.ndarray:
        """:meth:`proxy` from ``src`` to every rank, as one array."""
        (si, sj), dest = self.position(src), np.arange(self.num_pes, dtype=np.int64)
        di, dj = np.divmod(dest, self.cols)
        hop = np.where(si * self.cols + dj < self.num_pes, si * self.cols + dj, sj * self.cols + dj)
        return np.where((di == si) | (dj == sj) | (hop == src) | (hop == dest), dest, hop)


class GridRouter:
    """Two-hop aggregated routing over the logical grid.

    Drop-in alternative to a plain :class:`BufferedMessageQueue` for
    one-shot exchanges: ``post_many`` during the send phase, then a
    single collective :meth:`finalize` flushes, lets proxies forward,
    and returns the records addressed to this PE.
    """

    def __init__(self, ctx: PEContext, tag: Tag, threshold_words: int):
        self.ctx = ctx
        self.grid = Grid.of(ctx.num_pes)
        self._row_tag: Tag = ("grid-row", tag)
        self._col_tag: Tag = ("grid-col", tag)
        self._row_queue = BufferedMessageQueue(ctx, self._row_tag, threshold_words)
        self._col_queue = BufferedMessageQueue(ctx, self._col_tag, threshold_words)
        self._proxy_of = self.grid.proxies(ctx.rank)
        ctx.charge(ctx.num_pes)  # the O(p) proxy table above
        #: Application records posted at this PE (a proxy's re-posts
        #: are not counted).
        self.records_posted = 0

    def post_many(
        self,
        dest_ranks: np.ndarray,
        vertices: np.ndarray,
        targets: np.ndarray,
        slots: np.ndarray,
        xadj: np.ndarray,
        adj: np.ndarray,
    ) -> None:
        """Route a whole batch of CSR slot references at once.

        Splits the batch by first hop: records whose proxy is their
        destination go straight on the column queue; the rest travel
        the row queue as a :class:`~repro.net.frames.ForwardFrame`
        (one routing word per record).  Both queues gather from the
        same source CSR.
        """
        dest_ranks = np.asarray(dest_ranks, dtype=np.int64)
        self.records_posted += int(dest_ranks.size)
        hops = self._proxy_of[dest_ranks]
        direct = hops == dest_ranks
        idx = np.flatnonzero(direct)
        self._col_queue.post_many(
            dest_ranks[idx], vertices[idx], targets[idx], slots[idx], xadj, adj
        )
        idx = np.flatnonzero(~direct)
        self._row_queue.post_many(
            hops[idx], vertices[idx], targets[idx], slots[idx], xadj, adj,
            final_dests=dest_ranks[idx],
        )

    def _forward(self, received: RecordFrame | ForwardFrame) -> None:
        """Proxy step: re-post the row-hop frame toward final destinations.

        Records already at their destination take the queue's self path:
        handed back by ``finalize`` at zero wire cost.
        """
        if not isinstance(received, ForwardFrame):
            if received.num_records:
                raise TypeError("row hop must carry ForwardFrame")
            return
        frame = received.frame
        self._col_queue.post_many(
            received.final_dests,
            frame.vertices,
            frame.targets,
            np.arange(frame.num_records, dtype=np.int64),
            frame.xadj,
            frame.neighbors,
        )

    def finalize(self) -> Generator[None, None, RecordFrame]:
        """Flush, forward at proxies, and return records for this PE.

        Collective.  Two aggregation rounds: row flush + barrier, then
        each PE re-posts the row records it proxied to their final
        destinations in one batch (see :meth:`_forward`), column flush +
        barrier, and a final drain.
        """
        with self.ctx.span("grid-row-hop"):
            self._forward((yield from self._row_queue.finalize()))
        with self.ctx.span("grid-col-hop"):
            records = yield from self._col_queue.finalize()
        return records
