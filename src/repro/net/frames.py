"""Flat packed message frames: the struct-of-arrays wire format.

The counting kernels are batch-vectorized, but a message path that
builds one :class:`Record` dataclass per cut arc pays Python's
per-object overhead on every benchmark.  A :class:`RecordFrame`
represents a whole batch of records as four contiguous NumPy arrays —
the same struct-of-arrays layout the intersection kernels already use
— so the sender builds it with array ops, the wire carries four arrays
instead of N dataclasses (which is also what :class:`ProcessMachine`
pickles), and the receiver feeds it straight into the batched kernels.

The accounting invariant
------------------------
``RecordFrame.words`` charges **exactly** what the equivalent list of
:class:`Record` objects charges: per record, the neighborhood entries
plus :data:`~repro.net.messages.HEADER_WORDS`, plus one extra word when
the record is targeted.  Simulated costs, volume metrics, and the
δ-threshold flush semantics of the aggregation queue are therefore
bit-identical between the two representations (property-tested in
``tests/test_frames.py``; see ``docs/PERFORMANCE.md``).

A broadcast record (the surrogate shape ``(v, A(v))``) stores a
``target`` of −1; a targeted record (the Algorithm 2 shape
``((v, u), A(v))``) stores the owned endpoint ``u``.  The approximate
global phase (:mod:`repro.core.approx`) sends a third shape in the same
frames: the block is a filter's wire words (a Bloom filter's bits, or
a single-shot filter's Rice code) and then its targets, and the target
field holds ``|A(v)|``.

Read-only views
---------------
The aggregation queue gathers each posted neighborhood once, from the
sender's CSR (:func:`gather_blocks`), and every frame it flushes is a
set of slices of that one gather.  Frames sent to different PEs
therefore share a base array, so the queue marks the gathered arrays
read-only (as are :func:`merge_frames`' results and the shm pool's
views): an in-place write raises instead of corrupting another PE's
frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .messages import HEADER_WORDS

__all__ = [
    "Record",
    "RecordFrame",
    "ForwardFrame",
    "merge_frames",
    "concat_xadj",
    "gather_blocks",
]

#: Sentinel in ``RecordFrame.targets`` marking a broadcast record.
BROADCAST = -1


@dataclass(frozen=True)
class Record:
    """One application record: a vertex and (some of) its neighborhood.

    ``words`` counts the neighborhood entries plus the
    :data:`~repro.net.messages.HEADER_WORDS` envelope (vertex id +
    length field), matching how the paper measures communication
    volume in machine words.

    ``target`` distinguishes the two message shapes of the paper:
    Algorithm 2 sends ``((v, u), N_v^+)`` — the receiver intersects for
    that single edge ``(v, u)`` — whereas the surrogate-optimized
    algorithms send ``(v, A(v))`` once per destination PE and the
    receiver loops over *all* its local ``u ∈ A(v)``.  ``target=None``
    selects the latter; a vertex id costs one extra word on the wire.
    """

    vertex: int
    neighbors: np.ndarray
    target: int | None = None

    @property
    def words(self) -> int:
        """Charged size of this record in machine words."""
        extra = 0 if self.target is None else 1
        return int(self.neighbors.size) + HEADER_WORDS + extra


def concat_xadj(sizes: np.ndarray) -> np.ndarray:
    """Offsets array for a batch of variable-length blocks."""
    sizes = np.asarray(sizes, dtype=np.int64)
    xadj = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=xadj[1:])
    return xadj


def gather_blocks(
    xadj: np.ndarray, adjncy: np.ndarray, block_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather CSR blocks ``adjncy[xadj[i]:xadj[i+1]]`` for many ``i`` at once.

    Returns ``(concat, out_xadj)`` in the batch layout the intersection
    kernels expect — the vectorized equivalent of looping
    ``[adjncy[xadj[i]:xadj[i+1]] for i in block_ids]``.
    """
    xadj = np.asarray(xadj, dtype=np.int64)
    adjncy = np.asarray(adjncy, dtype=np.int64)
    block_ids = np.asarray(block_ids, dtype=np.int64)
    sizes = xadj[block_ids + 1] - xadj[block_ids]
    out_xadj = concat_xadj(sizes)
    total = int(out_xadj[-1])
    if total == 0:
        return np.empty(0, dtype=np.int64), out_xadj
    # Global position of output slot j in block b: xadj[b] + (j - out_xadj[b]).
    positions = np.repeat(xadj[block_ids] - out_xadj[:-1], sizes)
    positions += np.arange(total, dtype=np.int64)
    return adjncy[positions], out_xadj


@dataclass(frozen=True)
class RecordFrame:
    """A batch of records packed as four contiguous arrays.

    Record ``i`` is ``(vertices[i], targets[i],
    neighbors[xadj[i]:xadj[i+1]])`` with ``targets[i] == -1`` meaning
    broadcast; ``xadj[0] == 0``.  Frames are frozen, and the ones the
    message plane produces hold read-only arrays, often views of one
    sender-side gather shared with other frames (see the module notes):
    consumers read them and never write in place.

    The sequence protocol (``len``, iteration, indexing) yields
    :class:`Record` views for object-at-a-time consumers (tests,
    diagnostics) — but hot paths must use the arrays directly (see
    ``docs/PERFORMANCE.md``).
    """

    vertices: np.ndarray
    targets: np.ndarray
    xadj: np.ndarray
    neighbors: np.ndarray

    @classmethod
    def empty(cls) -> "RecordFrame":
        """The zero-record frame."""
        z = np.empty(0, dtype=np.int64)
        return cls(z, z.copy(), np.zeros(1, dtype=np.int64), z.copy())

    @classmethod
    def from_records(cls, records: Iterable[Record]) -> "RecordFrame":
        """Pack a list of :class:`Record` objects (legacy adapter)."""
        records = list(records)
        blocks = [np.asarray(r.neighbors, dtype=np.int64) for r in records]
        return cls(
            np.array([r.vertex for r in records], dtype=np.int64),
            np.array(
                [BROADCAST if r.target is None else r.target for r in records],
                dtype=np.int64,
            ),
            concat_xadj([b.size for b in blocks]),
            np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64),
        )

    @property
    def num_records(self) -> int:
        """Number of records in the frame."""
        return int(self.vertices.size)

    @property
    def words(self) -> int:
        """Charged wire size — identical to the equivalent Record list."""
        return (
            int(self.neighbors.size)
            + HEADER_WORDS * self.num_records
            + int(np.count_nonzero(self.targets >= 0))
        )

    def record_words(self) -> np.ndarray:
        """Per-record charged words (the flush-threshold quantity)."""
        return (
            np.diff(self.xadj)
            + np.int64(HEADER_WORDS)
            + (self.targets >= 0).astype(np.int64)
        )

    def record(self, i: int) -> Record:
        """Record ``i`` as a :class:`Record` view (no copy of neighbors)."""
        t = int(self.targets[i])
        return Record(
            int(self.vertices[i]),
            self.neighbors[int(self.xadj[i]) : int(self.xadj[i + 1])],
            target=None if t == BROADCAST else t,
        )

    def to_records(self) -> list[Record]:
        """Expand into per-record objects (legacy adapter; cold paths only)."""
        return [self.record(i) for i in range(self.num_records)]

    def __len__(self) -> int:
        return self.num_records

    def __iter__(self) -> Iterator[Record]:
        for i in range(self.num_records):
            yield self.record(i)

    def __getitem__(self, i: int) -> Record:
        return self.record(int(i))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RecordFrame({self.num_records} records, "
            f"{int(self.neighbors.size)} neighbor words)"
        )


@dataclass(frozen=True)
class ForwardFrame:
    """A frame wrapped with per-record final destinations (grid row hop).

    One routing word per record on the wire; the proxy regroups by
    ``final_dests`` without unpacking a single record object.
    """

    final_dests: np.ndarray
    frame: RecordFrame

    @property
    def words(self) -> int:
        """Wire size: the inner frame plus one routing word per record."""
        return self.frame.words + int(self.final_dests.size)


def merge_frames(parts: Iterable[RecordFrame | ForwardFrame]) -> RecordFrame | ForwardFrame:
    """Concatenate frames (in order) into one frame.

    Grid row-hop :class:`ForwardFrame` parts merge into one
    ``ForwardFrame`` (their ``final_dests`` concatenated too); mixing
    them with plain parts raises :class:`ValueError`.  A lone part is
    returned as is; several are copied once into fresh read-only
    arrays, and none give the empty frame.
    """
    parts = list(parts)
    if len(parts) == 1:
        return parts[0]
    forward = sum(isinstance(part, ForwardFrame) for part in parts)
    if forward == 0:
        return _concat(parts)
    if forward < len(parts):
        raise ValueError("cannot merge ForwardFrame and RecordFrame parts")
    return ForwardFrame(
        np.concatenate([part.final_dests for part in parts]),
        _concat([part.frame for part in parts]),
    )


def _concat(frames: list[RecordFrame]) -> RecordFrame:
    """One frame holding the records of ``frames`` in order.

    Every array is copied once, and ``xadj`` in one pass: each frame's
    ``xadj[1:]`` shifted by the neighbor words of the frames before it.
    """
    if not frames:
        return RecordFrame.empty()
    counts = [f.num_records for f in frames]
    xadj = np.zeros(sum(counts) + 1, dtype=np.int64)
    np.concatenate([f.xadj[1:] for f in frames], out=xadj[1:])
    xadj[1:] += np.repeat(concat_xadj([f.neighbors.size for f in frames])[:-1], counts)
    merged = RecordFrame(
        np.concatenate([f.vertices for f in frames]),
        np.concatenate([f.targets for f in frames]),
        xadj,
        np.concatenate([f.neighbors for f in frames]),
    )
    for a in (merged.vertices, merged.targets, merged.xadj, merged.neighbors):
        a.flags.writeable = False
    return merged
