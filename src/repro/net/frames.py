"""Flat packed message frames: the struct-of-arrays wire format.

A :class:`RecordFrame` holds a whole batch of records as four
contiguous NumPy arrays — the same struct-of-arrays layout the
intersection kernels already use — so the sender builds it with array
ops, the wire carries four arrays (which is also what
:class:`ProcessMachine` pickles), and the receiver feeds it straight
into the batched kernels.  Records exist only as rows of these arrays.

The accounting invariant
------------------------
:func:`record_words` is the one definition of a record's wire charge:
the block's words plus :data:`~repro.net.messages.HEADER_WORDS`, plus
one word when the record is targeted.  ``RecordFrame.words``, the
aggregation queue's flush planning and the engine's posted words all
call it, so simulated costs, volume metrics and the δ-threshold flush
semantics follow from one formula (see ``docs/PERFORMANCE.md``).

Read-only views
---------------
The aggregation queue gathers each posted neighborhood once, from the
sender's CSR (:func:`gather_blocks`), and every frame it flushes is a
slice of that one gather (:func:`group_frames`).  Frames sent to
different PEs therefore share a base array, so the gathered arrays are
read-only (as are :func:`merge_frames`' results and the shm pool's
views): an in-place write raises instead of corrupting another PE's
frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .messages import HEADER_WORDS

__all__ = [
    "RecordFrame",
    "ForwardFrame",
    "record_words",
    "group_frames",
    "merge_frames",
    "concat_xadj",
    "gather_blocks",
]

#: Sentinel in ``RecordFrame.targets`` marking a broadcast record.
BROADCAST = -1


def record_words(sizes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Charged wire words of each record: block + header + target word.

    A record is a vertex and a block of words, usually (some of) its
    neighborhood; ``sizes`` are the block lengths.  The
    :data:`~repro.net.messages.HEADER_WORDS` envelope (vertex id +
    length field) matches how the paper measures communication volume
    in machine words.

    ``targets`` distinguishes the two message shapes of the paper:
    Algorithm 2 sends ``((v, u), N_v^+)`` — the receiver intersects for
    that single edge ``(v, u)``, and the target ``u`` costs one extra
    word — whereas the surrogate-optimized algorithms send
    ``(v, A(v))`` once per destination PE with target
    :data:`BROADCAST` (−1), and the receiver loops over *all* its local
    ``u ∈ A(v)``.  The approximate global phase
    (:mod:`repro.core.approx`) sends a third shape: the block is a
    filter's wire words (a Bloom filter's bits, or a single-shot
    filter's Rice code) and then its targets, and the target field
    holds ``|A(v)|``.
    """
    return sizes + np.int64(HEADER_WORDS) + (targets >= 0)


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

    The ``i``-th record is ``(vertices[i], targets[i],
    neighbors[xadj[i]:xadj[i+1]])`` with ``targets[i] == -1`` meaning
    broadcast; ``xadj[0] == 0``.  Frames are frozen, and the ones the
    message plane produces hold read-only arrays, often views of one
    sender-side gather shared with other frames (see the module notes):
    consumers read them and never write in place.
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

    @property
    def num_records(self) -> int:
        """Number of records in the frame."""
        return int(self.vertices.size)

    @property
    def words(self) -> int:
        """Charged wire size: the :func:`record_words` of every record."""
        return int(record_words(np.diff(self.xadj), self.targets).sum())


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


def group_frames(
    keys: np.ndarray,
    num_keys: int,
    vertices: np.ndarray,
    targets: np.ndarray,
    slots: np.ndarray,
    xadj: np.ndarray,
    adj: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list[RecordFrame]]:
    """Records grouped by key into one read-only frame per run.

    The ``i``-th record is ``(vertices[i], targets[i],
    adj[xadj[slots[i]]:xadj[slots[i]+1]])`` with key ``keys[i]`` in
    ``[0, num_keys)``.  One stable sort orders the records by key, and
    one :func:`gather_blocks` copies every block straight into that
    order; each run of equal keys becomes a frame of read-only slices
    of that gather, with its own rebased ``xadj`` (a shared rebased
    array would stay pinned by any frame still alive, raising peak
    memory).

    Returns ``(order, starts, frames)``: the sorting permutation, the
    run bounds in sorted order (``starts[-1] == keys.size``) and the
    frames in ascending key order.
    """
    # numpy sorts 16-bit keys stably by radix sort, in linear time.
    small = num_keys <= 1 << 16
    order = np.argsort(keys.astype(np.uint16) if small else keys, kind="stable")
    neighbors, gxadj = gather_blocks(xadj, adj, slots[order])
    vertices, targets = vertices[order], targets[order]
    for a in (vertices, targets, neighbors):
        a.flags.writeable = False
    starts = np.append(np.flatnonzero(np.diff(keys[order], prepend=-1)), keys.size)
    bounds, offsets = starts.tolist(), gxadj[starts].tolist()
    frames = []
    for lo, hi, first, end in zip(bounds, bounds[1:], offsets, offsets[1:]):
        rebased = gxadj[lo : hi + 1] - first
        rebased.flags.writeable = False
        frames.append(RecordFrame(vertices[lo:hi], targets[lo:hi], rebased, neighbors[first:end]))
    return order, starts, frames


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
    vertices = [f.vertices for f in frames]
    neighbors = [f.neighbors for f in frames]
    counts = np.fromiter(map(len, vertices), np.int64, len(frames))
    shifts = concat_xadj(np.fromiter(map(len, neighbors), np.int64, len(frames)))
    xadj = np.zeros(int(counts.sum()) + 1, dtype=np.int64)
    np.concatenate([f.xadj[1:] for f in frames], out=xadj[1:])
    xadj[1:] += np.repeat(shifts[:-1], counts)
    merged = RecordFrame(
        np.concatenate(vertices),
        np.concatenate([f.targets for f in frames]),
        xadj,
        np.concatenate(neighbors),
    )
    for a in (merged.vertices, merged.targets, merged.xadj, merged.neighbors):
        a.flags.writeable = False
    return merged
