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
``((v, u), A(v))``) stores the owned endpoint ``u``.
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
    "FrameBuilder",
    "merge_frames",
    "flatten_records",
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


def _as_i64(a) -> np.ndarray:
    return np.asarray(a, dtype=np.int64)


@dataclass(frozen=True)
class RecordFrame:
    """A batch of records packed as four contiguous arrays.

    Record ``i`` is ``(vertices[i], targets[i],
    neighbors[xadj[i]:xadj[i+1]])`` with ``targets[i] == -1`` meaning
    broadcast.  Frames are frozen: builders and mergers always allocate
    fresh arrays, so a frame can be shared between PEs of the simulated
    machine without aliasing hazards.

    The sequence protocol (``len``, iteration, indexing) yields
    :class:`Record` views so object-at-a-time consumers (the AMQ
    receiver loop, tests, diagnostics) keep working unchanged — but hot
    paths must use the arrays directly (see ``docs/PERFORMANCE.md``).
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
        n = len(records)
        if n == 0:
            return cls.empty()
        vertices = np.fromiter((r.vertex for r in records), dtype=np.int64, count=n)
        targets = np.fromiter(
            (r.target if r.target is not None else BROADCAST for r in records),
            dtype=np.int64,
            count=n,
        )
        sizes = np.fromiter((r.neighbors.size for r in records), dtype=np.int64, count=n)
        xadj = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=xadj[1:])
        neighbors = (
            np.concatenate([_as_i64(r.neighbors) for r in records])
            if int(xadj[-1])
            else np.empty(0, dtype=np.int64)
        )
        return cls(vertices, targets, xadj, neighbors)

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

    def select(self, idx: np.ndarray) -> "RecordFrame":
        """Sub-frame of the records listed in ``idx`` (in that order)."""
        idx = _as_i64(idx)
        sizes = self.xadj[idx + 1] - self.xadj[idx]
        xadj = np.zeros(idx.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=xadj[1:])
        total = int(xadj[-1])
        if total:
            starts = np.repeat(self.xadj[idx], sizes)
            within = np.arange(total, dtype=np.int64) - np.repeat(xadj[:-1], sizes)
            neighbors = self.neighbors[starts + within]
        else:
            neighbors = np.empty(0, dtype=np.int64)
        return RecordFrame(self.vertices[idx], self.targets[idx], xadj, neighbors)

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

    The vectorized counterpart of wrapping each record in a
    :class:`~repro.net.indirect.ForwardRecord`: one routing word per
    record on the wire, and the proxy regroups by ``final_dests``
    without unpacking a single record object.
    """

    final_dests: np.ndarray
    frame: RecordFrame

    @property
    def words(self) -> int:
        """Wire size: the inner frame plus one routing word per record."""
        return self.frame.words + int(self.final_dests.size)


def merge_frames(parts: Iterable) -> RecordFrame | ForwardFrame:
    """Concatenate frames and records (in order) into one frame.

    Accepts any mix of :class:`RecordFrame`, :class:`Record`, and
    (nested) lists of either — the payload shapes the aggregation queue
    produces — and returns a single frame covering every record in
    encounter order.  Grid row-hop :class:`ForwardFrame` parts merge
    into one ``ForwardFrame`` and must not be mixed with plain parts.
    """
    builder = FrameBuilder()
    for part in _iter_parts(parts):
        if isinstance(part, (RecordFrame, ForwardFrame)):
            builder.append_frame(part)
        else:
            builder.append_record(part)
    return builder.build()


def flatten_records(parts: Iterable) -> list:
    """Flatten payloads into a flat list, expanding frames to records.

    The legacy-shaped counterpart of :func:`merge_frames`, used when a
    batch mixes frameable records with opaque payloads (e.g.
    ``AmqRecord``) that must come back as the objects they were posted
    as.
    """
    out: list = []
    for part in _iter_parts(parts):
        if isinstance(part, RecordFrame):
            out.extend(part.to_records())
        else:
            out.append(part)
    return out


def _iter_parts(parts: Iterable):
    for part in parts:
        if isinstance(part, (list, tuple)):
            yield from _iter_parts(part)
        else:
            yield part


class FrameBuilder:
    """Accumulates record chunks and packs them into one frame.

    Chunks are appended as arrays (from ``post_many``) or as individual
    :class:`Record` objects (legacy ``post``); :meth:`build`
    concatenates everything in append order.  With ``final_dests``
    chunks the builder produces a :class:`ForwardFrame` instead (grid
    row hop); the two chunk kinds must not be mixed in one builder.
    """

    def __init__(self) -> None:
        self._vertices: list[np.ndarray] = []
        self._targets: list[np.ndarray] = []
        self._sizes: list[np.ndarray] = []
        self._neighbors: list[np.ndarray] = []
        self._final_dests: list[np.ndarray] | None = None
        self._num_records = 0

    def __bool__(self) -> bool:
        return self._num_records > 0

    @property
    def num_records(self) -> int:
        """Records appended so far."""
        return self._num_records

    def append_chunk(
        self,
        vertices: np.ndarray,
        targets: np.ndarray,
        sizes: np.ndarray,
        neighbors: np.ndarray,
        final_dests: np.ndarray | None = None,
    ) -> None:
        """Append a batch of records given as raw arrays."""
        self._vertices.append(vertices)
        self._targets.append(targets)
        self._sizes.append(sizes)
        self._neighbors.append(neighbors)
        if final_dests is not None:
            if self._final_dests is None:
                if self._num_records:
                    raise ValueError("cannot mix forward and plain chunks")
                self._final_dests = []
            self._final_dests.append(final_dests)
        elif self._final_dests is not None:
            raise ValueError("cannot mix forward and plain chunks")
        self._num_records += int(vertices.size)

    def append_frame(self, frame: RecordFrame | ForwardFrame) -> None:
        """Append all records of an existing frame (with its routing words)."""
        final_dests = None
        if isinstance(frame, ForwardFrame):
            frame, final_dests = frame.frame, frame.final_dests
        self.append_chunk(
            frame.vertices,
            frame.targets,
            np.diff(frame.xadj),
            frame.neighbors,
            final_dests=final_dests,
        )

    def append_record(self, record: Record) -> None:
        """Append one legacy :class:`Record` (packed on build)."""
        self.append_chunk(
            np.array([record.vertex], dtype=np.int64),
            np.array(
                [record.target if record.target is not None else BROADCAST],
                dtype=np.int64,
            ),
            np.array([record.neighbors.size], dtype=np.int64),
            _as_i64(record.neighbors),
        )

    def build(self) -> RecordFrame | ForwardFrame:
        """Pack everything appended so far into one frame (and reset)."""
        if self._num_records == 0:
            frame = RecordFrame.empty()
        else:
            sizes = np.concatenate(self._sizes)
            xadj = np.zeros(sizes.size + 1, dtype=np.int64)
            np.cumsum(sizes, out=xadj[1:])
            frame = RecordFrame(
                np.concatenate(self._vertices),
                np.concatenate(self._targets),
                xadj,
                np.concatenate(self._neighbors)
                if int(xadj[-1])
                else np.empty(0, dtype=np.int64),
            )
        final_dests = self._final_dests
        self.__init__()
        if final_dests is not None:
            return ForwardFrame(np.concatenate(final_dests), frame)
        return frame
