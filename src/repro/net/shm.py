"""Zero-copy shared-memory frame pool for the process backend.

:class:`~repro.net.parallel.ProcessMachine` historically shipped every
flushed :class:`~repro.net.frames.RecordFrame` through a
``multiprocessing.SimpleQueue`` — a full pickle of the payload on the
sender, a trip through an OS pipe in 64 KiB chunks, and an unpickle on
the receiver.  For paper-scale instances the frame payloads dominate
that traffic, and serialization sits squarely on the critical path.

This module removes the serialization: frame payloads are *placed* into
``multiprocessing.shared_memory`` segments and the pipe carries only a
tiny ``(slot, offsets)`` descriptor.  Concretely:

* A :class:`SharedFramePool` is one shared-memory segment cut into
  fixed-size slots, fronted by a refcount table (also in shared
  memory) guarded by a cross-process lock.  Allocation finds a slot
  with refcount 0 and takes a reference; release drops the reference
  and a slot whose count returns to 0 becomes reusable.
* :meth:`SharedFramePool.encode` uses pickle **protocol 5 with
  out-of-band buffers**: the payload's array bodies never enter the
  pickle stream — they are copied once into a pool slot — and the
  remaining metadata pickle is a few hundred bytes.  Any payload shape
  works (frames, :class:`~repro.net.frames.ForwardFrame`, any object a
  program sends); payloads without array buffers simply are not
  worth a slot and travel the legacy path.
* :meth:`SharedFramePool.decode` reconstructs the payload with
  ``pickle.loads(meta, buffers=...)`` over **read-only views straight
  into the slot** — the receive side copies nothing.  The delivery's
  slot reference is dropped by a finalizer when the last view is
  garbage-collected, so the slot recycles exactly when the receiver
  drops the payload.
* When the pool is exhausted — or a payload exceeds the slot size —
  the sender **spills**: the message falls back to the ordinary
  pickled path, observably identical, just slower.  Spills are counted
  (:attr:`~repro.net.metrics.PEMetrics.shm_spills`) so the bench suite
  and the metrics layer can surface an undersized pool.

The same machinery publishes one-shot read-only objects — each
worker's local graph view — via :func:`publish_object` /
:func:`attach_object`.  There the receive side does *not* copy: the
reconstructed arrays are views straight into the segment, so ``p``
workers share one physical copy of the graph metadata instead of
unpickling ``p`` private ones.

Simulated accounting is computed *before* any of this runs (words,
message counts, clocks are charged at ``ctx.send``), so the transport
choice is invisible to the simulation — the equivalence suite in
``tests/test_equivalence.py`` pins that, and ``docs/PERFORMANCE.md``
documents the contract.
"""

from __future__ import annotations

import os
import pickle
# Aliased: the name-resolved call graph of the flow linter would
# otherwise conflate ``weakref.finalize`` with the message-queue
# collective of the same name.
from weakref import finalize as _gc_finalize
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "SharedFramePool",
    "PoolHandle",
    "ShmPayload",
    "ShmObjectHandle",
    "publish_object",
    "attach_object",
    "shm_supported",
]


def shm_supported() -> bool:
    """Whether ``multiprocessing.shared_memory`` works on this platform."""
    try:
        seg = shared_memory.SharedMemory(create=True, size=16)
    except Exception:
        return False
    seg.close()
    seg.unlink()
    return True


def _untrack(seg: shared_memory.SharedMemory) -> None:
    """Detach ``seg`` from this process's resource tracker.

    Needed only when the attaching process runs its *own* tracker (the
    ``spawn`` start method): attaching registers the segment there, and
    at worker exit that tracker would unlink a segment the driver still
    owns.  Under ``fork`` (and for same-process attaches) the tracker
    is shared with the creator, and unregistering here would instead
    clobber the creator's registration — callers must skip it.
    Best-effort: tracker internals are not public API.
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:  # pragma: no cover - defensive
        pass


def _pin(seg: shared_memory.SharedMemory) -> None:
    """Keep ``seg``'s mapping alive until process exit, silently.

    Worker processes hand out zero-copy views into a segment for the
    rest of their (short) life; ``SharedMemory.__del__`` would try to
    close the mapping under those exported views at interpreter
    shutdown and spam ``BufferError`` tracebacks.  Disarm the
    destructor instead: the OS reclaims the mapping at process exit.
    """
    if seg._fd >= 0:  # the mapping outlives the descriptor
        os.close(seg._fd)
        seg._fd = -1
    seg._buf = None
    seg._mmap = None


def _extract_buffers(payload) -> tuple[bytes, list[memoryview], int] | None:
    """Protocol-5 split of ``payload`` into (meta, raw buffers, bytes).

    Returns ``None`` when a buffer is non-contiguous (cannot be copied
    as raw bytes) — callers then fall back to the in-band path.
    """
    buffers: list[pickle.PickleBuffer] = []
    meta = pickle.dumps(payload, protocol=5, buffer_callback=buffers.append)
    raws: list[memoryview] = []
    total = 0
    try:
        for buf in buffers:
            raw = buf.raw()
            raws.append(raw)
            total += raw.nbytes
    except BufferError:
        return None
    return meta, raws, total


@dataclass(frozen=True)
class ShmPayload:
    """Wire descriptor for a payload parked in a pool slot.

    This is what actually crosses the OS pipe: the slot index, the
    per-buffer byte lengths, and the (small) metadata pickle.  The
    receiving worker resolves it against its attached pool view.
    """

    slot: int
    lengths: tuple[int, ...]
    meta: bytes
    #: Total payload bytes in the slot (metrics; not needed to decode).
    nbytes: int


@dataclass(frozen=True)
class PoolHandle:
    """Everything a worker needs to attach to an existing pool."""

    name: str
    slots: int
    slot_bytes: int


class SharedFramePool:
    """A refcounted slab of shared-memory slots for message payloads.

    Layout of the single segment: ``slots`` int64 refcounts (the
    header), then ``slots`` payload regions of ``slot_bytes`` each.
    The refcount table is the allocator's only state, so any process
    attached to the segment can allocate, acquire, and release under
    the shared ``lock``.

    The driver constructs the pool (``create=True``) and owns the
    segment's lifetime (:meth:`destroy` unlinks it — crashed workers
    cannot leak ``/dev/shm`` entries because they never own one).
    Workers attach via :meth:`attach` with the :class:`PoolHandle` and
    the same lock.
    """

    def __init__(
        self,
        slots: int,
        slot_bytes: int,
        lock,
        *,
        _attach_name: str | None = None,
        _untrack_on_attach: bool = False,
    ):
        if slots < 1:
            raise ValueError("need at least one slot")
        if slot_bytes < 64:
            raise ValueError("slot_bytes must be at least 64")
        self.slots = int(slots)
        self.slot_bytes = int(slot_bytes)
        self.lock = lock
        self._header_bytes = self.slots * 8
        size = self._header_bytes + self.slots * self.slot_bytes
        if _attach_name is None:
            self._shm = shared_memory.SharedMemory(create=True, size=size)
            self._owner = True
        else:
            self._shm = shared_memory.SharedMemory(name=_attach_name)
            self._owner = False
            if _untrack_on_attach:
                _untrack(self._shm)
        self._refcounts = np.frombuffer(
            self._shm.buf, dtype=np.int64, count=self.slots
        )
        if self._owner:
            self._refcounts[:] = 0
        self._data = np.frombuffer(
            self._shm.buf, dtype=np.uint8, offset=self._header_bytes
        )

    # -- lifecycle ------------------------------------------------------
    @property
    def name(self) -> str:
        """OS name of the backing segment (a ``/dev/shm`` entry on Linux)."""
        return self._shm.name

    def handle(self) -> PoolHandle:
        """Attachment descriptor for worker processes."""
        return PoolHandle(self.name, self.slots, self.slot_bytes)

    @classmethod
    def attach(cls, handle: PoolHandle, lock, *, untrack: bool = False) -> "SharedFramePool":
        """Worker-side view of an existing pool.

        Pass ``untrack=True`` only from a process with its own resource
        tracker (the ``spawn`` start method) — see :func:`_untrack`.
        """
        return cls(
            handle.slots,
            handle.slot_bytes,
            lock,
            _attach_name=handle.name,
            _untrack_on_attach=untrack,
        )

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        self._refcounts = None
        self._data = None
        try:
            self._shm.close()
        except BufferError:
            # Decoded payloads still alias the mapping.  Disarm the
            # destructor and leave the unmap to process exit instead of
            # letting ``__del__`` retry and spam the same error.
            _pin(self._shm)

    def destroy(self) -> None:
        """Owner-side teardown: unmap and unlink the segment."""
        self.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    # -- slot management ------------------------------------------------
    def allocate(self) -> int | None:
        """Take a reference on a free slot; ``None`` when exhausted."""
        with self.lock:
            free = np.flatnonzero(self._refcounts == 0)
            if free.size == 0:
                return None
            slot = int(free[0])
            self._refcounts[slot] = 1
            return slot

    def acquire(self, slot: int) -> None:
        """Add a reference (e.g. fan-out of one payload to many readers)."""
        with self.lock:
            if self._refcounts[slot] <= 0:
                raise ValueError(f"slot {slot} is not live")
            self._refcounts[slot] += 1

    def release(self, slot: int) -> None:
        """Drop a reference; at zero the slot becomes allocatable again."""
        with self.lock:
            if self._refcounts[slot] <= 0:
                raise ValueError(f"slot {slot} released more often than acquired")
            self._refcounts[slot] -= 1

    def _release_quiet(self, slot: int) -> None:
        """Finalizer hook: drop a reference, tolerating teardown.

        Decoded payloads release their slot from a GC finalizer, which
        may fire after :meth:`close` (mapping gone) or during
        interpreter shutdown (lock half-dead) — both mean the pool no
        longer needs the reference back, so failures are swallowed.
        """
        if self._refcounts is None:
            return
        try:
            self.release(slot)
        except Exception:  # pragma: no cover - shutdown-order dependent
            pass

    def live_slots(self) -> int:
        """Number of slots currently holding a referenced payload."""
        with self.lock:
            return int(np.count_nonzero(self._refcounts > 0))

    # -- payload transport ----------------------------------------------
    def encode(
        self, payload, *, min_bytes: int = 0
    ) -> tuple[ShmPayload | None, int, bool]:
        """Try to park ``payload``'s array buffers in a slot.

        Returns ``(descriptor, payload_bytes, spilled)``.
        ``descriptor`` is ``None`` — the caller must send ``payload``
        through the ordinary pickled path — when the payload carries
        fewer than ``min_bytes`` of array data (not worth a slot), does
        not fit in one slot, has non-contiguous buffers, or the pool is
        exhausted.  ``spilled`` is True only for the last two cases:
        the payload *wanted* a slot and could not get one (the signal
        behind the ``shm_spills`` metric).  ``payload_bytes`` is the
        measured size either way, for the bytes-moved metric.
        """
        split = _extract_buffers(payload)
        if split is None:
            return None, 0, True
        meta, raws, total = split
        nbytes = total + len(meta)
        if total < min_bytes or total == 0:
            return None, nbytes, False
        if total > self.slot_bytes:
            return None, nbytes, True
        slot = self.allocate()
        if slot is None:
            return None, nbytes, True
        base = slot * self.slot_bytes
        offset = base
        lengths = []
        for raw in raws:
            n = raw.nbytes
            self._data[offset : offset + n] = np.frombuffer(raw, dtype=np.uint8)
            lengths.append(n)
            offset += n
        return ShmPayload(slot, tuple(lengths), meta, nbytes), nbytes, False

    def decode(self, descriptor: ShmPayload):
        """Rebuild the payload parked by :meth:`encode`, aliasing the slot.

        The reconstructed arrays are **read-only views** straight into
        the pool slot — decode copies nothing.  The delivery's slot
        reference is dropped by a finalizer once the last such view is
        garbage-collected, so the slot stays live exactly as long as
        the receiver holds (any part of) the payload.  Read-only
        matters because fan-out deliveries of one broadcast payload
        share a single physical slot.
        """
        base = descriptor.slot * self.slot_bytes
        holder = self._data[base : base + sum(descriptor.lengths)]
        _gc_finalize(holder, self._release_quiet, descriptor.slot)
        view = memoryview(holder).toreadonly()
        buffers = []
        offset = 0
        for n in descriptor.lengths:
            buffers.append(view[offset : offset + n])
            offset += n
        return pickle.loads(descriptor.meta, buffers=buffers)


# ---------------------------------------------------------------------------
# One-shot published objects (the local graph views)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShmObjectHandle:
    """Descriptor of an object published once into its own segment."""

    name: str
    lengths: tuple[int, ...]
    meta: bytes


def publish_object(obj) -> tuple[ShmObjectHandle, shared_memory.SharedMemory] | None:
    """Write ``obj`` into a dedicated exactly-sized shm segment.

    Returns ``(handle, segment)`` — the caller owns the segment and
    must ``unlink`` it when every consumer is done — or ``None`` when
    the object has no contiguous array payload worth publishing.
    """
    split = _extract_buffers(obj)
    if split is None:
        return None
    meta, raws, total = split
    if total == 0:
        return None
    seg = shared_memory.SharedMemory(create=True, size=total)
    data = np.frombuffer(seg.buf, dtype=np.uint8)
    offset = 0
    lengths = []
    for raw in raws:
        n = raw.nbytes
        data[offset : offset + n] = np.frombuffer(raw, dtype=np.uint8)
        lengths.append(n)
        offset += n
    del data
    return ShmObjectHandle(seg.name, tuple(lengths), meta), seg


def attach_object(handle: ShmObjectHandle, *, untrack: bool = False, pin: bool = False):
    """Reconstruct a published object as zero-copy views into its segment.

    Returns ``(obj, segment)``.  The arrays inside ``obj`` alias the
    segment, so the caller must keep ``segment`` referenced for the
    object's lifetime.  Worker processes pass ``pin=True`` to keep the
    mapping alive until process exit without destructor noise, and
    ``untrack=True`` when they run their own resource tracker (spawn).
    """
    seg = shared_memory.SharedMemory(name=handle.name)
    if untrack:
        _untrack(seg)
    buffers = []
    offset = 0
    view = seg.buf.toreadonly()  # shared graph data must stay immutable
    for n in handle.lengths:
        buffers.append(view[offset : offset + n])
        offset += n
    obj = pickle.loads(handle.meta, buffers=buffers)
    if pin:
        _pin(seg)
    return obj, seg
