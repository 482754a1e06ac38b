"""Process-parallel backend: run the SPMD programs on real OS processes.

The simulated :class:`~repro.net.machine.Machine` is the *reference*
backend — deterministic, metric-complete, cost-modelled.  This module
provides a second backend with the same contract that actually
executes every PE in its own OS process, exchanging real pickled
messages over pipes: the execution path a user with a multicore box
would adopt.

Design
------
* Programs are unchanged: the same generator SPMD functions run on
  both backends.  ``yield`` simply returns control to the per-worker
  driver loop (and backs off briefly after repeated empty polls).
* Control transport is one framed pipe per PE
  (:class:`_PipeChannel`).  A send returns only once the whole frame
  is in the destination pipe — under a cross-process lock, so frames
  never interleave — which preserves the happens-before reasoning of
  the termination barriers: when a dissemination barrier completes,
  every pre-barrier send has fully reached the destination pipe and a
  non-blocking drain is complete.  Unlike a blocking
  ``SimpleQueue.put``, a sender waiting for pipe space keeps
  *draining its own inbox*, so the classic cyclic-write deadlock (two
  PEs blocked mid-write into each other's full pipes, neither able to
  read) cannot occur at any payload size.
* Hot-path payloads travel **zero-copy** through a
  :class:`~repro.net.shm.SharedFramePool`: a flushed
  :class:`~repro.net.frames.RecordFrame`'s arrays are placed in a
  refcounted ``multiprocessing.shared_memory`` slot and only a tiny
  ``(slot, offsets, meta)`` descriptor crosses the pipe — no payload
  pickling on the send side, and the receive side reconstructs the
  arrays as read-only views into the slot (no copy-out; the slot is
  released when the receiver drops the payload).  Broadcast payloads
  sent to several destinations fill one slot once and fan out by
  refcount.  When the pool is exhausted (or a payload exceeds the
  slot size) the message *spills* to the legacy pickled path,
  observably identical and merely slower; ``ProcessMachine(...,
  shm=False)`` turns the pool off entirely.
  Per-PE ``shm_frames`` / ``shm_spills`` / ``bytes_moved`` counters
  report what the transport actually did (see ``docs/PERFORMANCE.md``).
* Each worker receives only *its own* local graph view, exactly the
  distributed-memory data layout; the full
  :class:`~repro.graphs.distributed.DistGraph` never leaves the
  driver.  With the pool enabled each view is *published* once into a
  read-only shared segment and workers map it zero-copy.
* Metrics: per-PE counters (messages, words, charged ops, modelled
  clock) are maintained identically and shipped back with the result.
  Modelled clocks may differ from the simulator in the last few
  per-message α charges because real delivery interleavings differ;
  counts, volumes and results are identical — the simulated accounting
  is computed at ``ctx.send`` time, *before* the transport choice, so
  shm and pickled runs are bit-identical in every simulated counter
  (pinned by ``tests/test_equivalence.py``).
* The driver owns every shared-memory segment and unlinks them all in
  a ``finally`` block, so a crashing worker cannot leak ``/dev/shm``
  entries.

Limitations (documented, by design): Python's process start-up
overhead still makes this backend slower than the simulator for the
tiny instances of the test suite — its purpose is fidelity (real
parallel execution of the real message protocol) and real-graph
throughput, not micro-instance speed records.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import time
import weakref
from typing import Any, Callable

from ..graphs.distributed import DistGraph, LocalGraph
from .costmodel import DEFAULT_SPEC, MachineSpec
from .machine import MachineResult, OutOfMemoryError, PEContext
from .metrics import PEMetrics, RunMetrics
from .shm import (
    PoolHandle,
    SharedFramePool,
    ShmObjectHandle,
    ShmPayload,
    attach_object,
    publish_object,
    shm_supported,
)

__all__ = ["ProcessMachine", "RemoteDist"]

#: Slots are virtual address space until touched (``/dev/shm`` is
#: sparse), so the defaults are sized for paper-scale frames rather
#: than for the tiny test instances: 256 slots × 16 MiB ≈ 4 GiB of
#: *address space*, of which only bytes actually framed are committed.
#: Zero-copy decode keeps a slot live for as long as the receiver
#: holds the payload, so the slot count bounds the number of frames
#: *alive* across the machine, not just in flight.
DEFAULT_SHM_SLOTS = 256
DEFAULT_SHM_SLOT_BYTES = 1 << 24  # 16 MiB per slot
#: Payloads with less array data than this pickle faster than a slot
#: round-trip; they stay on the legacy path (not counted as spills).
MIN_SHM_BYTES = 512


class RemoteDist:
    """A worker-side stand-in for :class:`DistGraph` holding one view.

    Programs only ever call ``dist.view(ctx.rank)`` plus the global
    size accessors, so shipping a single view preserves the
    distributed-memory discipline *physically*: a worker process has
    no way to peek at other PEs' data.
    """

    def __init__(self, view: LocalGraph, num_vertices: int, num_edges: int, name: str):
        self._view = view
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.name = name
        self.partition = view.partition

    @property
    def num_pes(self) -> int:
        """Number of PEs in the world."""
        return self.partition.num_pes

    def view(self, rank: int) -> LocalGraph:
        """The local view — only this worker's own rank is available."""
        if rank != self._view.rank:
            raise KeyError(
                f"worker {self._view.rank} cannot access PE {rank}'s data"
            )
        return self._view


class _PipeChannel:
    """One PE's inbound message pipe with deadlock-free framed writes.

    Frames are ``8-byte big-endian length + payload`` written to a
    non-blocking OS pipe under a cross-process lock (so concurrent
    senders never interleave a frame).  The deadlock-freedom argument:
    a sender that cannot make progress — pipe full, or the frame lock
    held by another sender — repeatedly calls its ``pump`` callback,
    which drains its *own* inbound pipe into the context's tag
    buckets.  Every blocked writer is therefore also a running reader,
    so any cycle of full pipes resolves: some pipe in the cycle has a
    pumping reader, its writer completes, and progress propagates.
    ``send_bytes`` still returns only once the frame is fully inside
    the destination pipe, preserving the synchronous-put
    happens-before property the termination barriers rely on.

    POSIX-only (raw ``os.read``/``os.write`` on pipe descriptors);
    other platforms use :class:`_QueueChannel`.
    """

    def __init__(self, mpctx):
        self._rconn, self._wconn = mpctx.Pipe(duplex=False)
        self._wlock = mpctx.Lock()
        self._rbuf = bytearray()
        try:  # Linux: widen the pipe so big frames need fewer trips
            import fcntl

            fcntl.fcntl(self._wconn.fileno(), 1031, 1 << 20)  # F_SETPIPE_SZ
        except (ImportError, OSError):  # pragma: no cover - platform detail
            pass

    def send_bytes(self, data: bytes, pump: Callable[[], None]) -> None:
        """Write one frame, draining our own inbox while blocked."""
        fd = self._wconn.fileno()
        frame = memoryview(len(data).to_bytes(8, "big") + data)
        while not self._wlock.acquire(timeout=0.001):
            pump()
        try:
            os.set_blocking(fd, False)
            while frame.nbytes:
                try:
                    frame = frame[os.write(fd, frame) :]
                except BlockingIOError:
                    pump()
                    time.sleep(0.0002)
        finally:
            self._wlock.release()

    def drain(self) -> list[bytes]:
        """All complete frames currently in the pipe (non-blocking)."""
        fd = self._rconn.fileno()
        os.set_blocking(fd, False)
        while True:
            try:
                chunk = os.read(fd, 1 << 20)
            except BlockingIOError:
                break
            if not chunk:  # pragma: no cover - peer closed
                break
            self._rbuf += chunk
        frames = []
        buf = self._rbuf
        while len(buf) >= 8:
            n = int.from_bytes(buf[:8], "big")
            if len(buf) < 8 + n:
                break  # partial frame: wait for the rest
            frames.append(bytes(buf[8 : 8 + n]))
            del buf[: 8 + n]
        return frames


class _QueueChannel:
    """Portability fallback transport (one ``SimpleQueue`` per PE).

    Used where raw pipe descriptors are unavailable (Windows).  Keeps
    the historical blocking-put behaviour — and with it the documented
    cyclic-write deadlock risk for frames beyond the pipe capacity.
    """

    def __init__(self, mpctx):
        self._q = mpctx.SimpleQueue()

    def send_bytes(self, data: bytes, pump: Callable[[], None]) -> None:
        self._q.put(data)

    def drain(self) -> list[bytes]:
        frames = []
        while not self._q.empty():
            frames.append(self._q.get())
        return frames


def _make_channels(mpctx, num_pes: int):
    cls = _PipeChannel if os.name == "posix" else _QueueChannel
    return [cls(mpctx) for _ in range(num_pes)]


class _QueueBus:
    """The machine behind a :class:`_WorkerContext`: the pipe transport.

    It declares everything :class:`~repro.net.machine.PEContext` and
    :func:`~repro.net.reliable.reliable_send` read from their machine.
    A worker has no tracer, fault plan, checkpoint store, wire
    protocol, in-flight accounting or protocol verifier, so those are
    ``None``/empty and the bookkeeping hooks do nothing;
    :meth:`_transmit` (and, per message, :meth:`_land_many`) puts the
    message into the destination's pipe.

    With a pool attached, every outgoing payload is offered to
    :meth:`SharedFramePool.encode` first; on success the queue carries
    a :class:`ShmPayload` descriptor instead of the payload.  All
    simulated accounting happened in ``PEContext.send_many`` before this
    point, so the routing decision is invisible to the cost model.

    Broadcast payloads are deduplicated: when the *same object* is
    sent to several destinations back-to-back (the collectives do
    exactly this), the slot is filled once and every further delivery
    just takes another reference on it — ``p - 1`` receivers share one
    physical copy.  The cache holds its own slot reference (so a hit
    can never race a concurrent recycle) and is evicted whenever a
    different payload is encoded.  Corollary of zero-copy messaging:
    payload objects must not be mutated after being sent.
    """

    tracer = None
    fault_plan = None
    checkpoint_store = None
    _wire = None
    _in_flight = None
    _contexts = ()

    def __init__(self, channels, pool: SharedFramePool | None = None):
        self._channels = channels
        self._pool = pool
        #: Sender's PEMetrics and inbox pump, wired in by
        #: _WorkerContext (transport counters only — never simulated
        #: quantities; the pump keeps blocked sends deadlock-free).
        self.metrics: PEMetrics | None = None
        self.pump: Callable[[], None] = lambda: None
        self._cache_ref: weakref.ref | None = None
        self._cache_desc: ShmPayload | None = None

    def _evict_cache(self) -> None:
        if self._cache_desc is not None:
            self._pool.release(self._cache_desc.slot)
        self._cache_ref = None
        self._cache_desc = None

    def _encode(self, payload) -> tuple[ShmPayload | None, int, bool]:
        """Pool-encode ``payload``, deduplicating repeated sends."""
        # The ``payload is not None`` guard is load-bearing: a dead
        # weakref *also* returns None, and control messages carry None
        # payloads — without it, a garbage-collected cache entry would
        # hand its stale descriptor to the next control message.
        if (
            payload is not None
            and self._cache_ref is not None
            and self._cache_ref() is payload
        ):
            descriptor = self._cache_desc
            self._pool.acquire(descriptor.slot)  # this delivery's reference
            return descriptor, 0, False  # no new physical bytes moved
        self._evict_cache()  # before encode: may free the very slot it needs
        descriptor, nbytes, spilled = self._pool.encode(
            payload, min_bytes=MIN_SHM_BYTES
        )
        if descriptor is not None:
            try:
                ref = weakref.ref(payload)
            except TypeError:  # pragma: no cover - non-weakrefable payload
                ref = None
            if ref is not None:
                self._pool.acquire(descriptor.slot)  # the cache's reference
                self._cache_ref, self._cache_desc = ref, descriptor
        return descriptor, nbytes, spilled

    def _transmit(self, msg) -> None:
        # send_bytes returns only once the frame is fully in the
        # destination pipe (the synchronous-put happens-before the
        # barriers need), pumping our own inbox while blocked.
        if self._pool is not None:
            descriptor, nbytes, spilled = self._encode(msg.payload)
            if self.metrics is not None:
                self.metrics.bytes_moved += nbytes
                if descriptor is not None:
                    self.metrics.shm_frames += 1
                elif spilled:
                    self.metrics.shm_spills += 1
            if descriptor is not None:
                msg = msg._replace(payload=descriptor)
        data = pickle.dumps(msg, protocol=5)
        self._channels[msg.dest].send_bytes(data, self.pump)

    def _land_many(self, msgs) -> None:
        # Back-to-back sends of one payload still hit the dedup cache.
        for msg in msgs:
            self._transmit(msg)

    def _note_progress(self, n: int = 1) -> None:
        pass

    def _note_consumed(self, msg) -> None:
        pass

    def _note_collective_entry(self, rank: int, seq: int, label: str) -> None:
        pass

    def _note_checkpoint(self, rank: int) -> None:
        pass


class _WorkerContext(PEContext):
    """PE context whose transport is real queues instead of the scheduler."""

    def __init__(
        self,
        rank: int,
        num_pes: int,
        spec: MachineSpec,
        channels,
        pool: SharedFramePool | None = None,
    ):
        bus = _QueueBus(channels, pool)
        super().__init__(rank, num_pes, spec, bus)
        bus.metrics = self.metrics
        bus.pump = self._pump
        self._pool = pool
        self._own_channel = channels[rank]
        self._idle_polls = 0

    def _pump(self) -> None:
        """Move everything already in the OS pipe into the tag buckets."""
        for data in self._own_channel.drain():
            msg = pickle.loads(data)
            if isinstance(msg.payload, ShmPayload):
                msg = msg._replace(payload=self._pool.decode(msg.payload))
            self._inbox[msg.tag].append(msg)

    def recv_many(self, tag, count=None):
        """Non-blocking receive over the OS pipe (see PEContext)."""
        self._pump()
        got = super().recv_many(tag, count)
        if got:
            self._idle_polls = 0
        return got

    def pending(self, tag) -> int:
        """Queued message count for ``tag`` after pumping the pipe."""
        self._pump()
        return super().pending(tag)

    def backoff(self) -> None:
        """Sleep briefly after repeated empty polls (driver loop hook)."""
        self._idle_polls += 1
        if self._idle_polls > 64:
            time.sleep(0.0005)


def _worker(
    rank: int,
    num_pes: int,
    spec: MachineSpec,
    channels,
    result_queue,
    program: Callable,
    payload: tuple,
    kwargs: dict,
    pool_handle: PoolHandle | None = None,
    pool_lock=None,
    foreign: bool = False,
) -> None:
    """Worker process main: drive the generator to completion.

    ``foreign`` says whether this worker runs its *own* resource
    tracker (spawn start method) rather than inheriting the driver's
    (fork) — attached driver-owned segments must then be untracked.
    """
    pool = (
        SharedFramePool.attach(pool_handle, pool_lock, untrack=foreign)
        if pool_handle is not None
        else None
    )
    ctx = _WorkerContext(rank, num_pes, spec, channels, pool)
    args = tuple(_resolve_arg(a, foreign) for a in payload)
    try:
        gen = program(ctx, *args, **kwargs)
        try:
            while True:
                next(gen)
                ctx.backoff()
        except StopIteration as stop:
            result_queue.put((rank, "ok", stop.value, ctx.metrics))
    except OutOfMemoryError as exc:
        result_queue.put((rank, "oom", str(exc), ctx.metrics))
    except Exception:  # pragma: no cover - surfaced to the driver
        import traceback

        result_queue.put((rank, "error", traceback.format_exc(), ctx.metrics))
    finally:
        if pool is not None:
            pool.close()


class _DistHandle:
    """Pickle-efficient courier for one PE's slice of a DistGraph."""

    def __init__(self, view: LocalGraph, num_vertices: int, num_edges: int, name: str):
        self._state = (view, num_vertices, num_edges, name)

    def __getstate__(self):
        return self._state

    def __setstate__(self, state):
        self._state = state


class _ShmDistHandle:
    """Courier for a graph view published into a shared-memory segment."""

    def __init__(self, handle: ShmObjectHandle):
        self.handle = handle


def _foreign_tracker(start_method: str) -> bool:
    """Whether workers started with ``start_method`` run their own
    resource tracker.

    CPython's POSIX launchers — fork, spawn *and* forkserver — hand the
    driver's resource-tracker fd to the child, so the tracker is shared
    under every POSIX start method and unregistering a driver-owned
    segment from a worker would clobber the driver's registration
    (verified empirically: untracking under POSIX spawn produces
    tracker ``KeyError``s at driver unlink time).  Only non-POSIX
    platforms give workers a tracker of their own.
    """
    del start_method  # POSIX fd inheritance holds for every method
    return os.name != "posix"


def _default_start_method() -> str:
    return "fork" if os.name == "posix" else "spawn"


def _resolve_arg(a, foreign: bool = False):
    """Materialize a worker-side argument from its courier, if any."""
    if isinstance(a, _DistHandle):
        return RemoteDist(*a.__getstate__())
    if isinstance(a, _ShmDistHandle):
        state, seg = attach_object(a.handle, untrack=foreign, pin=True)
        remote = RemoteDist(*state)
        # The view's arrays alias the segment: keep it mapped for the
        # argument's lifetime.
        remote._segment = seg
        return remote
    return a


class ProcessMachine:
    """Run SPMD programs on real processes (one per PE).

    Drop-in alternative to :class:`~repro.net.machine.Machine` for
    programs whose per-PE arguments are a :class:`DistGraph` plus
    picklable configuration::

        result = ProcessMachine(8).run(counting_program, dist, config)

    ``DistGraph`` arguments are sliced so each worker receives only its
    own view.  Results and metrics come back exactly like the
    simulator's :class:`MachineResult`.

    Shared-memory transport knobs:

    ``shm``
        Route large payloads through the zero-copy pool (default on
        where ``multiprocessing.shared_memory`` works).
    ``shm_slots``
        Number of pool slots (default 256).  A full pool never blocks —
        senders spill to the pickled path and count a ``shm_spills``.
    ``shm_slot_bytes``
        Bytes per slot (default 16 MiB); payloads above this always
        spill.
    ``start_method``
        ``multiprocessing`` start method for the workers: ``"fork"``
        (default on POSIX) or ``"spawn"`` (default — and only option —
        elsewhere; also how CI exercises the Windows/macOS code path
        on Linux).  Spawn workers re-import the package, so anything
        propagated through the environment (``REPRO_KERNEL_BACKEND``,
        the warn-once fallback flag) must survive that round trip —
        pinned by ``tests/test_parallel_backend.py``.
    """

    def __init__(
        self,
        num_pes: int,
        spec: MachineSpec = DEFAULT_SPEC,
        *,
        timeout: float = 300.0,
        shm: bool = True,
        shm_slots: int = DEFAULT_SHM_SLOTS,
        shm_slot_bytes: int = DEFAULT_SHM_SLOT_BYTES,
        start_method: str | None = None,
    ):
        if num_pes < 1:
            raise ValueError("need at least one PE")
        if start_method is not None and start_method not in mp.get_all_start_methods():
            raise ValueError(
                f"start method {start_method!r} not available here "
                f"(have: {mp.get_all_start_methods()})"
            )
        self.num_pes = num_pes
        self.spec = spec
        self.timeout = timeout
        self.start_method = start_method or _default_start_method()
        self.shm = bool(shm) and shm_supported()
        self.shm_slots = shm_slots
        self.shm_slot_bytes = shm_slot_bytes

    def run(self, program: Callable, /, *args, **kwargs) -> MachineResult:
        """Execute ``program(ctx, *args, **kwargs)`` on every PE.

        Raises
        ------
        OutOfMemoryError
            If any PE exceeded its memory budget (mirroring the
            simulator's behaviour for the TriC baseline).
        RuntimeError
            If a worker died with an unexpected exception or the run
            timed out.
        """
        # Resolve the kernel backend in the driver before any worker
        # starts: an unavailable selection (e.g. REPRO_KERNEL_BACKEND=
        # native without a compiler) warns exactly once here, and the
        # warn-once flag reaches every worker through the environment,
        # so P workers do not repeat the warning P times.
        from ..core.backends import get_backend

        get_backend()
        ctx_method = mp.get_context(self.start_method)
        foreign = _foreign_tracker(self.start_method)
        channels = _make_channels(ctx_method, self.num_pes)
        result_queue = ctx_method.SimpleQueue()
        pool = pool_handle = pool_lock = None
        graph_segments = []
        if self.shm:
            pool_lock = ctx_method.Lock()
            pool = SharedFramePool(self.shm_slots, self.shm_slot_bytes, pool_lock)
            pool_handle = pool.handle()

        def _dist_courier(a: DistGraph, rank: int):
            state = (a.view(rank), a.num_vertices, a.num_edges, a.name)
            if pool is not None:
                published = publish_object(state)
                if published is not None:
                    handle, seg = published
                    graph_segments.append(seg)
                    return _ShmDistHandle(handle)
            return _DistHandle(*state)

        procs = []
        values: list[Any] = [None] * self.num_pes
        metrics: list[PEMetrics] = [PEMetrics(rank=r) for r in range(self.num_pes)]
        failure: tuple[int, str, str] | None = None
        deadline = time.monotonic() + self.timeout
        try:
            for rank in range(self.num_pes):
                payload = tuple(
                    _dist_courier(a, rank) if isinstance(a, DistGraph) else a
                    for a in args
                )
                proc = ctx_method.Process(
                    target=_worker,
                    args=(rank, self.num_pes, self.spec, channels, result_queue,
                          program, payload, kwargs, pool_handle, pool_lock,
                          foreign),
                )
                proc.start()
                procs.append(proc)

            collected = 0
            while collected < self.num_pes and failure is None:
                while result_queue.empty():
                    if time.monotonic() > deadline:
                        raise RuntimeError("parallel run timed out")
                    time.sleep(0.001)
                rank, status, value, pe_metrics = result_queue.get()
                metrics[rank] = pe_metrics
                collected += 1
                if status == "ok":
                    values[rank] = value
                else:
                    # A failed PE leaves its peers blocked on messages
                    # that will never arrive; tear the world down.
                    failure = (rank, status, value)
        finally:
            for proc in procs:
                if failure is not None and proc.is_alive():
                    proc.terminate()
                proc.join(timeout=5)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()
                    proc.join()
            # Only the driver ever creates segments, and it tears all
            # of them down here — crashed workers cannot leak /dev/shm
            # entries.
            if pool is not None:
                pool.destroy()
            for seg in graph_segments:
                seg.close()
                try:
                    seg.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
        if failure is not None:
            rank, status, detail = failure
            if status == "oom":
                raise OutOfMemoryError(detail)
            raise RuntimeError(f"PE {rank} failed:\n{detail}")
        return MachineResult(values=values, metrics=RunMetrics(per_pe=metrics))
