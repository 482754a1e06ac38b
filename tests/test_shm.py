"""Shared-memory frame pool: slots, transport, spill, and cleanup.

Covers the :mod:`repro.net.shm` primitives in-process (refcounted slot
lifecycle, protocol-5 encode/decode round-trips, published objects) and
the ``ProcessMachine`` integration: exhausted pools spill to the
pickled path without changing any result, and a crashing worker leaves
no ``/dev/shm`` entry behind because only the driver ever owns
segments.
"""

import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.core.edge_iterator import edge_iterator
from repro.core.engine import EngineConfig, counting_program
from repro.graphs import distribute
from repro.graphs import generators as gen
from repro.net.frames import BROADCAST, ForwardFrame, RecordFrame
from repro.net.parallel import ProcessMachine
from repro.net.reliable import TransportError
from repro.net.shm import (
    SharedFramePool,
    ShmPayload,
    attach_object,
    publish_object,
    shm_supported,
)

pytestmark = pytest.mark.skipif(
    not shm_supported(), reason="multiprocessing.shared_memory unavailable"
)


@pytest.fixture
def pool():
    p = SharedFramePool(4, 4096, mp.Lock())
    yield p
    p.destroy()


def _frame(seed=0, n=40):
    rng = np.random.default_rng(seed)
    vertices, targets, blocks = [], [], []
    for i in range(n):
        vertices.append(int(rng.integers(0, 100)))
        blocks.append(np.sort(rng.choice(100, size=5, replace=False)))
        targets.append(int(rng.integers(0, 100)) if i % 2 else BROADCAST)
    return RecordFrame(
        np.array(vertices, dtype=np.int64),
        np.array(targets, dtype=np.int64),
        np.arange(0, 5 * n + 1, 5, dtype=np.int64),
        np.concatenate(blocks).astype(np.int64),
    )


def _shm_entries():
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


# ---------------------------------------------------------------------------
# Slot lifecycle
# ---------------------------------------------------------------------------


def test_allocate_release_cycle(pool):
    slots = [pool.allocate() for _ in range(4)]
    assert sorted(slots) == [0, 1, 2, 3]
    assert pool.allocate() is None  # exhausted
    assert pool.live_slots() == 4
    for s in slots:
        pool.release(s)
    assert pool.live_slots() == 0
    assert pool.allocate() is not None  # reusable again


def test_refcounted_fanout(pool):
    s = pool.allocate()
    pool.acquire(s)  # second reader
    pool.release(s)
    assert pool.live_slots() == 1  # still referenced once
    pool.release(s)
    assert pool.live_slots() == 0


def test_release_underflow_rejected(pool):
    s = pool.allocate()
    pool.release(s)
    with pytest.raises(ValueError):
        pool.release(s)
    with pytest.raises(ValueError):
        pool.acquire(s)


# ---------------------------------------------------------------------------
# Payload encode / decode
# ---------------------------------------------------------------------------


def test_frame_roundtrip(pool):
    frame = _frame()
    descriptor, nbytes, spilled = pool.encode(frame)
    assert isinstance(descriptor, ShmPayload) and not spilled
    assert nbytes > 0 and pool.live_slots() == 1
    out = pool.decode(descriptor)
    assert pool.live_slots() == 1  # slot stays live while the payload is held
    assert isinstance(out, RecordFrame)
    np.testing.assert_array_equal(out.vertices, frame.vertices)
    np.testing.assert_array_equal(out.targets, frame.targets)
    np.testing.assert_array_equal(out.xadj, frame.xadj)
    np.testing.assert_array_equal(out.neighbors, frame.neighbors)
    # Zero-copy: the arrays are read-only views into the slot, and the
    # slot recycles exactly when the last view is garbage-collected.
    assert not out.neighbors.flags.writeable
    del out
    assert pool.live_slots() == 0


def test_mixed_payload_shapes_roundtrip(pool):
    """Every payload shape the aggregation layer emits must survive."""
    frame = _frame(1)
    fwd = ForwardFrame(
        final_dests=np.arange(frame.num_records, dtype=np.int64) % 3, frame=_frame(2)
    )
    for payload in [frame, fwd, [frame, ("misc", 7)], [("token", 1), ("token", 2)]]:
        descriptor, _, _ = pool.encode(payload)
        if descriptor is None:  # no array body worth a slot: legacy path
            continue
        out = pool.decode(descriptor)
        assert type(out) is type(payload)
        del out  # drop the slot views so the next iteration can allocate


def test_min_bytes_keeps_small_payloads_on_legacy_path(pool):
    descriptor, nbytes, spilled = pool.encode(_frame(n=2), min_bytes=1 << 20)
    assert descriptor is None and not spilled  # too small to be worth a slot
    assert nbytes > 0


def test_oversized_payload_spills(pool):
    big = RecordFrame(
        np.array([0]), np.array([1]), np.array([0, 5000]), np.arange(5000, dtype=np.int64)
    )
    descriptor, _, spilled = pool.encode(big)
    assert descriptor is None and spilled
    assert pool.live_slots() == 0


def test_exhausted_pool_spills(pool):
    held = [pool.encode(_frame(i))[0] for i in range(4)]
    assert all(h is not None for h in held)
    descriptor, _, spilled = pool.encode(_frame(9))
    assert descriptor is None and spilled
    pool.decode(held[0])  # free one slot; sends fit again
    descriptor, _, spilled = pool.encode(_frame(9))
    assert descriptor is not None and not spilled


def test_cross_process_roundtrip(pool):
    """A forked worker decodes what the parent encoded, and vice versa."""
    frame = _frame(5)
    descriptor, _, _ = pool.encode(frame)
    handle, lock = pool.handle(), pool.lock

    def child(conn):
        worker_pool = SharedFramePool.attach(handle, lock)
        out = worker_pool.decode(descriptor)
        back, _, _ = worker_pool.encode(out)
        del out  # release the decoded views' slot before detaching
        conn.send(back)
        worker_pool.close()

    parent_conn, child_conn = mp.Pipe()
    proc = mp.get_context("fork").Process(target=child, args=(child_conn,))
    proc.start()
    returned = parent_conn.recv()
    proc.join(timeout=30)
    out = pool.decode(returned)
    np.testing.assert_array_equal(out.neighbors, frame.neighbors)
    del out
    assert pool.live_slots() == 0


def test_broadcast_fanout_shares_one_slot(pool):
    """Sending one payload object to many dests fills a single slot."""
    import pickle

    from repro.net.messages import Message
    from repro.net.parallel import _QueueBus

    class _SinkChannel:
        def __init__(self):
            self.frames = []

        def send_bytes(self, data, pump):
            self.frames.append(data)

    channels = [_SinkChannel() for _ in range(4)]
    bus = _QueueBus(channels, pool)
    frame = _frame(3)
    for dest in range(1, 4):
        bus._transmit(
            Message(
                src=0, dest=dest, tag=("t",), payload=frame,
                words=frame.words, send_time=0.0,
            )
        )
    descs = [pickle.loads(c.frames[0]).payload for c in channels[1:]]
    assert all(isinstance(d, ShmPayload) for d in descs)
    assert len({d.slot for d in descs}) == 1  # one physical copy
    outs = [pool.decode(d) for d in descs]
    for o in outs:
        np.testing.assert_array_equal(o.neighbors, frame.neighbors)
    del outs, o  # the loop variable aliases the last decoded frame
    assert pool.live_slots() == 1  # only the bus cache still pins the slot
    bus._evict_cache()
    assert pool.live_slots() == 0


def test_send_many_batch_fanout_shares_one_slot(pool):
    """The bus's batch hook keeps the fan-out dedup of repeated payloads."""
    import pickle

    from repro.net.messages import Message
    from repro.net.parallel import _QueueBus

    class _SinkChannel:
        def __init__(self):
            self.frames = []

        def send_bytes(self, data, pump):
            self.frames.append(data)

    channels = [_SinkChannel() for _ in range(4)]
    bus = _QueueBus(channels, pool)
    frame = _frame(3)
    bus._land_many([Message(0, dest, ("t",), frame, frame.words, 0.0) for dest in range(1, 4)])
    descs = [pickle.loads(c.frames[0]).payload for c in channels[1:]]
    assert all(isinstance(d, ShmPayload) for d in descs)
    assert len({d.slot for d in descs}) == 1  # one physical copy
    del descs
    bus._evict_cache()


def test_control_message_after_cache_gc_stays_unpooled(pool):
    """Regression: a dead cache weakref returns None — a control message
    with a ``None`` payload must not inherit the stale descriptor."""
    import pickle

    from repro.net.messages import Message
    from repro.net.parallel import _QueueBus

    class _SinkChannel:
        def __init__(self):
            self.frames = []

        def send_bytes(self, data, pump):
            self.frames.append(data)

    channels = [_SinkChannel() for _ in range(2)]
    bus = _QueueBus(channels, pool)
    frame = _frame(4)
    bus._transmit(
        Message(src=0, dest=1, tag=("t",), payload=frame, words=frame.words,
                send_time=0.0)
    )
    del frame  # cache weakref now resolves to None
    bus._transmit(
        Message(src=0, dest=1, tag=("barrier",), payload=None, words=1,
                send_time=0.0)
    )
    control = pickle.loads(channels[1].frames[1])
    assert control.payload is None


# ---------------------------------------------------------------------------
# Published objects (the graph views)
# ---------------------------------------------------------------------------


def test_publish_attach_object_zero_copy():
    g = gen.rgg2d(200, expected_edges=1200, seed=3)
    dist = distribute(g, num_pes=2)
    view = dist.view(0)
    published = publish_object(view)
    assert published is not None
    handle, seg = published
    try:
        out, out_seg = attach_object(handle)
        np.testing.assert_array_equal(out.xadj, view.xadj)
        np.testing.assert_array_equal(out.adjncy, view.adjncy)
        assert not out.adjncy.flags.writeable  # view into the shared segment
        del out
        out_seg.close()
    finally:
        seg.close()
        seg.unlink()


def test_publish_object_without_arrays_declines():
    assert publish_object(("just", "strings", 3)) is None


# ---------------------------------------------------------------------------
# ProcessMachine integration
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def graph():
    return gen.rgg2d(500, expected_edges=4000, seed=11)


def test_exhausted_machine_pool_spills_and_stays_exact(graph):
    """A deliberately tiny pool must degrade, not deadlock or corrupt."""
    truth = edge_iterator(graph).triangles
    dist = distribute(graph, num_pes=3)
    machine = ProcessMachine(3, shm=True, shm_slots=1, shm_slot_bytes=4096)
    res = machine.run(counting_program, dist, EngineConfig(contraction=True))
    assert res.values[0].triangles_total == truth
    assert res.metrics.total_shm_spills > 0  # the tiny pool really overflowed


def test_disabled_pool_counts_nothing(graph):
    dist = distribute(graph, num_pes=2)
    res = ProcessMachine(2, shm=False).run(
        counting_program, dist, EngineConfig()
    )
    assert res.metrics.total_shm_frames == 0
    assert res.metrics.total_bytes_moved == 0


def _crashing_program(ctx, dist, cfg):
    yield
    if ctx.rank == 1:
        raise TransportError("injected link failure")
    while True:
        yield


def test_worker_crash_leaks_no_segments(graph):
    """Driver-owned segments are unlinked even when a worker dies."""
    dist = distribute(graph, num_pes=3)
    before = _shm_entries()
    with pytest.raises(RuntimeError, match="TransportError"):
        ProcessMachine(3, shm=True, timeout=60).run(
            _crashing_program, dist, EngineConfig()
        )
    assert _shm_entries() - before == set()


def test_simulated_accounting_has_no_transport_counters(graph):
    """shm counters are wall-side only: absent from summary(), zero in sim."""
    from repro.net import Machine

    dist = distribute(graph, num_pes=2)
    res = Machine(2).run(counting_program, dist, EngineConfig())
    summary = res.metrics.summary()
    assert "shm_frames" not in summary and "bytes_moved" not in summary
    assert res.metrics.total_shm_frames == 0
    assert res.metrics.total_bytes_moved == 0
