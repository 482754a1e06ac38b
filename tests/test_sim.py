"""The event-driven simulation engine (``repro.sim``).

Three contracts under test:

1. **Compat bit-identity** (the migration guarantee): under the default
   ``Network(model="alpha-beta")``, the event scheduler replays strict
   round-robin polling bit-identically — same values, same
   ``simulated_time``, same per-PE message/word counters, same event
   counter — across all eight algorithm variants (golden sha256
   fingerprints frozen from the retired round-robin loop).
2. **Exact deadlock detection**: an all-blocked machine raises
   :class:`DeadlockError` from the empty event queue immediately, with
   the full per-PE forensics; courtesy yields never trip it.
3. **Contention**: the ``"contended"`` network model queues messages on
   busy links (arrival later than alpha-beta), bypasses links within a
   node, and stays deterministic.
"""

import hashlib

import pytest

from repro.baselines.havoqgt import havoqgt_program
from repro.baselines.tric import tric_program
from repro.core.edge_iterator import edge_iterator
from repro.core.engine import CONFIGS, counting_program
from repro.graphs import distribute
from repro.graphs import generators as gen
from repro.net import DeadlockError, Machine, Network, ProcessMachine
from repro.net.comm import barrier, sparse_alltoall
from repro.sim import (
    PRIORITY_DELIVERY,
    PRIORITY_RESUME,
    PRIORITY_TIMER,
    EventQueue,
    NetworkStats,
)
from repro.sim.engine import LIVELOCK_ROUNDS


# ---------------------------------------------------------------------------
# Event queue units
# ---------------------------------------------------------------------------


def test_event_queue_orders_by_time_then_priority_then_seq():
    q = EventQueue()
    order = []
    q.push(2.0, PRIORITY_RESUME, lambda: order.append("late"))
    q.push(1.0, PRIORITY_RESUME, lambda: order.append("resume"))
    q.push(1.0, PRIORITY_TIMER, lambda: order.append("timer"))
    q.push(1.0, PRIORITY_DELIVERY, lambda: order.append("delivery-a"))
    q.push(1.0, PRIORITY_DELIVERY, lambda: order.append("delivery-b"))
    while True:
        ev = q.pop()
        if ev is None:
            break
        ev.fn()
    # Same time: deliveries first, then timers, then resumes; equal
    # (time, priority) resolved by insertion order.
    assert order == ["delivery-a", "delivery-b", "timer", "resume", "late"]
    assert q.now == 2.0


def test_event_queue_cancellation_and_peek():
    q = EventQueue()
    keep = q.push(1.0, PRIORITY_TIMER, lambda: "keep")
    drop = q.push(0.5, PRIORITY_TIMER, lambda: "drop")
    drop.cancelled = True
    assert q.peek_time() == 1.0
    assert q.pop() is keep
    assert q.pop() is None
    assert len(q) == 0 and not q


def test_event_queue_now_is_monotone():
    q = EventQueue()
    q.push(3.0, PRIORITY_TIMER, lambda: None)
    q.push(1.0, PRIORITY_TIMER, lambda: None)
    assert q.pop().time == 1.0
    assert q.now == 1.0
    assert q.pop().time == 3.0
    assert q.now == 3.0


# ---------------------------------------------------------------------------
# Network units
# ---------------------------------------------------------------------------


def test_network_validation():
    with pytest.raises(ValueError):
        Network(model="token-ring")
    with pytest.raises(ValueError):
        Network(node_size=0)
    with pytest.raises(ValueError):
        Network(oversubscription=0.5)


def test_alpha_beta_network_is_instant():
    from repro.net import DEFAULT_SPEC

    net = Network()
    net.bind(DEFAULT_SPEC, 8)
    assert net.arrival_time(0, 7, 100, 3.5) == 3.5
    stats = net.stats()
    assert stats.queue_seconds == 0.0 and stats.links_used == 0


def test_contended_links_queue_and_intra_node_bypasses():
    from repro.net import DEFAULT_SPEC

    net = Network(model="contended", node_size=4)
    net.bind(DEFAULT_SPEC, 8)
    transit = net.transit_time(10)
    # Intra-node: no link claimed, arrival is the injection time.
    assert net.arrival_time(0, 3, 10, 1.0) == 1.0
    # First inter-node message: uplink then downlink, no queueing.
    a1 = net.arrival_time(0, 4, 10, 0.0)
    assert a1 == pytest.approx(2 * transit)
    # Second message injected at the same instant queues behind it on
    # both links.
    a2 = net.arrival_time(1, 5, 10, 0.0)
    assert a2 > a1
    stats = net.stats()
    assert stats.queue_seconds > 0.0
    assert stats.max_link_queue_seconds > 0.0
    assert stats.messages == 4  # 2 messages x (uplink + downlink)


def test_bind_rederives_constants_and_resets_links():
    from repro.net import DEFAULT_SPEC

    net = Network(model="contended", node_size=2, oversubscription=2.0)
    net.bind(DEFAULT_SPEC, 4)
    assert net.link_alpha == DEFAULT_SPEC.alpha
    assert net.link_beta == pytest.approx(2.0 * DEFAULT_SPEC.beta)
    net.arrival_time(0, 2, 5, 0.0)
    assert net.stats().messages > 0
    net.bind(DEFAULT_SPEC, 4)
    assert net.stats().messages == 0


# ---------------------------------------------------------------------------
# Machine facade
# ---------------------------------------------------------------------------


def test_engine_stats_reported_only_by_event_scheduler():
    def prog(ctx):
        yield from barrier(ctx)
        return ctx.rank

    ev = Machine(4).run(prog)
    assert ev.engine is not None and ev.engine.discipline == "compat-heap"
    assert ev.engine.steps > 0 and ev.engine.wakeups > 0
    # alpha-beta runs carry no link stats (nothing to contend for).
    assert ev.network is None
    # The process backend runs no event engine.
    assert ProcessMachine(2).run(prog).engine is None


# ---------------------------------------------------------------------------
# Compat bit-identity fingerprint: 2 generators x 3 seeds x 8 variants
# ---------------------------------------------------------------------------

ALGOS = (*CONFIGS, "tric", "havoqgt")

#: sha256 over all eight variants per (generator, seed): per-PE return
#: values, makespan and event counter, per-PE clocks and message/word
#: counters.  Frozen from the strict round-robin polling loop (every
#: live PE resumed once per round) that compat-heap replaced; any change
#: to scheduling order or charging moves these digests.
GOLDEN_SCHEDULE = {
    ("rmat", 101): "a5dd110d8aaa3d433953a028ae46e1e1f2d5c0f800c69ea5e573a4257360e1c5",
    ("rmat", 102): "14642e5e9aa696a760fd0451f089ac31838818e8ffb021d5e4c8cc21496ea737",
    ("rmat", 103): "cf31529a1b626243580a9c24fffb2e8ed063eb0ffe85133a795120d5a6bb3cd6",
    ("rgg3d", 101): "23662354ff583cef5cb5ad78c56c56fb03fb4a022bb5d828c375fe6d9f8e4513",
    ("rgg3d", 102): "f6afc4ae66da87ec02c23a9ed6785f0225c94b831dc52d69d81717b3b254d0bb",
    ("rgg3d", 103): "5aaf7988ef950544688a3bbd04d203e6838813163793e300e0d9f8d200e366cc",
}


def _program_of(algorithm, dist):
    if algorithm in CONFIGS:
        return counting_program, (dist, CONFIGS[algorithm])
    if algorithm == "tric":
        return tric_program, (dist,)
    return havoqgt_program, (dist,)


def _graph(generator, seed):
    if generator == "rmat":
        return gen.rmat(8, 8, seed=seed)
    return gen.rgg3d(300, expected_edges=2400, seed=seed)


def _triangles_of(value):
    return getattr(value, "triangles_total", None) or getattr(value, "triangles", value)


def _hash_run(h, res):
    h.update(f"{res.values!r}|{res.time.hex()}|{res.events}\n".encode())
    for pe in res.metrics.per_pe:
        h.update(
            f"{pe.clock.hex()}|{pe.messages_sent}|{pe.words_sent}"
            f"|{pe.messages_received}|{pe.words_received}\n".encode()
        )


@pytest.mark.parametrize("seed", [101, 102, 103])
@pytest.mark.parametrize("generator", ["rmat", "rgg3d"])
def test_event_scheduler_is_bit_identical_to_round_robin(generator, seed):
    graph = _graph(generator, seed)
    truth = edge_iterator(graph).triangles
    dist = distribute(graph, num_pes=4)
    h = hashlib.sha256()
    for algorithm in ALGOS:
        program, args = _program_of(algorithm, dist)
        res = Machine(4).run(program, *args)
        assert _triangles_of(res.values[0]) == truth, algorithm
        _hash_run(h, res)
    assert h.hexdigest() == GOLDEN_SCHEDULE[generator, seed]


# ---------------------------------------------------------------------------
# Exact deadlock detection + livelock guard
# ---------------------------------------------------------------------------


def test_exact_deadlock_detected_with_forensics():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.recv("never-sent")
        return None
        yield  # pragma: no cover

    with pytest.raises(DeadlockError) as err:
        Machine(2).run(prog)
    msg = str(err.value)
    assert "exact deadlock" in msg
    assert "waiting PEs: [0]" in msg
    assert "blocked on recv" in msg and "never-sent" in msg


def test_courtesy_yields_do_not_deadlock_event_scheduler():
    def prog(ctx):
        for _ in range(LIVELOCK_ROUNDS - 2):
            yield
        return ctx.rank

    res = Machine(3).run(prog)
    assert res.values == [0, 1, 2]


def test_livelock_guard_catches_infinite_spinner():
    def prog(ctx):
        if ctx.rank == 0:
            while True:
                yield  # never blocks, never progresses
        return None
        yield  # pragma: no cover

    with pytest.raises(DeadlockError) as err:
        Machine(2).run(prog)
    assert "livelock" in str(err.value)


def test_wakeup_mid_round_matches_round_robin_order():
    """A message sent by a lower rank wakes a higher rank in-round.

    The expected time and event count are the round-robin loop's.
    """

    def prog(ctx):
        if ctx.rank == 0:
            ctx.charge(10)
            ctx.send(2, "t", "x", 1)
        elif ctx.rank == 2:
            msg = yield from ctx.recv("t")
            return msg.payload
        return None
        yield  # pragma: no cover

    ev = Machine(3).run(prog)
    assert ev.values == [None, None, "x"]
    assert (ev.time.hex(), ev.events) == ("0x1.0d31440251d69p-18", 6)


# ---------------------------------------------------------------------------
# Contended model end-to-end
# ---------------------------------------------------------------------------


def _pairwise_exchange(ctx):
    """Every PE sends one message to its cross-node partner and drains."""
    payloads = [(ctx.num_pes - 1 - ctx.rank, ctx.rank, 50)]
    got = yield from sparse_alltoall(ctx, payloads, tag_label="x")
    return sorted(m.payload for m in got)


def test_contention_slows_the_same_program_down():
    flat = Machine(8).run(_pairwise_exchange)
    contended = Machine(
        8, network=Network(model="contended", node_size=4)
    ).run(_pairwise_exchange)
    assert contended.values == flat.values  # same answers...
    assert contended.time > flat.time  # ...later arrivals
    assert isinstance(contended.network, NetworkStats)
    assert contended.network.queue_seconds > 0.0
    assert contended.engine.discipline == "des"


def test_intra_node_traffic_matches_alpha_beta_time():
    """A node-local exchange never touches a link: times are identical."""

    def local_pingpong(ctx):
        peer = ctx.rank ^ 1
        if ctx.rank % 2 == 0:
            ctx.send(peer, "ping", None, 5)
            yield from ctx.recv("pong")
        else:
            yield from ctx.recv("ping")
            ctx.send(peer, "pong", None, 5)
        return ctx.clock

    flat = Machine(4).run(local_pingpong)
    contended = Machine(4, network=Network(model="contended", node_size=4)).run(
        local_pingpong
    )
    assert contended.values == flat.values
    assert contended.time == flat.time
    assert contended.network.links_used == 0


def test_contended_run_is_deterministic():
    def run_once():
        res = Machine(8, network=Network(model="contended", node_size=2)).run(
            _pairwise_exchange
        )
        return res.time, res.events, res.network, res.values

    assert run_once() == run_once()


def test_sync_sends_is_noop_under_instant_delivery():
    def prog(ctx):
        steps = 0
        ctx.send((ctx.rank + 1) % ctx.num_pes, "t", None, 1)
        for _ in ctx.sync_sends():
            steps += 1
        yield from ctx.recv("t")
        return steps
        yield  # pragma: no cover

    res = Machine(3).run(prog)
    assert res.values == [0, 0, 0]


def test_deadlock_forensics_name_blocked_sync_sends():
    """A PE parked in sync_sends shows up as such in the diagnostic."""

    def prog(ctx):
        if ctx.rank == 0:
            # Fill the link, then wait for delivery that requires rank 1
            # to... never exist: rank 1 blocks forever first.
            ctx.send(2, "t", None, 10)
            yield from ctx.sync_sends()
            yield from ctx.recv("never")
        elif ctx.rank == 1:
            yield from ctx.recv("never")
        else:
            yield from ctx.recv("t")
            yield from ctx.recv("never")
        return None
        yield  # pragma: no cover

    with pytest.raises(DeadlockError) as err:
        Machine(4, network=Network(model="contended", node_size=1)).run(prog)
    msg = str(err.value)
    assert "exact deadlock" in msg
    assert "blocked on recv" in msg


def test_fingerprint_algorithms_run_on_contended_network():
    """The counting engines produce exact counts under contention too."""
    graph = gen.rmat(8, 8, seed=17)
    truth = edge_iterator(graph).triangles
    dist = distribute(graph, num_pes=4)
    for algorithm in ("ditric", "cetric"):
        program, args = _program_of(algorithm, dist)
        res = Machine(
            4, network=Network(model="contended", node_size=2)
        ).run(program, *args)
        assert _triangles_of(res.values[0]) == truth, algorithm
        assert res.time > 0.0
