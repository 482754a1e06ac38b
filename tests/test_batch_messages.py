"""The batched message path: ``send_many``/``recv_many`` against per-message calls.

A batch must be accounted exactly like the same messages sent with one
``send`` each and received with one ``try_recv`` each: same clocks to
the bit, same metrics, same inbox order, same tracer events, under
every machine configuration that handles a batch differently.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.faults import FaultPlan
from repro.net import DEFAULT_SPEC, Machine, Network
from repro.net.comm import barrier
from repro.net.parallel import ProcessMachine
from repro.net.trace import Tracer


def _plan(seed: int, p: int) -> list[list[tuple[tuple, list[int], list[int]]]]:
    """Per source rank, its batches as ``(tag, dests, words)``; every PE
    derives the same plan from ``seed``."""
    rng = np.random.default_rng(seed)
    plan = []
    for src in range(p):
        batches = []
        for j in range(int(rng.integers(1, 4))):
            n = int(rng.integers(0, 7))
            dests = rng.integers(0, p, size=n).tolist()
            words = rng.integers(0, 40, size=n).tolist()
            batches.append((("t", src, j), dests, words))
        plan.append(batches)
    return plan


def _program(ctx, seed: int, batched: bool):
    plan = _plan(seed, ctx.num_pes)
    rng = np.random.default_rng(seed + 1000 + ctx.rank)
    shared = ("shared", ctx.rank)  # one object sent to many: the bus's dedup case
    for tag, dests, words in plan[ctx.rank]:
        ctx.charge(int(rng.integers(0, 50)))
        payloads = [shared if i % 2 else (tag, i) for i in range(len(dests))]
        if batched:
            ctx.send_many(dests, tag, payloads, words)
        else:
            for dest, payload, w in zip(dests, payloads, words):
                ctx.send(dest, tag, payload, w)
    yield from ctx.sync_sends()
    yield from barrier(ctx)
    got = []
    for batches in plan:
        for tag, dests, _ in batches:
            want = dests.count(ctx.rank)
            if batched:
                msgs = []
                while len(msgs) < want:
                    msgs += ctx.recv_many(tag, int(rng.integers(1, 4)))
                assert ctx.recv_many(tag) == []
            else:
                msgs = [ctx.try_recv(tag) for _ in range(want)]
                assert ctx.try_recv(tag) is None
            got += [(m.src, m.tag, m.payload, m.words, m.send_time.hex()) for m in msgs]
    return got, ctx.clock.hex()


def _machine(kind: str, p: int, seed: int, tracer: Tracer) -> Machine:
    if kind == "straggler":
        plan = FaultPlan(seed=seed, stragglers={0: 2.5, p - 1: 1.75})
        return Machine(p, tracer=tracer, fault_plan=plan, transport="direct")
    if kind == "reliable":
        plan = FaultPlan(seed=seed, drop_rate=0.2, duplicate_rate=0.2, delay_rate=0.2)
        return Machine(p, tracer=tracer, fault_plan=plan, transport="reliable")
    if kind == "contended":
        return Machine(p, tracer=tracer, network=Network(model="contended", node_size=2))
    return Machine(p, tracer=tracer)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    p=st.integers(min_value=1, max_value=6),
    kind=st.sampled_from(["direct", "straggler", "reliable", "contended"]),
)
def test_batches_match_per_message_calls(seed, p, kind):
    runs = []
    for batched in (False, True):
        tracer = Tracer()
        res = _machine(kind, p, seed, tracer).run(_program, seed, batched)
        runs.append((res.values, res.metrics.per_pe, tracer.events, res.events))
    single, batch = runs
    assert batch[0] == single[0]  # inbox order, payloads, clocks (hex)
    assert batch[1] == single[1]  # every per-PE metric
    assert batch[2] == single[2]  # tracer events, in order
    assert batch[3] == single[3]  # the machine's event counter
    # ``send``/``try_recv`` share the batch path, so also check each
    # clock against the charges it is made of.
    for m in batch[1]:
        slowdown = {0: 2.5, p - 1: 1.75}.get(m.rank, 1.0) if kind == "straggler" else 1.0
        compute = slowdown * DEFAULT_SPEC.compute_time(m.local_ops)
        parts = compute + m.comm_seconds + m.wait_seconds + m.retransmit_seconds
        assert m.clock == pytest.approx(parts, rel=1e-12, abs=1e-18)


@pytest.mark.parametrize("seed", [3, 11])
def test_batches_match_per_message_calls_on_processes(seed):
    """Each (source, batch) has its own tag, so a pipe run is deterministic."""
    single, batch = (
        ProcessMachine(3).run(_program, seed, batched) for batched in (False, True)
    )
    assert batch.values == single.values
    for b, s in zip(batch.metrics.per_pe, single.metrics.per_pe):
        assert (b.clock.hex(), b.messages_sent, b.words_sent, b.messages_received) == (
            s.clock.hex(),
            s.messages_sent,
            s.words_sent,
            s.messages_received,
        )
        assert (b.words_received, b.comm_seconds, b.wait_seconds) == (
            s.words_received,
            s.comm_seconds,
            s.wait_seconds,
        )


@pytest.mark.parametrize(
    "dests, words",
    [([1, 2], [3, 1]), ([1, 0], [3, -1]), ([0, 1], [3])],
    ids=["bad-dest", "negative-words", "length-mismatch"],
)
def test_rejected_batch_charges_nothing(dests, words):
    tracer = Tracer()

    def prog(ctx):
        before = (ctx.clock, ctx.metrics.comm_seconds, ctx.metrics.messages_sent)
        if ctx.rank == 0:
            with pytest.raises(ValueError):
                ctx.send_many(dests, "t", [None, None], words)
        assert (ctx.clock, ctx.metrics.comm_seconds, ctx.metrics.messages_sent) == before
        yield from barrier(ctx)
        return ctx.pending("t")

    res = Machine(2, tracer=tracer).run(prog)
    assert res.values == [0, 0]
    assert not [e for e in tracer.events if e.tag == "t"]


def _sends_in_loops(path: Path) -> list[int]:
    """Lines of ``ctx.send(`` calls inside a loop that never yields.

    A loop that yields between its sends waits for a peer each round
    (the dissemination barrier), so its sends cannot form one batch.
    """
    lines = []
    for loop in ast.walk(ast.parse(path.read_text())):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        body = [n for stmt in loop.body + loop.orelse for n in ast.walk(stmt)]
        if any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in body):
            continue
        lines += [
            n.lineno
            for n in body
            if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == "send"
        ]
    return lines


@pytest.mark.parametrize("module", ["comm.py", "aggregation.py"])
def test_many_message_senders_use_send_many(module):
    assert _sends_in_loops(Path(repro.__file__).parent / "net" / module) == []
