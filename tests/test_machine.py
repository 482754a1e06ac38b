"""Tests for the simulated machine: scheduling, clocks, causality."""

import ast
from pathlib import Path

import pytest

import repro
from repro.net import (
    CLOUD,
    DEFAULT_SPEC,
    DeadlockError,
    Machine,
    MachineSpec,
    OutOfMemoryError,
    SUPERMUC,
)


def test_single_pe_returns_value():
    def prog(ctx):
        ctx.charge(10)
        return ctx.rank * 100
        yield  # pragma: no cover

    res = Machine(1).run(prog)
    assert res.values == [0]
    assert res.time == pytest.approx(10 * DEFAULT_SPEC.flop_time)


def test_all_pes_run(
):
    def prog(ctx):
        yield
        return ctx.rank

    res = Machine(5).run(prog)
    assert res.values == list(range(5))


def test_charge_advances_clock():
    def prog(ctx):
        ctx.charge(1000)
        return ctx.clock
        yield  # pragma: no cover

    res = Machine(2, SUPERMUC).run(prog)
    assert res.values[0] == pytest.approx(1000 * SUPERMUC.flop_time)


def test_charge_rejects_negative():
    def prog(ctx):
        with pytest.raises(ValueError):
            ctx.charge(-1)
        with pytest.raises(ValueError):
            ctx.charge_time(-1.0)
        return None
        yield  # pragma: no cover

    Machine(1).run(prog)


def test_send_costs_alpha_beta():
    spec = MachineSpec(alpha=1.0, beta=0.1, flop_time=0.0)

    def prog(ctx):
        if ctx.rank == 0:
            ctx.send(1, "t", "hi", 10)
            return ctx.clock
        msg = yield from ctx.recv("t")
        return (msg.payload, ctx.clock)

    res = Machine(2, spec).run(prog)
    assert res.values[0] == pytest.approx(1.0 + 0.1 * 10)  # sender pays
    payload, recv_clock = res.values[1]
    assert payload == "hi"
    # receiver: fast-forward to send completion + its own endpoint cost
    assert recv_clock == pytest.approx(2 * (1.0 + 1.0))


def test_send_rejects_bad_dest_and_words():
    def prog(ctx):
        with pytest.raises(ValueError):
            ctx.send(9, "t", None, 1)
        with pytest.raises(ValueError):
            ctx.send(0, "t", None, -1)
        return None
        yield  # pragma: no cover

    Machine(2).run(prog)


def test_causal_timestamp_fast_forwards_receiver():
    spec = MachineSpec(alpha=0.0, beta=0.0, flop_time=1.0)

    def prog(ctx):
        if ctx.rank == 0:
            ctx.charge(100)  # sender is at t=100
            ctx.send(1, "x", None, 0)
            return ctx.clock
        msg = yield from ctx.recv("x")
        return ctx.clock

    res = Machine(2, spec).run(prog)
    assert res.values[1] >= 100.0  # receiver cannot see the message earlier


def test_try_recv_returns_none_when_empty():
    def prog(ctx):
        assert ctx.try_recv("nothing") is None
        assert ctx.pending("nothing") == 0
        return True
        yield  # pragma: no cover

    assert Machine(1).run(prog).values == [True]


def test_fifo_order_per_tag():
    def prog(ctx):
        if ctx.rank == 0:
            for i in range(5):
                ctx.send(1, "seq", i, 1)
            return None
        got = []
        for _ in range(5):
            msg = yield from ctx.recv("seq")
            got.append(msg.payload)
        return got

    res = Machine(2).run(prog)
    assert res.values[1] == [0, 1, 2, 3, 4]


def test_deadlock_detected():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.recv("never")  # nobody sends
        return None

    with pytest.raises(DeadlockError):
        Machine(2).run(prog)


def test_courtesy_yields_are_not_deadlock():
    def prog(ctx):
        for _ in range(3):
            yield  # no progress, but terminates
        return 1

    assert Machine(2).run(prog).values == [1, 1]


def test_memory_check():
    spec = MachineSpec(memory_words=100)

    def prog(ctx):
        ctx.check_memory(50)
        with pytest.raises(OutOfMemoryError):
            ctx.check_memory(101, what="test buffer")
        return None
        yield  # pragma: no cover

    Machine(1, spec).run(prog)


def test_phase_attribution():
    spec = MachineSpec(alpha=0, beta=0, flop_time=1.0)

    def prog(ctx):
        with ctx.span("a"):
            ctx.charge(10)
        with ctx.span("b"):
            ctx.charge(5)
        return None
        yield  # pragma: no cover

    res = Machine(1, spec).run(prog)
    phases = res.metrics.per_pe[0].phase_times
    assert phases["a"] == pytest.approx(10.0)
    assert phases["b"] == pytest.approx(5.0)


def test_metrics_counters():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.send(1, "m", None, 7)
        else:
            yield from ctx.recv("m")
        return None

    res = Machine(2).run(prog)
    m0, m1 = res.metrics.per_pe
    assert m0.messages_sent == 1 and m0.words_sent == 7
    assert m1.messages_received == 1 and m1.words_received == 7
    assert res.metrics.total_messages == 1
    assert res.metrics.bottleneck_volume == 7


def test_machine_requires_positive_pes():
    with pytest.raises(ValueError):
        Machine(0)


def test_determinism():
    def prog(ctx):
        total = 0
        if ctx.rank > 0:
            ctx.send(0, "v", ctx.rank, 1)
        else:
            for _ in range(ctx.num_pes - 1):
                msg = yield from ctx.recv("v")
                total = total * 10 + msg.payload
        return total

    a = Machine(4).run(prog)
    b = Machine(4).run(prog)
    assert a.values == b.values
    assert a.time == b.time


def test_spec_presets_ordering():
    assert SUPERMUC.alpha < CLOUD.alpha
    assert SUPERMUC.beta < CLOUD.beta
    assert SUPERMUC.message_time(100) < CLOUD.message_time(100)


def test_spec_scaled():
    s = SUPERMUC.scaled(alpha=1.0)
    assert s.alpha == 1.0
    assert s.beta == SUPERMUC.beta


def test_event_engine_traces_are_byte_identical_across_reruns():
    """Same program, same seed-free inputs => byte-identical Chrome trace."""
    from repro.net.trace import Tracer
    from repro.obs import chrome_trace_json

    def prog(ctx):
        with ctx.span("exchange"):
            peer = (ctx.rank + 1) % ctx.num_pes
            ctx.send(peer, "t", ctx.rank, 3)
            msg = yield from ctx.recv("t")
        return msg.payload

    def one_run():
        tracer = Tracer()
        res = Machine(4, tracer=tracer).run(prog)
        return res, chrome_trace_json(res.metrics, tracer, run_name="det")

    r1, j1 = one_run()
    r2, j2 = one_run()
    assert j1 == j2
    assert r1.time == r2.time
    assert r1.events == r2.events
    assert r1.engine.steps == r2.engine.steps


def test_contended_engine_traces_are_byte_identical_across_reruns():
    from repro.net import Network
    from repro.net.trace import Tracer
    from repro.obs import chrome_trace_json

    def prog(ctx):
        dest = ctx.num_pes - 1 - ctx.rank
        if dest != ctx.rank:
            ctx.send(dest, "t", None, 20)
            yield from ctx.recv("t")
        return ctx.clock

    def one_run():
        tracer = Tracer()
        res = Machine(
            6, network=Network(model="contended", node_size=2), tracer=tracer
        ).run(prog)
        return res, chrome_trace_json(res.metrics, tracer, run_name="det")

    r1, j1 = one_run()
    r2, j2 = one_run()
    assert j1 == j2
    assert r1.time == r2.time and r1.events == r2.events


def _machine_getattr_calls(root: Path) -> list[str]:
    """``getattr`` calls on the machine object (``self._machine``,
    ``ctx._machine`` or a name ``machine``) in the modules under ``root``."""

    def is_machine(node):
        if isinstance(node, ast.Name):
            return node.id == "machine"
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "_machine"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "ctx")
        )

    offenders = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and node.args
                and is_machine(node.args[0])
            ):
                offenders.append(f"{path.relative_to(root.parent)}:{node.lineno}")
    return offenders


@pytest.mark.parametrize("package", ["net", "sim"])
def test_machine_attributes_are_read_not_probed(package):
    """``Machine`` and the process backend's bus declare every attribute
    and hook their callers read, so nothing probes the machine."""
    assert _machine_getattr_calls(Path(repro.__file__).parent / package) == []
