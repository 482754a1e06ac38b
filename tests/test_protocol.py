"""Runtime SPMD protocol verification (``Machine(protocol_check=True)``).

The static half of the contract is enforced by ``repro.lint`` (see
``tests/test_lint.py``); these tests cover the runtime half: collective
fingerprinting, message conservation at teardown, and the upgraded
deadlock diagnostics.
"""

import pytest

from repro.net import (
    DeadlockError,
    Machine,
    ProtocolError,
    allreduce,
    barrier,
    sparse_alltoall,
)
from repro.sim.network import Network


def _divergent_program(ctx):
    """The canonical protocol bug: collective under rank-dependent flow."""
    if ctx.rank == 0:
        yield from barrier(ctx)
    else:
        yield from allreduce(ctx, 1, lambda a, b: a + b)
    return None


def test_rank_divergent_collective_is_caught():
    with pytest.raises(ProtocolError) as exc:
        Machine(2, protocol_check=True).run(_divergent_program)
    msg = str(exc.value)
    assert "divergence" in msg
    assert "barrier" in msg
    assert "reduce" in msg
    assert "rank 0" in msg and "rank 1" in msg


@pytest.mark.parametrize("p", [2, 3, 4, 8])
def test_divergence_caught_at_any_scale(p):
    with pytest.raises(ProtocolError):
        Machine(p, protocol_check=True).run(_divergent_program)


def test_divergence_names_the_entry_position():
    def prog(ctx):
        yield from barrier(ctx)  # entry #1: identical everywhere
        if ctx.rank == 0:
            yield from barrier(ctx)  # entry #2 diverges
        else:
            yield from allreduce(ctx, 1, lambda a, b: a + b)
        return None

    with pytest.raises(ProtocolError, match="#2"):
        Machine(2, protocol_check=True).run(prog)


def test_matching_collectives_pass():
    def prog(ctx):
        yield from barrier(ctx)
        total = yield from allreduce(ctx, ctx.rank, lambda a, b: a + b)
        msgs = yield from sparse_alltoall(
            ctx, [((ctx.rank + 1) % ctx.num_pes, "x", 1)]
        )
        return (total, len(msgs))

    res = Machine(4, protocol_check=True).run(prog)
    assert res.values == [(6, 1)] * 4


def test_unreceived_message_fails_conservation():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.send(1, "orphan", None, 1)
        yield
        return None

    with pytest.raises(ProtocolError) as exc:
        Machine(2, protocol_check=True).run(prog)
    msg = str(exc.value)
    assert "conservation" in msg
    assert "orphan" in msg
    assert "1 sent, 0 received" in msg


def test_conservation_not_enforced_without_opt_in():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.send(1, "orphan", None, 1)
        yield
        return ctx.rank

    res = Machine(2, protocol_check=False).run(prog)
    assert res.values == [0, 1]


def test_protocol_check_default_reads_environment(monkeypatch):
    monkeypatch.setenv("REPRO_PROTOCOL_CHECK", "1")
    assert Machine(2).protocol_check is True
    monkeypatch.setenv("REPRO_PROTOCOL_CHECK", "0")
    assert Machine(2).protocol_check is False
    monkeypatch.delenv("REPRO_PROTOCOL_CHECK")
    assert Machine(2).protocol_check is False
    # An explicit argument always wins over the environment.
    monkeypatch.setenv("REPRO_PROTOCOL_CHECK", "1")
    assert Machine(2, protocol_check=False).protocol_check is False


# ---------------------------------------------------------------------------
# Upgraded DeadlockError diagnostics
# ---------------------------------------------------------------------------


def test_deadlock_reports_blocked_ranks_and_tags():
    def prog(ctx):
        if ctx.rank == 0:
            yield from ctx.recv("never-sent")
        return None

    with pytest.raises(DeadlockError) as exc:
        Machine(2).run(prog)
    msg = str(exc.value)
    assert "waiting PEs: [0]" in msg
    assert "rank 0" in msg
    assert "never-sent" in msg
    assert "blocked on recv" in msg


def test_deadlock_reports_pending_message_census():
    def prog(ctx):
        if ctx.rank == 1:
            ctx.send(0, "wrong-tag", "hello", 3)
            return None
        yield from ctx.recv("right-tag")
        return None

    with pytest.raises(DeadlockError) as exc:
        Machine(2).run(prog)
    msg = str(exc.value)
    # Rank 0 blocks on the tag it wants, while the census shows the
    # message that actually arrived — the classic tag-mismatch smoking gun.
    assert "right-tag" in msg
    assert "wrong-tag" in msg
    assert "1 message(s) pending machine-wide" in msg


def test_deadlock_census_includes_finished_holders():
    def prog(ctx):
        if ctx.rank == 0:
            # Finishes immediately but keeps an undelivered message.
            return None
        if ctx.rank == 1:
            ctx.send(0, "stranded", None, 1)
            yield from ctx.recv("never")
        return None

    with pytest.raises(DeadlockError) as exc:
        Machine(2).run(prog)
    msg = str(exc.value)
    assert "finished but holds undelivered messages" in msg
    assert "stranded" in msg


def test_engine_runs_clean_under_protocol_check():
    """End-to-end: a real counting run satisfies the whole contract."""
    from repro.core.engine import CONFIGS, counting_program
    from repro.graphs import distribute
    from repro.graphs import generators as gen

    g = gen.complete_graph(8)
    dist = distribute(g, num_pes=4)
    res = Machine(4, protocol_check=True).run(
        counting_program, dist, CONFIGS["cetric"]
    )
    assert res.values[0].triangles_total == 56


def test_unsettled_send_fails_teardown(monkeypatch):
    """Every send settles its sender's in-flight count exactly once."""
    settle = Machine._settle_send
    skipped = []

    def skip_first(self, src):
        if not skipped and self._in_flight is not None:
            skipped.append(src)
            return
        settle(self, src)

    def prog(ctx):
        ctx.send((ctx.rank + 1) % ctx.num_pes, "ring", None, 1)
        yield from ctx.recv("ring")
        return None

    network = Network(model="contended")
    assert Machine(3, network=network, protocol_check=True).run(prog).values == [None] * 3
    monkeypatch.setattr(Machine, "_settle_send", skip_first)
    with pytest.raises(ProtocolError, match="settle exactly once"):
        Machine(3, network=network, protocol_check=True).run(prog)
    assert len(skipped) == 1
