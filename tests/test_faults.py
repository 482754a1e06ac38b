"""The fault-injection subsystem: plans, transports, recovery, chaos.

Covers the ISSUE-2 acceptance criteria: the chaos campaign (seeds x
drop rates x one scheduled PE crash) returns exact sequential counts
for DITRIC and CETRIC, fault injection is deterministic (identical
plans replay identical runs, metrics, and traces), the reliable
transport's zero-fault overhead stays within budget, and crash
recovery re-runs only the lost phase.
"""

import dataclasses
import hashlib

import pytest

from repro.core.checkpoint import CheckpointStore, run_with_recovery, state_words
from repro.core.edge_iterator import edge_iterator
from repro.core.engine import CONFIGS, counting_program
from repro.faults import (
    CrashEvent,
    FaultPlan,
    ReliableConfig,
    TimedCrash,
    TransportError,
    format_campaign,
    run_campaign,
    run_chaos_case,
)
from repro.faults.chaos import default_chaos_graph
from repro.graphs.distributed import distribute
from repro.net import (
    DeadlockError,
    Machine,
    PECrashError,
    ProtocolError,
    Tracer,
    barrier,
    reliable_send,
    render_timeline,
)
from repro.net.reliable import fault_tolerant
from repro.sim.network import Network


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
def test_plan_validates_rates_and_factors():
    with pytest.raises(ValueError):
        FaultPlan(drop_rate=1.0)
    with pytest.raises(ValueError):
        FaultPlan(duplicate_rate=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(stragglers={0: 0.5})
    with pytest.raises(ValueError):
        CrashEvent(rank=-1, at_event=0)
    with pytest.raises(ValueError):
        CrashEvent(rank=0, at_event=-1)


def test_plan_roundtrips_through_dict():
    plan = FaultPlan(
        4,
        drop_rate=0.1,
        duplicate_rate=0.2,
        delay_rate=0.05,
        reorder_rate=0.01,
        crashes=(CrashEvent(1, 100),),
        stragglers={2: 3.0},
    )
    clone = FaultPlan.from_dict(plan.to_dict())
    assert clone.to_dict() == plan.to_dict()


def test_plan_decisions_replay_after_reset():
    plan = FaultPlan(7, drop_rate=0.5, duplicate_rate=0.3)
    first = [(plan.should_drop(), plan.should_duplicate()) for _ in range(64)]
    plan.reset()
    again = [(plan.should_drop(), plan.should_duplicate()) for _ in range(64)]
    assert first == again
    assert any(d for d, _ in first) and any(not d for d, _ in first)


def test_plan_zero_rates_never_draw():
    """Disabled fault classes must not perturb the decision stream."""
    a = FaultPlan(1, drop_rate=0.5)
    drops_a = [a.should_drop() for _ in range(32)]
    b = FaultPlan(1, drop_rate=0.5, duplicate_rate=0.0, reorder_rate=0.0)
    # should_duplicate()/should_reorder() at rate 0 consume no randomness.
    drops_b = []
    for _ in range(32):
        assert not b.should_duplicate()
        assert not b.should_reorder()
        drops_b.append(b.should_drop())
    assert drops_a == drops_b


def test_crash_events_fire_at_most_once():
    plan = FaultPlan(crashes=(CrashEvent(1, 10),))
    assert not plan.crash_due(1, 9)
    assert not plan.crash_due(0, 50)
    assert plan.crash_due(1, 10)
    assert not plan.crash_due(1, 11), "a crash-stop fires once per plan"
    plan.reset()
    assert plan.crash_due(1, 99), "reset re-arms the schedule"


def test_straggler_lookup():
    plan = FaultPlan(stragglers={2: 4.0})
    assert plan.slowdown(2) == 4.0
    assert plan.slowdown(0) == 1.0


# ----------------------------------------------------------------------
# Machine integration: crashes, stragglers, transports
# ----------------------------------------------------------------------
def _chatty(ctx):
    for _ in range(4):
        ctx.send((ctx.rank + 1) % ctx.num_pes, "t", None, 2)
        yield from barrier(ctx)
        while ctx.try_recv("t") is not None:
            pass
    return ctx.clock


def test_scheduled_crash_raises_pecrasherror():
    plan = FaultPlan(crashes=(CrashEvent(rank=1, at_event=5),))
    machine = Machine(3, fault_plan=plan, transport="direct")
    with pytest.raises(PECrashError) as err:
        machine.run(_chatty)
    assert err.value.rank == 1
    assert err.value.event >= 5


def test_straggler_slows_exactly_its_pe():
    clean = Machine(3).run(_chatty)
    slow = Machine(
        3, fault_plan=FaultPlan(stragglers={1: 10.0}), transport="direct"
    ).run(_chatty)
    assert slow.metrics.per_pe[1].clock > clean.metrics.per_pe[1].clock * 5
    assert slow.metrics.makespan > clean.metrics.makespan


def test_machine_rejects_bad_transport_combinations():
    with pytest.raises(ValueError):
        Machine(2, transport="carrier-pigeon")
    with pytest.raises(ValueError):
        Machine(2, transport="lossy")  # lossy needs a plan
    with pytest.raises(ValueError):
        Machine(2, fault_plan=FaultPlan(drop_rate=0.5), transport="direct")


def test_reliable_transport_gives_up_after_max_attempts():
    plan = FaultPlan(seed=0, drop_rate=0.9)
    machine = Machine(
        2,
        fault_plan=plan,
        transport="reliable",
        reliable_config=ReliableConfig(max_attempts=1),
        protocol_check=False,
    )

    def prog(ctx):
        if ctx.rank == 0:
            for _ in range(50):
                ctx.send(1, "t", None, 1)
        yield

    with pytest.raises(TransportError):
        machine.run(prog)


def test_reliable_config_validation():
    with pytest.raises(ValueError):
        ReliableConfig(timeout_factor=0.0)
    with pytest.raises(ValueError):
        ReliableConfig(backoff=0.5)
    with pytest.raises(ValueError):
        ReliableConfig(ack_every=0)


def test_reliable_send_guards_against_lossy_transport():
    plan = FaultPlan(seed=1, duplicate_rate=0.5)

    @fault_tolerant
    def prog(ctx):
        if ctx.rank == 0:
            reliable_send(ctx, 1, "t", "x", 1)
        yield from barrier(ctx)
        while ctx.try_recv("t") is not None:
            pass
        return True

    # Over the reliable transport (and fault-free direct), it is a send.
    assert Machine(2, fault_plan=plan).run(prog).values == [True, True]
    assert Machine(2).run(prog).values == [True, True]
    # Over the lossy transport it refuses to expose the program.
    with pytest.raises(ProtocolError):
        Machine(2, fault_plan=plan, transport="lossy").run(prog)


def test_drop_and_retry_events_render_distinctly():
    tracer = Tracer()
    plan = FaultPlan(seed=9, drop_rate=0.4)
    machine = Machine(2, fault_plan=plan, transport="reliable", tracer=tracer)

    def prog(ctx):
        if ctx.rank == 0:
            for _ in range(12):
                ctx.send(1, "t", None, 1)
        yield from barrier(ctx)
        while ctx.try_recv("t") is not None:
            pass
        return None

    machine.run(prog)
    kinds = {e.kind for e in tracer.events}
    assert {"drop", "retry"} <= kinds
    text = render_timeline(tracer, max_events=10_000)
    assert "DROPPED" in text and "-x" in text
    assert "RETRY" in text and "~>" in text


# ----------------------------------------------------------------------
# Checkpoint store + recovery driver
# ----------------------------------------------------------------------
def test_state_words_estimates():
    import numpy as np

    assert state_words(np.zeros(10)) == 10
    assert state_words({"a": np.zeros(4), "b": 1}) == (1 + 4) + (1 + 1)
    assert state_words([1, 2, 3]) == 3
    assert state_words(None) == 1


def test_store_save_load_cursor_semantics():
    store = CheckpointStore(2)
    store.begin_run()
    store.save(0, "local", {"x": 1})
    store.save(0, "contraction", {"y": 2})
    store.begin_run()
    state, words = store.load(0, "local")
    assert state == {"x": 1} and words >= 1
    assert store.load(0, "nope") is None, "name mismatch means recompute"
    # Saving after a miss truncates the abandoned tail.
    store.save(0, "other", {"z": 3})
    assert store.names(0) == ["local", "other"]


def test_store_snapshots_are_isolated_copies():
    import numpy as np

    store = CheckpointStore(1)
    arr = np.arange(4)
    store.save(0, "phase", {"arr": arr})
    arr[:] = -1
    store.begin_run()
    state, _ = store.load(0, "phase")
    assert list(state["arr"]) == [0, 1, 2, 3]
    state["arr"][:] = 7  # mutating the restored copy is also safe
    store.begin_run()
    fresh, _ = store.load(0, "phase")
    assert list(fresh["arr"]) == [0, 1, 2, 3]


def test_prune_to_stable_keeps_common_prefix_only():
    store = CheckpointStore(3)
    for rank in range(3):
        store.save(rank, "local", {"r": rank})
    store.save(0, "contraction", {"r": 0})  # ranks 1, 2 crashed before it
    assert store.prune_to_stable() == 1
    assert all(store.names(r) == ["local"] for r in range(3))


def test_load_name_mismatch_leaves_cursor_for_the_right_name():
    """A mismatch must not consume the snapshot it rejected."""
    store = CheckpointStore(1)
    store.save(0, "local", {"x": 1})
    store.begin_run()
    assert store.load(0, "contraction") is None
    state, _ = store.load(0, "local")
    assert state == {"x": 1}, "the rejected snapshot is still replayable"


def test_prune_to_stable_cuts_at_mid_prefix_name_divergence():
    """Equal-length histories still prune where the *names* diverge."""
    store = CheckpointStore(2)
    for rank in range(2):
        store.save(rank, "local", {"r": rank})
    # Same depth, different second phase: an inconsistent cut.
    store.save(0, "contraction", {"r": 0})
    store.save(1, "global", {"r": 1})
    assert store.prune_to_stable() == 1
    assert store.names(0) == ["local"] and store.names(1) == ["local"]


def test_repeated_crashes_of_the_same_rank_recover():
    """The same PE failing in two attempts needs two restarts."""
    graph = default_chaos_graph()
    dist = distribute(graph, num_pes=4)
    expected = edge_iterator(graph).triangles
    dry = Machine(4).run(counting_program, dist, CONFIGS["ditric"])
    plan = FaultPlan(
        crashes=(
            CrashEvent(rank=2, at_event=int(dry.events * 0.5)),
            CrashEvent(rank=2, at_event=int(dry.events * 0.9)),
        )
    )
    machine = Machine(
        4, fault_plan=plan, transport="reliable", checkpoint_store=CheckpointStore(4)
    )
    recovery = run_with_recovery(machine, counting_program, dist, CONFIGS["ditric"])
    assert recovery.restarts == 2
    assert [r for r, _ in recovery.crashes] == [2, 2]
    assert recovery.values[0].triangles_total == expected


def test_recovery_result_prices_lost_attempts():
    """``total_time`` bills every aborted attempt, not just the survivor."""
    graph = default_chaos_graph()
    dist = distribute(graph, num_pes=4)
    dry = Machine(4).run(counting_program, dist, CONFIGS["ditric"])
    plan = FaultPlan(crashes=(CrashEvent(rank=1, at_event=int(dry.events * 0.6)),))
    machine = Machine(
        4, fault_plan=plan, transport="reliable", checkpoint_store=CheckpointStore(4)
    )
    recovery = run_with_recovery(machine, counting_program, dist, CONFIGS["ditric"])
    assert recovery.restarts == 1
    assert len(recovery.attempt_times) == 1
    assert recovery.attempt_times[0] > 0.0
    assert recovery.lost_time == pytest.approx(sum(recovery.attempt_times))
    assert recovery.total_time == pytest.approx(
        recovery.lost_time + recovery.time
    )
    assert recovery.total_time > recovery.time

    clean = run_with_recovery(
        Machine(4, transport="reliable", checkpoint_store=CheckpointStore(4)),
        counting_program,
        dist,
        CONFIGS["ditric"],
    )
    assert clean.restarts == 0 and clean.lost_time == 0.0
    assert clean.total_time == clean.time


def test_recovery_reruns_only_the_lost_phase():
    graph = default_chaos_graph()
    dist = distribute(graph, num_pes=4)
    expected = edge_iterator(graph).triangles

    dry = Machine(4).run(counting_program, dist, CONFIGS["ditric"])
    # Crash late: well inside the global phase, after checkpoints.
    plan = FaultPlan(crashes=(CrashEvent(rank=2, at_event=int(dry.events * 0.9)),))
    machine = Machine(
        4, fault_plan=plan, transport="reliable", checkpoint_store=CheckpointStore(4)
    )
    recovery = run_with_recovery(machine, counting_program, dist, CONFIGS["ditric"])
    assert recovery.restarts == 1
    assert [r for r, _ in recovery.crashes] == [2]
    assert recovery.values[0].triangles_total == expected
    # The surviving attempt restored the local checkpoint: it spent no
    # time in preprocessing/local, only in the re-run global phase.
    phases = recovery.result.metrics.phase_breakdown()
    assert "global" in phases
    assert "preprocessing" not in phases and "local" not in phases


def test_recovery_without_store_still_finishes():
    graph = default_chaos_graph()
    dist = distribute(graph, num_pes=2)
    expected = edge_iterator(graph).triangles
    dry = Machine(2).run(counting_program, dist, CONFIGS["ditric"])
    plan = FaultPlan(crashes=(CrashEvent(rank=0, at_event=dry.events // 2),))
    machine = Machine(2, fault_plan=plan, transport="reliable")
    recovery = run_with_recovery(machine, counting_program, dist, CONFIGS["ditric"])
    assert recovery.restarts == 1
    assert recovery.values[0].triangles_total == expected


def test_recovery_gives_up_past_max_restarts():
    plan = FaultPlan(crashes=tuple(CrashEvent(rank=0, at_event=0) for _ in range(3)))
    machine = Machine(2, fault_plan=plan, transport="direct")

    def prog(ctx):
        yield
        return 1

    with pytest.raises(PECrashError):
        run_with_recovery(machine, prog, max_restarts=1)


# ----------------------------------------------------------------------
# Acceptance: the chaos campaign + determinism + overhead
# ----------------------------------------------------------------------
def test_chaos_campaign_counts_are_exact():
    """10 seeds x drop rates {0, 0.01, 0.05} x 1 PE crash, both algorithms."""
    outcomes = run_campaign(
        algorithms=("ditric", "cetric"),
        seeds=range(10),
        drop_rates=(0.0, 0.01, 0.05),
        crash_fraction=0.5,
    )
    assert len(outcomes) == 2 * 3 * 10
    report = format_campaign(outcomes)
    assert all(o.exact for o in outcomes), report
    assert all(o.restarts == 1 for o in outcomes), "every case crashed once"
    assert "OK: 60/60" in report
    # Nonzero drop rates actually exercised the reliable transport.
    faulted = [o for o in outcomes if o.drop_rate > 0]
    assert sum(o.retransmits for o in faulted) > 0


def test_chaos_case_is_deterministic():
    """Identical (program, inputs, spec, plan seed) => identical runs."""
    graph = default_chaos_graph()
    a = run_chaos_case(graph, "cetric", 4, seed=6, drop_rate=0.05, crash_fraction=0.5)
    b = run_chaos_case(graph, "cetric", 4, seed=6, drop_rate=0.05, crash_fraction=0.5)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_faulty_run_repeats_bit_identically_with_trace():
    graph = default_chaos_graph()
    dist = distribute(graph, num_pes=3)

    def one_run():
        tracer = Tracer()
        plan = FaultPlan(13, drop_rate=0.05, duplicate_rate=0.03)
        machine = Machine(3, fault_plan=plan, transport="reliable", tracer=tracer)
        result = machine.run(counting_program, dist, CONFIGS["ditric"])
        return result, tracer

    r1, t1 = one_run()
    r2, t2 = one_run()
    assert r1.values[0].triangles_total == r2.values[0].triangles_total
    assert r1.metrics.summary() == r2.metrics.summary()
    assert t1.events == t2.events
    assert r1.events == r2.events


def test_zero_fault_reliable_overhead_within_budget():
    """Reliable transport with no faults costs <= 10% simulated time."""
    graph = default_chaos_graph()
    dist = distribute(graph, num_pes=4)
    for config in (CONFIGS["ditric"],):
        direct = Machine(4).run(counting_program, dist, config)
        reliable = Machine(4, transport="reliable").run(counting_program, dist, config)
        assert reliable.values[0].triangles_total == direct.values[0].triangles_total
        assert reliable.time <= 1.10 * direct.time


def _lossy_toy_plan():
    return FaultPlan(
        29, drop_rate=0.05, duplicate_rate=0.03, delay_rate=0.02, reorder_rate=0.02
    )


def _lossy_toy(ctx):
    """A loss-tolerant ring: counts whatever reaches it, no collectives."""
    for i in range(20):
        ctx.send((ctx.rank + 1) % ctx.num_pes, ("t", i), i, 2)
    got = 0
    for i in range(20):
        while ctx.pending(("t", i)):
            ctx.try_recv(("t", i))
            got += 1
        yield
    return got


def test_event_engine_fault_traces_byte_identical_including_lossy():
    """Satellite: same seed + fault plan => byte-identical Chrome traces
    and identical simulated_time across reruns, on the event engine,
    over both the reliable and the lossy transport."""
    from repro.obs import chrome_trace_json

    graph = default_chaos_graph()
    dist = distribute(graph, num_pes=3)

    def one_run(transport):
        tracer = Tracer()
        machine = Machine(3, fault_plan=_lossy_toy_plan(), transport=transport, tracer=tracer)
        if transport == "reliable":
            result = machine.run(counting_program, dist, CONFIGS["ditric"])
        else:
            # Lossy delivery breaks collectives; use a loss-tolerant toy.
            result = machine.run(_lossy_toy)
        return result, chrome_trace_json(result.metrics, tracer, run_name="faulty")

    for transport in ("reliable", "lossy"):
        r1, j1 = one_run(transport)
        r2, j2 = one_run(transport)
        assert j1 == j2, transport
        assert r1.time == r2.time, transport
        assert r1.events == r2.events, transport


#: sha256 digests frozen from the strict round-robin polling loop (every
#: live PE resumed, and its crash schedule consulted, once per round)
#: that compat-heap replaced.  Faulty runs must keep its fault-decision
#: stream, repair costs and crash coordinates exactly.  The stuck-program
#: digests also pin the event engine's own verdict text (exact deadlock
#: or livelock guard), which the round-robin loop never reported.
GOLDEN_FAULTY_RUN = "c601ed777ea239ea4a0a2958267cdc500c2297decb72dc1d8fb6e8f72e116e1f"
GOLDEN_CRASH_GRID = {
    ("ditric", 3, "clean"): "48e442ef39057e9107db2a8ab5e90a018ebd266b633a1b2f9ec68e54a1fe6b3e",
    ("ditric", 3, "lossy"): "37e3b197746a28a4b9b3b1e9707e36e8bb43781b1969116d8800dc59087a9607",
    ("ditric", 7, "clean"): "7e38268bf9bef5441f406581bfb73fbaa73848169af993e6c3af51f1b554e1cb",
    ("ditric", 7, "lossy"): "1140a58bf7a94f6c7bd955cd91ee61b5f4374b73fb51528bbc766c7743831295",
    ("cetric", 3, "clean"): "3829e132a5b170f68df955281136e3a08a9dafaba89463f762c1796d917ebef7",
    ("cetric", 3, "lossy"): "1a3a63a76dcda9c63966e24bbeeefd07531ffb2377767528096900ccae892b88",
    ("cetric", 7, "clean"): "05948a76e21b2b24296aae6a29b7e21b5c0f9231bb34db1e3dda96bb20af7b02",
    ("cetric", 7, "lossy"): "a7ce0e8019c720f7d812018c96ec9b4def8c4d02b16c4f34106179c4c4d423a2",
}
GOLDEN_STUCK_CRASH_PLANS = {
    "waits-forever": "f087df23976febd067112e3ae7209e8db4aae9854e01bcbca0d5e5dc7f4fa50f",
    "ring-then-stuck": "34a07dd2a09d91c74b20992be5839234d494b8ca1bb4b011601919ad20a371dc",
    "spinner": "92246dd41fb157e0f5fa837faf48d4e1833aa90bb27b365cb7697284b85014b7",
    "late-sender": "f948802e8587bb8929a9656bcd82a3f430fb7b785e8fe18c4718ce2187fbe045",
}


def test_fault_injection_bit_identical_between_schedulers():
    """The event engine draws the round-robin loop's fault decisions
    and charges the same repair costs."""
    graph = default_chaos_graph()
    dist = distribute(graph, num_pes=3)
    plan = FaultPlan(31, drop_rate=0.08, duplicate_rate=0.04, delay_rate=0.03)
    res = Machine(3, fault_plan=plan, transport="reliable").run(
        counting_program, dist, CONFIGS["ditric"]
    )
    assert res.values[0].triangles_total == edge_iterator(graph).triangles
    assert res.metrics.total_retransmits > 0
    h = hashlib.sha256(
        f"{res.values!r}|{res.time.hex()}|{res.events}"
        f"|{res.metrics.summary()!r}\n".encode()
    )
    for pe in res.metrics.per_pe:
        h.update(f"{pe.clock.hex()}|{pe.words_sent}|{pe.messages_sent}\n".encode())
    assert h.hexdigest() == GOLDEN_FAULTY_RUN


def test_crash_coordinates_bit_identical_between_schedulers():
    """A crash fires at exactly the planned machine event."""
    graph = default_chaos_graph()
    dist = distribute(graph, num_pes=3)
    dry = Machine(3).run(counting_program, dist, CONFIGS["ditric"])
    at_event = dry.events // 2
    plan = FaultPlan(5, crashes=[CrashEvent(rank=1, at_event=at_event)])
    with pytest.raises(PECrashError) as err:
        Machine(3, fault_plan=plan).run(counting_program, dist, CONFIGS["ditric"])
    assert (err.value.rank, err.value.event) == (1, at_event)


def _crash_outcome(machine, program, *args):
    """``crash|rank|event``, ``deadlock|<first line>`` or the finished run."""
    try:
        res = machine.run(program, *args)
    except PECrashError as err:
        return f"crash|{err.rank}|{err.event}"
    except DeadlockError as err:
        return f"deadlock|{str(err).splitlines()[0]}"
    clocks = ",".join(pe.clock.hex() for pe in res.metrics.per_pe)
    return f"done|{res.values!r}|{res.time.hex()}|{res.events}|{clocks}"


#: Crash points as fractions of the fault-free run's event count; 1.5
#: lies past the end of a fault-free run.
CRASH_FRACTIONS = (0.0, 0.13, 0.5, 0.87, 0.999, 1.5)


@pytest.mark.parametrize("faults", ["clean", "lossy"])
@pytest.mark.parametrize("p", [3, 7])
@pytest.mark.parametrize("algorithm", ["ditric", "cetric"])
def test_crash_grid_matches_golden_fingerprint(algorithm, p, faults):
    config = CONFIGS[algorithm]
    dist = distribute(default_chaos_graph(), num_pes=p)
    dry = Machine(p).run(counting_program, dist, config).events
    rates = {"drop_rate": 0.05, "duplicate_rate": 0.02} if faults == "lossy" else {}
    h = hashlib.sha256()
    for fraction in CRASH_FRACTIONS:
        for rank in sorted({0, p // 2, p - 1}):
            crashes = [CrashEvent(rank, int(dry * fraction))]
            if fraction == 0.5:
                # A second, earlier crash on the next rank.
                crashes.append(CrashEvent((rank + 1) % p, int(dry * 0.3)))
            machine = Machine(p, fault_plan=FaultPlan(11, crashes=crashes, **rates))
            outcome = _crash_outcome(machine, counting_program, dist, config)
            h.update(f"{fraction}|{rank}|{outcome}\n".encode())
    assert h.hexdigest() == GOLDEN_CRASH_GRID[algorithm, p, faults]


def _waits_forever(ctx):
    """Some work, then rank 0 blocks on a tag nobody sends."""
    for _ in range(3):
        ctx.charge(1)
        yield
    if ctx.rank == 0:
        yield from ctx.recv("never")
    return ctx.rank


def _ring_then_stuck(ctx):
    """One ring exchange, then every PE blocks on a tag nobody sends."""
    ctx.send((ctx.rank + 1) % ctx.num_pes, "ring", None, 1)
    yield from ctx.recv("ring")
    yield from ctx.recv("never")


def _spinner(ctx):
    """Rank 0 spins on bare yields forever; the others block."""
    ctx.charge(1)
    if ctx.rank == 0:
        while True:
            yield
    yield from ctx.recv("never")


def _late_sender(ctx):
    """Rank 0 courtesy-yields before sending; the last rank waits."""
    last = ctx.num_pes - 1
    if ctx.rank == 0:
        for _ in range(3):
            yield
        ctx.send(last, "late", "x", 1)
    if ctx.rank == last:
        msg = yield from ctx.recv("late")
        return msg.payload
    return None


STUCK_PROGRAMS = {
    "waits-forever": _waits_forever,
    "ring-then-stuck": _ring_then_stuck,
    "spinner": _spinner,
    "late-sender": _late_sender,
}


@pytest.mark.parametrize("name", list(STUCK_PROGRAMS))
def test_stuck_programs_under_crash_plans_match_golden(name):
    """Deadlock, livelock and crash verdicts when crash plans watch
    blocked or spinning PEs: which fires first, and where."""
    h = hashlib.sha256()
    for p in (2, 3, 4):
        for rank in (0, p - 1):
            for at_event in (0, 3, 10**6):
                plan = FaultPlan(crashes=[CrashEvent(rank, at_event)])
                outcome = _crash_outcome(
                    Machine(p, fault_plan=plan), STUCK_PROGRAMS[name]
                )
                h.update(f"{p}|{rank}|{at_event}|{outcome}\n".encode())
    assert h.hexdigest() == GOLDEN_STUCK_CRASH_PLANS[name]


def _run_digest(res):
    """sha256 over every simulated observable of one finished run."""
    h = hashlib.sha256(
        f"{res.values!r}|{res.time.hex()}|{res.events}"
        f"|{res.metrics.summary()!r}|{res.recovery!r}\n".encode()
    )
    for pe in res.metrics.per_pe:
        h.update(
            f"{pe.clock.hex()}|{pe.messages_sent}|{pe.words_sent}"
            f"|{pe.messages_received}|{pe.words_received}"
            f"|{pe.retransmits}|{pe.duplicates_discarded}\n".encode()
        )
    return h.hexdigest()


def _contended_run(algorithm, setup):
    """One chaos-graph run at p=3 on the contended network."""
    config = CONFIGS[algorithm]
    dist = distribute(default_chaos_graph(), num_pes=3)
    contended = Network(model="contended")
    if setup == "direct":
        return Machine(3, network=contended).run(counting_program, dist, config)
    if setup == "reliable":
        plan = FaultPlan(29, drop_rate=0.08, duplicate_rate=0.04, delay_rate=0.03)
        machine = Machine(3, network=contended, fault_plan=plan)
        return machine.run(counting_program, dist, config)
    dry = Machine(3, network=contended, recovery="localized")
    crash_time = 0.5 * dry.run(counting_program, dist, config).time
    plan = FaultPlan(0, crash_at_time=(TimedCrash(1, crash_time),))
    machine = Machine(3, network=contended, fault_plan=plan, recovery="localized")
    return machine.run(counting_program, dist, config)


#: sha256 digests (``_run_digest``) of the event-engine transport
#: paths: direct, reliable (drops, duplicates and delays that fill the
#: selective-repeat hold buffer) and localized recovery with one timed
#: crash, plus the lossy toy under both network models.
GOLDEN_CONTENDED = {
    ("ditric", "direct"): "f34a33e04f1c73dda41c6125518ea3494d78e2a859ffb14cbc5fa62f882bf5b0",
    ("ditric", "reliable"): "7e3d4dfbc178a95de836d57a0949bbe806a36aac6696c890e620ca14e0a9fd68",
    ("ditric", "localized"): "cb7c327516edc4d676f1ddaec91012dd44ff04de6d243c0d75681b9abc7481d9",
    ("cetric", "direct"): "55bb1d74011f79115d16c049558cbd7e39291452f71b1bf0f21d4f2376b4e620",
    ("cetric", "reliable"): "c033fe09609d6904dc930debf524eaad7010ba511e40980e2d224b51f7075847",
    ("cetric", "localized"): "806f4f028bea0cbaaf709e845d1027c22f6a81d69f2c8e08219313593e0156a5",
    ("lossy", "alpha-beta"): "70a9a3db7fea8a300b0587ea9a183f004a4921183ea3c491be500d37ac73b934",
    ("lossy", "contended"): "a44f2187a172109a562a4b3a1b7c29b53fc2067a6e32eddcef44dfe00cff3e69",
}


@pytest.mark.parametrize("setup", ["direct", "reliable", "localized"])
@pytest.mark.parametrize("algorithm", ["ditric", "cetric"])
def test_contended_transport_paths_match_golden(algorithm, setup):
    res = _contended_run(algorithm, setup)
    if setup == "reliable":
        assert res.metrics.total_retransmits > 0
    if setup == "localized":
        assert res.recovery.crashes == 1
    assert _run_digest(res) == GOLDEN_CONTENDED[algorithm, setup]


@pytest.mark.parametrize("model", ["alpha-beta", "contended"])
def test_lossy_toy_matches_golden(model):
    machine = Machine(
        3, network=Network(model=model), fault_plan=_lossy_toy_plan(), transport="lossy"
    )
    assert _run_digest(machine.run(_lossy_toy)) == GOLDEN_CONTENDED["lossy", model]
