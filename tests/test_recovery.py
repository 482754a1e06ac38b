"""Online localized recovery: detection, partner restore, log replay.

Covers the ISSUE-8 acceptance criteria: the chaos campaign under
``recovery="localized"`` (2 algorithms x 5 seeds x one timed PE crash
on the DES engine) returns exact counts with survivors provably never
re-executing a phase; recovery is deterministic (byte-identical traces
across reruns); membership events and the ``recovery_seconds`` /
``recover:*`` accounting are populated; and the configuration surface
rejects unsupported combinations up front.
"""

import pytest

from repro.core.checkpoint import BuddyCheckpointStore, CheckpointStore
from repro.core.edge_iterator import edge_iterator
from repro.core.engine import CONFIGS, counting_program
from repro.faults import (
    FaultPlan,
    RecoveryConfig,
    TimedCrash,
    run_campaign,
    run_chaos_case,
)
from repro.faults.chaos import default_chaos_graph
from repro.graphs.distributed import distribute
from repro.net import DeadlockError, Machine
from repro.obs import chrome_trace_json
from repro.sim.network import Network


def _localized(p, plan=None, **kwargs):
    return Machine(
        p,
        network=Network(model="contended"),
        fault_plan=plan,
        recovery="localized",
        **kwargs,
    )


@pytest.fixture(scope="module")
def crash_run():
    """One localized crash run on the chaos graph, shared across tests."""
    graph = default_chaos_graph()
    dist = distribute(graph, num_pes=4)
    config = CONFIGS["ditric"]
    base = _localized(4).run(counting_program, dist, config)
    crash_time = base.time * 0.5

    def rerun():
        plan = FaultPlan(0, crash_at_time=(TimedCrash(rank=2, at_time=crash_time),))
        return _localized(4, plan).run(counting_program, dist, config)

    expected = int(edge_iterator(graph).triangles)
    return base, rerun(), rerun, expected


# ----------------------------------------------------------------------
# Configuration surface
# ----------------------------------------------------------------------
def test_timed_crash_validation():
    with pytest.raises(ValueError):
        TimedCrash(rank=-1, at_time=0.0)
    with pytest.raises(ValueError):
        TimedCrash(rank=0, at_time=-1e-9)


def test_timed_crash_roundtrips_and_rearms():
    plan = FaultPlan(3, crash_at_time=(TimedCrash(1, 0.5), TimedCrash(2, 0.75)))
    clone = FaultPlan.from_dict(plan.to_dict())
    assert clone.to_dict() == plan.to_dict()
    assert plan.any_crashes
    assert plan.claim_timed(0)
    assert not plan.claim_timed(0), "a timed crash fires once per plan"
    plan.reset()
    assert plan.claim_timed(0), "reset re-arms the schedule"


def test_recovery_config_validation():
    with pytest.raises(ValueError):
        RecoveryConfig(heartbeat_period_alphas=0.0)
    with pytest.raises(ValueError):
        RecoveryConfig(heartbeat_period_alphas=64.0, heartbeat_timeout_alphas=32.0)
    with pytest.raises(ValueError):
        RecoveryConfig(replay_alpha_per_message=-1.0)


def test_localized_requires_contended_network():
    with pytest.raises(ValueError, match="contended"):
        Machine(4, recovery="localized")


def test_localized_rejects_plain_checkpoint_store():
    with pytest.raises(ValueError, match="partner"):
        Machine(
            4,
            network=Network(model="contended"),
            recovery="localized",
            checkpoint_store=CheckpointStore(4),
        )


def test_localized_rejects_non_reliable_transport():
    with pytest.raises(ValueError, match="reliable"):
        Machine(
            4,
            network=Network(model="contended"),
            recovery="localized",
            transport="direct",
        )


def test_timed_crashes_need_the_event_engine():
    plan = FaultPlan(0, crash_at_time=(TimedCrash(1, 0.5),))
    with pytest.raises(ValueError, match="contended"):
        Machine(4, fault_plan=plan)


def test_unknown_recovery_mode_rejected():
    with pytest.raises(ValueError, match="recovery"):
        Machine(4, recovery="optimistic")


def test_buddy_store_partner_mapping():
    store = BuddyCheckpointStore(4)
    assert [store.partner_of(r) for r in range(4)] == [1, 2, 3, 0]
    offset = BuddyCheckpointStore(4, partner_offset=3)
    assert offset.partner_of(1) == 0
    with pytest.raises(ValueError):
        BuddyCheckpointStore(4, partner_offset=4)
    with pytest.raises(ValueError):
        BuddyCheckpointStore(4, partner_offset=0)


def test_buddy_store_respawn_rewinds_one_cursor():
    store = BuddyCheckpointStore(2)
    store.save(0, "local", [1, 2, 3])
    store.save(1, "local", [4, 5])
    assert store.replica_words(0) == 3
    store.respawn_rank(0)
    assert store.load(0, "local") == ([1, 2, 3], 3)
    # the survivor's cursor is untouched: its next load is exhausted
    assert store.load(1, "contraction") is None


# ----------------------------------------------------------------------
# End-to-end localized recovery
# ----------------------------------------------------------------------
def test_fault_free_localized_run_is_exact_and_quiet(crash_run):
    base, _, _, expected = crash_run
    assert int(base.values[0].triangles_total) == expected
    report = base.recovery
    assert report is not None
    assert report.crashes == 0 and report.recovered_ranks == ()
    assert base.metrics.summary()["recovery_seconds"] == 0.0


def test_heartbeats_accrue_without_faults():
    """A tight detector period makes the standing probe cost visible."""
    graph = default_chaos_graph()
    dist = distribute(graph, num_pes=4)
    config = CONFIGS["ditric"]
    loose = _localized(4).run(counting_program, dist, config)
    tight = _localized(
        4,
        recovery_config=RecoveryConfig(
            heartbeat_period_alphas=4.0, heartbeat_timeout_alphas=16.0
        ),
    ).run(counting_program, dist, config)
    assert tight.metrics.summary()["heartbeats"] > 0
    assert int(tight.values[0].triangles_total) == int(
        loose.values[0].triangles_total
    )
    assert tight.time > loose.time, "probing is charged to the cost model"


def test_crash_recovers_in_place_with_exact_count(crash_run):
    base, res, _, expected = crash_run
    assert int(res.values[0].triangles_total) == expected
    report = res.recovery
    assert report.crashes == 1
    assert report.recovered_ranks == (2,)
    assert report.replayed_messages > 0
    assert report.restored_words > 0
    assert res.time > base.time, "the outage must cost simulated time"
    assert res.metrics.summary()["recovery_seconds"] > 0.0


def test_membership_events_are_ordered(crash_run):
    _, res, _, _ = crash_run
    events = res.recovery.events
    assert [e.kind for e in events] == ["crash", "detect", "respawn"]
    assert all(e.rank == 2 for e in events)
    crash, detect, respawn = events
    assert crash.time < detect.time <= respawn.time


def test_survivors_never_reexecute_a_phase(crash_run):
    _, res, _, _ = crash_run
    for rank in (0, 1, 3):
        names = [
            s.name
            for s in res.metrics.per_pe[rank].spans
            if s.depth == 0 and not s.name.startswith("recover:")
        ]
        assert len(names) == len(set(names)), (rank, names)
        assert not any(n.startswith("recover:") for n in names)


def test_crashed_rank_records_recovery_spans(crash_run):
    _, res, _, _ = crash_run
    names = [
        s.name for s in res.metrics.per_pe[2].spans if s.name.startswith("recover:")
    ]
    assert names == ["recover:detect", "recover:restore", "recover:replay"]


def test_localized_recovery_is_deterministic(crash_run):
    _, res, rerun, _ = crash_run
    again = rerun()
    assert chrome_trace_json(res.metrics) == chrome_trace_json(again.metrics)
    assert res.metrics.summary() == again.metrics.summary()


def test_profiler_partitions_recovery_time(crash_run):
    from repro.obs import profile_metrics

    _, res, _, _ = crash_run
    profile = profile_metrics(res.metrics)
    assert profile.categories.get("recovery", 0.0) >= 0.0
    assert abs(sum(profile.percentages().values()) - 100.0) < 1e-6


def test_localized_detector_reports_real_deadlocks():
    def stuck(ctx):
        if ctx.rank == 0:
            yield from ctx.recv("never")
        return None

    with pytest.raises(DeadlockError):
        _localized(2).run(stuck)


def test_localized_campaign_is_exact_for_two_algorithms():
    """ISSUE-8 acceptance: >=2 algorithms x >=5 seeds x 1 timed crash."""
    outcomes = run_campaign(
        algorithms=("ditric", "cetric"),
        seeds=range(5),
        drop_rates=(0.0,),
        crash_fraction=0.5,
        recovery="localized",
    )
    assert len(outcomes) == 10
    for o in outcomes:
        assert o.exact, (o.algorithm, o.seed)
        assert o.recovery == "localized"
        assert o.restarts == 0
        assert o.recovered_ranks == (2,)
        assert o.survivor_phase_reexecutions == 0
        assert o.recovery_seconds > 0.0


def test_localized_case_composes_with_message_faults():
    graph = default_chaos_graph()
    o = run_chaos_case(
        graph,
        "cetric2",
        4,
        seed=1,
        drop_rate=0.10,
        crash_fraction=0.4,
        recovery="localized",
    )
    assert o.exact
    assert o.recovered_ranks == (2,)
    assert o.survivor_phase_reexecutions == 0
    assert o.messages_dropped > 0 and o.retransmits > 0


def test_chaos_case_rejects_unknown_recovery():
    with pytest.raises(ValueError, match="recovery"):
        run_chaos_case(default_chaos_graph(), "ditric", 4, recovery="magic")
