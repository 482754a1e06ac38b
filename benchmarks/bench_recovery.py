"""Localized vs. global crash recovery (ISSUE 8's headline claim).

Global restart throws away *every* PE's progress when one rank
crash-stops: the rewind bill is ``p`` times the work lost on the
failed rank.  Localized recovery keeps the survivors running — the
crashed rank is heartbeat-detected, restored from its partner's
checkpoint replica, and brought back by replaying the senders' message
logs — so the bill is one rank's outage plus the replay traffic,
roughly independent of ``p``.

Both strategies face the *same* timed crash (same rank, same simulated
second, same contended network) and both must return the exact count.
Overheads are measured against each strategy's own fault-free
baseline so transport/heartbeat bookkeeping is not conflated with
recovery cost.

Asserted:

* exact counts everywhere, for both strategies;
* at ``p >= 256`` the localized overhead is strictly below the global
  overhead (the paper-scale regime where restarting everyone is
  ruinous);
* survivors never re-execute a phase under localized recovery;
* the localized run is deterministic: two reruns produce
  byte-identical Chrome traces.
"""

import harness
from conftest import run_once, save_artifact

from repro.analysis.tables import format_table
from repro.core.checkpoint import CheckpointStore, run_with_recovery
from repro.core.engine import CONFIGS, counting_program
from repro.faults import FaultPlan, TimedCrash
from repro.faults.chaos import _survivor_phase_reexecutions
from repro.graphs.distributed import distribute
from repro.graphs.generators import gnm
from repro.net import Machine
from repro.obs import chrome_trace_json
from repro.sim.network import Network

PE_COUNTS = (64, 256)
CRASH_FRACTION = 0.5
CONFIG = CONFIGS["ditric"]


def _localized_machine(p, plan=None):
    return Machine(
        p,
        network=Network(model="contended"),
        fault_plan=plan,
        recovery="localized",
    )


def _global_machine(p, plan=None):
    return Machine(
        p,
        network=Network(model="contended"),
        fault_plan=plan,
        transport="reliable",
        checkpoint_store=CheckpointStore(p),
    )


def _experiment():
    g = gnm(512, 2048, seed=3, name="gnm512")
    rows = []
    for p in PE_COUNTS:
        dist = distribute(g, num_pes=p)
        crash_rank = p // 2

        loc_base = _localized_machine(p).run(counting_program, dist, CONFIG)
        crash_time = loc_base.time * CRASH_FRACTION
        loc_plan = FaultPlan(
            0, crash_at_time=(TimedCrash(rank=crash_rank, at_time=crash_time),)
        )
        loc = _localized_machine(p, loc_plan).run(counting_program, dist, CONFIG)

        glob_base = _global_machine(p).run(counting_program, dist, CONFIG)
        glob_plan = FaultPlan(
            0, crash_at_time=(TimedCrash(rank=crash_rank, at_time=crash_time),)
        )
        glob = run_with_recovery(
            _global_machine(p, glob_plan), counting_program, dist, CONFIG
        )

        rerun_plan = FaultPlan(
            0, crash_at_time=(TimedCrash(rank=crash_rank, at_time=crash_time),)
        )
        rerun = _localized_machine(p, rerun_plan).run(counting_program, dist, CONFIG)

        rows.append(
            {
                "p": p,
                "baseline count": int(loc_base.values[0].triangles_total),
                "localized count": int(loc.values[0].triangles_total),
                "global count": int(glob.values[0].triangles_total),
                "localized base": loc_base.time,
                "localized time": loc.time,
                "localized overhead": loc.time - loc_base.time,
                "global base": glob_base.time,
                "global time": glob.total_time,
                "global overhead": glob.total_time - glob_base.time,
                "restarts": glob.restarts,
                "recovered": loc.recovery.recovered_ranks,
                "replayed": loc.recovery.replayed_messages,
                "reexecutions": _survivor_phase_reexecutions(
                    loc.metrics, crash_rank
                ),
                "trace": chrome_trace_json(loc.metrics, run_name="bench_recovery"),
                "rerun trace": chrome_trace_json(
                    rerun.metrics, run_name="bench_recovery"
                ),
            }
        )
    return rows


def test_localized_beats_global_restart(benchmark, results_dir):
    rows = run_once(benchmark, _experiment)
    text = format_table(
        rows,
        [
            "p",
            "localized base",
            "localized overhead",
            "global base",
            "global overhead",
            "restarts",
            "replayed",
        ],
    )
    save_artifact(results_dir, "recovery_overhead.txt", text)
    for row in rows:
        for strategy in ("localized", "global"):
            harness.emit(
                "recovery_overhead",
                simulated_time=row[f"{strategy} time"],
                triangles=row[f"{strategy} count"],
                algorithm="ditric",
                p=row["p"],
                recovery=strategy,
                overhead=row[f"{strategy} overhead"],
            )
    for row in rows:
        cell = f"p={row['p']}"
        assert row["localized count"] == row["baseline count"], cell
        assert row["global count"] == row["baseline count"], cell
        assert row["recovered"] == (row["p"] // 2,), cell
        assert row["reexecutions"] == 0, cell
        assert row["restarts"] >= 1, cell
        assert row["localized overhead"] > 0, cell
        assert row["trace"] == row["rerun trace"], f"{cell}: trace not deterministic"
        if row["p"] >= 256:
            assert row["localized overhead"] < row["global overhead"], (
                f"{cell}: localized recovery cost "
                f"{row['localized overhead']:.6f}s did not beat global "
                f"restart cost {row['global overhead']:.6f}s"
            )
