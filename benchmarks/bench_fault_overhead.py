"""Reliable-transport overhead (ISSUE 2's fault-tolerance cost claim).

The reliable transport adds sequence numbers and cumulative acks to
every point-to-point channel.  On a fault-free run that bookkeeping is
the *entire* price of fault tolerance, and the acceptance criterion
caps it at 10% modelled time.  This benchmark measures it across
algorithms and PE counts on a social-network stand-in, and shows the
contrast: the same runs under an injected 5% drop rate, where
retransmissions make the overhead real but the counts stay exact.

Asserted:

* zero-fault reliable transport costs <= 10% over the direct transport
  for every (algorithm, p) cell — and the counts are identical;
* under a 5% drop rate the count is still exact and retransmits > 0.
"""

import harness
from conftest import run_once, save_artifact

from repro.analysis.tables import format_table
from repro.faults import FaultPlan
from repro.core.engine import CONFIGS, counting_program
from repro.graphs.datasets import dataset
from repro.graphs.distributed import distribute
from repro.net import Machine

PE_COUNTS = (4, 8)
ALGORITHMS = ("ditric", "cetric")
OVERHEAD_CEILING = 0.10
DROP_RATE = 0.05


def _experiment():
    g = dataset("live-journal", scale=0.5)
    rows = []
    for p in PE_COUNTS:
        dist = distribute(g, num_pes=p)
        for name in ALGORITHMS:
            config = CONFIGS[name]
            direct = Machine(p).run(counting_program, dist, config)
            reliable = Machine(p, transport="reliable").run(
                counting_program, dist, config
            )
            plan = FaultPlan(seed=1, drop_rate=DROP_RATE)
            faulty = Machine(p, fault_plan=plan).run(counting_program, dist, config)
            rows.append(
                {
                    "algorithm": name,
                    "p": p,
                    "direct time": direct.time,
                    "reliable time": reliable.time,
                    "overhead %": 100.0 * (reliable.time / direct.time - 1.0),
                    "faulty time": faulty.time,
                    "retransmits": faulty.metrics.total_retransmits,
                    "direct count": direct.values[0].triangles_total,
                    "reliable count": reliable.values[0].triangles_total,
                    "faulty count": faulty.values[0].triangles_total,
                }
            )
    return rows


def test_fault_tolerance_overhead(benchmark, results_dir):
    rows = run_once(benchmark, _experiment)
    text = format_table(
        rows,
        [
            "algorithm",
            "p",
            "direct time",
            "reliable time",
            "overhead %",
            "faulty time",
            "retransmits",
        ],
    )
    save_artifact(results_dir, "fault_overhead.txt", text)
    for row in rows:
        for variant in ("direct", "reliable", "faulty"):
            harness.emit(
                "fault_overhead",
                simulated_time=row[f"{variant} time"],
                triangles=row[f"{variant} count"],
                algorithm=row["algorithm"],
                p=row["p"],
                transport=variant,
            )
    for row in rows:
        cell = f"{row['algorithm']} p={row['p']}"
        assert row["reliable count"] == row["direct count"], cell
        assert row["faulty count"] == row["direct count"], cell
        assert row["overhead %"] <= 100.0 * OVERHEAD_CEILING, (
            f"zero-fault reliable overhead above "
            f"{OVERHEAD_CEILING:.0%} for {cell}: {row['overhead %']:.2f}%"
        )
        assert row["retransmits"] > 0, cell
        assert row["faulty time"] >= row["reliable time"], cell
