"""The chaos harness: fault campaigns asserting exact counts.

A *chaos case* runs one algorithm on one graph under one
:class:`~repro.faults.plan.FaultPlan` — reliable transport, optional
scheduled PE crash with checkpoint/restart — and compares the result
against the sequential COMPACT-FORWARD baseline.  A *campaign* sweeps
seeds × drop rates × algorithms; every case must return the **exact**
triangle count (resilience must never trade correctness).

Crash scheduling: a crash is declared as a *fraction* of the run, not
an absolute event index (nobody knows a run's length up front).  The
harness first executes a fault-free dry run to measure the machine's
total event count, then plants the crash at the requested fraction of
it — reproducible across hosts because event counts, unlike wall
times, are deterministic.

Entry points: :func:`run_chaos_case`, :func:`run_campaign`,
:func:`format_campaign`; ``repro-tc chaos`` on the command line; the
acceptance campaign lives in ``tests/test_faults.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core.checkpoint import CheckpointStore, run_with_recovery
from ..core.edge_iterator import edge_iterator
from ..core.engine import CONFIGS, EngineConfig, counting_program
from ..graphs.csr import CSRGraph
from ..graphs.distributed import DistGraph, distribute
from ..graphs.generators import gnm
from ..net.costmodel import DEFAULT_SPEC, MachineSpec
from ..net.machine import Machine
from ..sim.network import Network
from .plan import CrashEvent, FaultPlan, TimedCrash

__all__ = [
    "CHAOS_ALGORITHMS",
    "ChaosOutcome",
    "default_chaos_graph",
    "run_chaos_case",
    "run_campaign",
    "format_campaign",
]

#: The :data:`~repro.core.engine.CONFIGS` variants the harness exercises.
CHAOS_ALGORITHMS: tuple[str, ...] = ("ditric", "ditric2", "cetric", "cetric2")


@dataclass(frozen=True)
class ChaosOutcome:
    """One chaos case: configuration, result, and resilience costs."""

    algorithm: str
    graph: str
    num_pes: int
    seed: int
    drop_rate: float
    duplicate_rate: float
    crashed_rank: int | None
    #: Distributed count under faults vs. the sequential ground truth.
    triangles: int
    expected: int
    #: Restarts the recovery driver needed (0 = no crash).
    restarts: int
    #: Modelled running time of the surviving run.
    time: float
    retransmits: int
    messages_dropped: int
    duplicates_discarded: int
    #: Recovery mode the case ran under (``"global"`` or ``"localized"``).
    recovery: str = "global"
    #: Ranks respawned in place (localized mode; empty under global).
    recovered_ranks: tuple[int, ...] = ()
    #: Duplicate top-level phase executions across *surviving* ranks.
    #: Localized recovery promises zero: survivors keep running while
    #: the crashed rank is rebuilt, so no phase is ever entered twice.
    survivor_phase_reexecutions: int = 0
    #: Simulated seconds charged to detection/restore/replay.
    recovery_seconds: float = 0.0

    @property
    def exact(self) -> bool:
        """Whether the faulty run still counted exactly."""
        return self.triangles == self.expected


def default_chaos_graph(seed: int = 7) -> CSRGraph:
    """The campaign's default input: a small triangle-rich GNM graph."""
    return gnm(48, 240, seed=seed, name=f"gnm48-{seed}")


def run_chaos_case(
    graph: CSRGraph,
    algorithm: str,
    num_pes: int = 4,
    *,
    seed: int = 0,
    drop_rate: float = 0.0,
    duplicate_rate: float = 0.0,
    delay_rate: float = 0.0,
    crash_fraction: float | None = None,
    crash_rank: int | None = None,
    stragglers: dict[int, float] | None = None,
    spec: MachineSpec = DEFAULT_SPEC,
    expected: int | None = None,
    recovery: str = "global",
) -> ChaosOutcome:
    """Run one algorithm under one fault plan and check exactness.

    ``crash_fraction`` (in ``(0, 1)``) schedules one crash-stop of
    ``crash_rank`` (default: the middle rank) at that fraction of the
    fault-free run; ``None`` disables crashes.  ``expected``
    short-circuits the sequential baseline when the caller already
    knows the ground truth (campaigns reuse it).

    ``recovery`` selects the resilience strategy:

    * ``"global"`` (default) — event-indexed crash, coordinated
      checkpoint/restart via :func:`run_with_recovery`;
    * ``"localized"`` — timed crash on the contended network, online
      detection + partner restore + log replay inside a *single*
      :meth:`~repro.net.machine.Machine.run` (no restart).  The dry
      run uses the same localized settings so heartbeat charges shift
      the crash coordinate consistently.
    """
    if algorithm not in CHAOS_ALGORITHMS:
        raise ValueError(
            f"unknown chaos algorithm {algorithm!r}; "
            f"choose from {sorted(CHAOS_ALGORITHMS)}"
        )
    if recovery not in ("global", "localized"):
        raise ValueError(
            f"unknown recovery mode {recovery!r}; expected 'global' or 'localized'"
        )
    config = CONFIGS[algorithm]
    if expected is None:
        expected = int(edge_iterator(graph).triangles)
    dist: DistGraph = distribute(graph, num_pes=num_pes)
    p = dist.num_pes
    if crash_fraction is not None and not (0.0 < crash_fraction < 1.0):
        raise ValueError("crash_fraction must be in (0, 1)")

    if recovery == "localized":
        return _run_localized_case(
            dist,
            algorithm,
            config,
            seed=seed,
            drop_rate=drop_rate,
            duplicate_rate=duplicate_rate,
            delay_rate=delay_rate,
            crash_fraction=crash_fraction,
            crash_rank=crash_rank,
            stragglers=stragglers,
            spec=spec,
            expected=expected,
        )

    crashes: tuple[CrashEvent, ...] = ()
    crashed_rank: int | None = None
    if crash_fraction is not None:
        dry = Machine(p, spec).run(counting_program, dist, config)
        crashed_rank = p // 2 if crash_rank is None else crash_rank
        crashes = (
            CrashEvent(rank=crashed_rank, at_event=int(dry.events * crash_fraction)),
        )

    plan = FaultPlan(
        seed,
        drop_rate=drop_rate,
        duplicate_rate=duplicate_rate,
        delay_rate=delay_rate,
        crashes=crashes,
        stragglers=stragglers,
    )
    machine = Machine(
        p,
        spec,
        fault_plan=plan,
        transport="reliable",
        checkpoint_store=CheckpointStore(p),
    )
    recovered = run_with_recovery(machine, counting_program, dist, config)
    metrics = recovered.result.metrics
    return ChaosOutcome(
        algorithm=algorithm,
        graph=dist.name,
        num_pes=p,
        seed=seed,
        drop_rate=drop_rate,
        duplicate_rate=duplicate_rate,
        crashed_rank=crashed_rank,
        triangles=int(recovered.values[0].triangles_total),
        expected=expected,
        restarts=recovered.restarts,
        time=metrics.makespan,
        retransmits=metrics.total_retransmits,
        messages_dropped=metrics.total_messages_dropped,
        duplicates_discarded=metrics.total_duplicates_discarded,
    )


def _survivor_phase_reexecutions(metrics, crashed_rank: int | None) -> int:
    """Duplicate top-level phase executions across surviving ranks.

    Counts, over every rank except ``crashed_rank``, how many depth-0
    non-recovery spans repeat a name already closed on that rank.
    Localized recovery's contract is that this is zero.
    """
    reexecutions = 0
    for rank, pe in enumerate(metrics.per_pe):
        if rank == crashed_rank:
            continue
        names = [
            s.name
            for s in pe.spans
            if s.depth == 0 and not s.name.startswith("recover:")
        ]
        reexecutions += len(names) - len(set(names))
    return reexecutions


def _run_localized_case(
    dist: DistGraph,
    algorithm: str,
    config: EngineConfig,
    *,
    seed: int,
    drop_rate: float,
    duplicate_rate: float,
    delay_rate: float,
    crash_fraction: float | None,
    crash_rank: int | None,
    stragglers: dict[int, float] | None,
    spec: MachineSpec,
    expected: int,
) -> ChaosOutcome:
    """One chaos case under online localized recovery (single run)."""
    p = dist.num_pes

    timed: tuple[TimedCrash, ...] = ()
    crashed_rank: int | None = None
    if crash_fraction is not None:
        dry = Machine(
            p,
            spec,
            network=Network(model="contended"),
            recovery="localized",
        ).run(counting_program, dist, config)
        crashed_rank = p // 2 if crash_rank is None else crash_rank
        timed = (
            TimedCrash(rank=crashed_rank, at_time=dry.time * crash_fraction),
        )

    plan = FaultPlan(
        seed,
        drop_rate=drop_rate,
        duplicate_rate=duplicate_rate,
        delay_rate=delay_rate,
        crash_at_time=timed,
        stragglers=stragglers,
    )
    machine = Machine(
        p,
        spec,
        network=Network(model="contended"),
        fault_plan=plan,
        recovery="localized",
    )
    result = machine.run(counting_program, dist, config)
    metrics = result.metrics
    report = result.recovery
    return ChaosOutcome(
        algorithm=algorithm,
        graph=dist.name,
        num_pes=p,
        seed=seed,
        drop_rate=drop_rate,
        duplicate_rate=duplicate_rate,
        crashed_rank=crashed_rank,
        triangles=int(result.values[0].triangles_total),
        expected=expected,
        restarts=0,
        time=metrics.makespan,
        retransmits=metrics.total_retransmits,
        messages_dropped=metrics.total_messages_dropped,
        duplicates_discarded=metrics.total_duplicates_discarded,
        recovery="localized",
        recovered_ranks=report.recovered_ranks if report is not None else (),
        survivor_phase_reexecutions=_survivor_phase_reexecutions(
            metrics, crashed_rank
        ),
        recovery_seconds=metrics.total_recovery_seconds,
    )


def run_campaign(
    *,
    algorithms: Sequence[str] = ("ditric", "cetric"),
    seeds: Iterable[int] = range(10),
    drop_rates: Sequence[float] = (0.0, 0.01, 0.05),
    duplicate_rate: float = 0.0,
    crash_fraction: float | None = 0.5,
    graph: CSRGraph | None = None,
    num_pes: int = 4,
    spec: MachineSpec = DEFAULT_SPEC,
    recovery: str = "global",
) -> list[ChaosOutcome]:
    """Sweep seeds × drop rates × algorithms; return all outcomes.

    The defaults are the acceptance campaign of ISSUE 2: 10 seeds ×
    drop rates {0, 0.01, 0.05} × one scheduled PE crash for DITRIC and
    CETRIC, on a small triangle-rich GNM graph.  ``recovery`` switches
    every case between global restart and online localized recovery.
    """
    if graph is None:
        graph = default_chaos_graph()
    expected = int(edge_iterator(graph).triangles)
    outcomes: list[ChaosOutcome] = []
    for algorithm in algorithms:
        for drop_rate in drop_rates:
            for seed in seeds:
                outcomes.append(
                    run_chaos_case(
                        graph,
                        algorithm,
                        num_pes,
                        seed=seed,
                        drop_rate=drop_rate,
                        duplicate_rate=duplicate_rate,
                        crash_fraction=crash_fraction,
                        spec=spec,
                        expected=expected,
                        recovery=recovery,
                    )
                )
    return outcomes


def format_campaign(outcomes: Sequence[ChaosOutcome]) -> str:
    """Human-readable campaign summary (one line per cell + verdict)."""
    if not outcomes:
        return "chaos campaign: no cases run"
    lines = [
        f"{'algorithm':<10s} {'drop':>6s} {'cases':>6s} {'exact':>6s} "
        f"{'restarts':>8s} {'retrans':>8s} {'dropped':>8s} {'dedup':>6s}"
    ]
    cells: dict[tuple[str, float], list[ChaosOutcome]] = {}
    for o in outcomes:
        cells.setdefault((o.algorithm, o.drop_rate), []).append(o)
    for (algorithm, drop_rate), cases in sorted(cells.items()):
        lines.append(
            f"{algorithm:<10s} {drop_rate:>6.2%} {len(cases):>6d} "
            f"{sum(c.exact for c in cases):>6d} "
            f"{sum(c.restarts for c in cases):>8d} "
            f"{sum(c.retransmits for c in cases):>8d} "
            f"{sum(c.messages_dropped for c in cases):>8d} "
            f"{sum(c.duplicates_discarded for c in cases):>6d}"
        )
    localized = [o for o in outcomes if o.recovery == "localized"]
    if localized:
        recovered = sum(len(o.recovered_ranks) for o in localized)
        reexecutions = sum(o.survivor_phase_reexecutions for o in localized)
        lines.append(
            f"localized: {len(localized)} cases, {recovered} ranks respawned "
            f"in place, {reexecutions} survivor phase re-executions"
        )
    failures = [o for o in outcomes if not o.exact]
    if failures:
        lines.append(f"FAILED: {len(failures)}/{len(outcomes)} cases inexact")
        for o in failures[:10]:
            lines.append(
                f"  {o.algorithm} seed={o.seed} drop={o.drop_rate}: "
                f"got {o.triangles}, expected {o.expected}"
            )
    else:
        lines.append(
            f"OK: {len(outcomes)}/{len(outcomes)} cases returned the exact "
            f"sequential count"
        )
    return "\n".join(lines)
