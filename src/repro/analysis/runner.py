"""Uniform driver: run any algorithm on a simulated machine.

Wraps the SPMD programs behind a single name-based entry point and
normalizes their outcomes into :class:`RunResult` rows (the unit every
benchmark table/figure in this repo is built from).  Failures the paper
reports for competitors — TriC's out-of-memory crashes — are captured
as failed rows instead of exceptions, mirroring how the paper plots
missing points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..baselines.havoqgt import havoqgt_program
from ..baselines.tric import tric_program
from ..core.edge_iterator import edge_iterator
from ..core.engine import CONFIGS, counting_program
from ..graphs.csr import CSRGraph
from ..graphs.distributed import DistGraph, distribute
from ..net.costmodel import DEFAULT_SPEC, MachineSpec
from ..net.machine import Machine, OutOfMemoryError
from ..net.metrics import RunMetrics
from ..net.trace import Tracer

__all__ = [
    "RunResult",
    "ALGORITHMS",
    "run_algorithm",
    "memory_limited_spec",
]

#: All runnable algorithm names: the engine variants of
#: :data:`~repro.core.engine.CONFIGS` plus the sequential counter and
#: the two baselines.
ALGORITHMS: tuple[str, ...] = ("sequential", *CONFIGS, "tric", "havoqgt")


@dataclass
class RunResult:
    """One (algorithm, graph, p) measurement row."""

    algorithm: str
    graph: str
    num_pes: int
    triangles: int | None
    #: Modelled running time in seconds (None if the run failed).
    time: float | None
    max_messages: int = 0
    bottleneck_volume: int = 0
    total_volume: int = 0
    total_messages: int = 0
    total_ops: int = 0
    peak_buffer_words: int = 0
    #: Resilience counters (nonzero only under injected faults).
    retransmits: int = 0
    messages_dropped: int = 0
    duplicates_discarded: int = 0
    phases: dict[str, float] = field(default_factory=dict)
    #: Failure label ("out-of-memory") when the run did not complete.
    failed: str | None = None
    #: Full per-PE metrics (spans included) for the observability
    #: exporters of :mod:`repro.obs`; not part of :meth:`as_dict`.
    metrics: RunMetrics | None = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        """Whether the run completed."""
        return self.failed is None

    def as_dict(self) -> dict[str, Any]:
        """Flat dict for table rendering."""
        row: dict[str, Any] = {
            "algorithm": self.algorithm,
            "graph": self.graph,
            "p": self.num_pes,
            "triangles": self.triangles,
            "time": self.time,
            "max_messages": self.max_messages,
            "bottleneck_volume": self.bottleneck_volume,
            "total_volume": self.total_volume,
            "total_ops": self.total_ops,
            "failed": self.failed or "",
        }
        for name, t in sorted(self.phases.items()):
            row[f"phase_{name}"] = t
        return row


def memory_limited_spec(
    dist: DistGraph, *, spec: MachineSpec = DEFAULT_SPEC, words_per_local_arc: float = 8.0
) -> MachineSpec:
    """A spec whose per-PE memory budget scales with the local input.

    The paper's machines have a *fixed* 96 GB per node, which for its
    billion-edge inputs is a small multiple of the local graph size —
    that proportionality is what makes TriC's superlinear buffering
    fatal.  Scaling the budget with ``|E_i|`` reproduces the same
    failure boundary on our scaled-down instances.
    """
    max_arcs = max((v.num_local_arcs for v in dist.views), default=1)
    budget = max(1024, int(words_per_local_arc * max(max_arcs, 1)))
    return spec.scaled(memory_words=budget)


def _run_sequential(graph: CSRGraph) -> RunResult:
    import time as _time

    t0 = _time.perf_counter()
    res = edge_iterator(graph)
    elapsed = _time.perf_counter() - t0
    return RunResult(
        algorithm="sequential",
        graph=graph.name,
        num_pes=1,
        triangles=res.triangles,
        time=elapsed,
        total_ops=res.intersection_ops,
    )


def run_algorithm(
    graph: CSRGraph | DistGraph,
    algorithm: str,
    num_pes: int | None = None,
    *,
    spec: MachineSpec = DEFAULT_SPEC,
    config_overrides: dict[str, Any] | None = None,
    program_kwargs: dict[str, Any] | None = None,
    tracer: Tracer | None = None,
) -> RunResult:
    """Run one algorithm and return a normalized result row.

    Parameters
    ----------
    graph:
        A global :class:`CSRGraph` (distributed on the fly) or an
        already-distributed :class:`DistGraph`.
    algorithm:
        One of :data:`ALGORITHMS`.
    num_pes:
        Required when ``graph`` is a global graph and the algorithm is
        distributed.
    spec:
        Machine cost-model constants (see
        :func:`memory_limited_spec` for OOM-faithful budgets).
    config_overrides:
        For engine-based algorithms: replace
        :class:`~repro.core.engine.EngineConfig` fields, e.g.
        ``{"threshold_factor": 0.25}``.
    program_kwargs:
        Extra keyword arguments for baseline programs (e.g. HavoqGT's
        ``batch_pairs``).
    tracer:
        Optional :class:`~repro.net.trace.Tracer` receiving every
        message event of the run (Chrome-trace export).
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if algorithm == "sequential":
        if not isinstance(graph, CSRGraph):
            raise ValueError("sequential counting needs the global graph")
        return _run_sequential(graph)

    if isinstance(graph, DistGraph):
        dist = graph
    else:
        if num_pes is None:
            raise ValueError("num_pes required when passing a global graph")
        dist = distribute(graph, num_pes=num_pes)
    p = dist.num_pes
    kwargs = dict(program_kwargs or {})

    program: Callable
    args: tuple
    if algorithm in CONFIGS:
        cfg = CONFIGS[algorithm]
        if config_overrides:
            from dataclasses import replace

            cfg = replace(cfg, **config_overrides)
        program, args = counting_program, (dist, cfg)
    elif algorithm == "tric":
        program, args = tric_program, (dist,)
    else:
        program, args = havoqgt_program, (dist,)

    machine = Machine(p, spec, tracer=tracer)
    try:
        result = machine.run(program, *args, **kwargs)
    except OutOfMemoryError:
        return RunResult(
            algorithm=algorithm,
            graph=dist.name,
            num_pes=p,
            triangles=None,
            time=None,
            failed="out-of-memory",
        )
    metrics = result.metrics
    return RunResult(
        algorithm=algorithm,
        graph=dist.name,
        num_pes=p,
        triangles=int(result.values[0].triangles_total),
        time=metrics.makespan,
        max_messages=metrics.max_messages_sent,
        bottleneck_volume=metrics.bottleneck_volume,
        total_volume=metrics.total_volume,
        total_messages=metrics.total_messages,
        total_ops=metrics.total_ops,
        peak_buffer_words=metrics.max_peak_buffer_words,
        retransmits=metrics.total_retransmits,
        messages_dropped=metrics.total_messages_dropped,
        duplicates_discarded=metrics.total_duplicates_discarded,
        phases=metrics.phase_breakdown(),
        metrics=metrics,
    )
