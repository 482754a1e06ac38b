"""Hybrid (threads × MPI ranks) execution model (Section IV-D, Fig. 8).

The paper's hybrid prototype keeps the number of physical cores fixed
(``cores = threads × ranks``) and varies the threads-per-rank count.
Its observed behaviour, which this model reproduces:

* the **local phase** speeds up by up to ~1.67 with 12 threads thanks
  to edge-centric work splitting (well below linear — the kernels are
  memory-bound);
* the **communication volume** drops by up to ~84 % because fewer,
  larger ranks have fewer cut edges;
* the **global phase** becomes the bottleneck: MPI runs in *funneled*
  mode, one communication thread per rank serializes message handling
  while the workers idle, so the hybrid variant ends up *slower*
  overall than plain MPI.

The model layers three analytic effects on top of a real simulated run
with ``ranks = cores / threads`` PEs:

1. local-phase time divided by the measured-efficiency speedup
   ``S(t) = t / (1 + sigma (t - 1))`` with ``sigma`` calibrated to the
   paper's 1.67× @ 12 threads (``sigma ~= 0.56``);
2. communication quantities taken directly from the smaller-``p`` run
   (the volume reduction is *measured*, not assumed);
3. global-phase time inflated by the funneled-communication factor
   ``1 + phi * (1 - 1/t)``: with one comm thread among ``t``, message
   handling no longer overlaps with the workers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graphs.csr import CSRGraph
from ..graphs.distributed import distribute
from ..net.costmodel import DEFAULT_SPEC, MachineSpec
from ..net.machine import Machine
from .engine import CONFIGS, EngineConfig, counting_program

__all__ = ["HybridResult", "thread_speedup", "run_hybrid", "SIGMA_DEFAULT", "PHI_DEFAULT"]

#: Serial fraction of the threaded local phase; 0.56 reproduces the
#: paper's 1.67x speedup at 12 threads.
SIGMA_DEFAULT = 0.56

#: Funneled-mode contention factor for the global phase.
PHI_DEFAULT = 1.5


def thread_speedup(threads: int, sigma: float = SIGMA_DEFAULT) -> float:
    """Amdahl-style speedup ``t / (1 + sigma (t - 1))`` of the local phase."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    return threads / (1.0 + sigma * (threads - 1))


@dataclass(frozen=True)
class HybridResult:
    """Modelled outcome of one (cores, threads) hybrid configuration."""

    cores: int
    threads: int
    ranks: int
    local_time: float
    global_time: float
    other_time: float
    total_volume: int
    bottleneck_volume: int
    triangles: int

    @property
    def total_time(self) -> float:
        """Modelled end-to-end time."""
        return self.local_time + self.global_time + self.other_time


def run_hybrid(
    graph: CSRGraph,
    cores: int,
    threads: int,
    *,
    config: EngineConfig = CONFIGS["ditric2"],
    spec: MachineSpec = DEFAULT_SPEC,
    sigma: float = SIGMA_DEFAULT,
    phi: float = PHI_DEFAULT,
) -> HybridResult:
    """Model one hybrid configuration at a fixed core count.

    ``threads`` must divide ``cores``; ``ranks = cores // threads`` PEs
    are actually simulated (so cut structure, volume and message counts
    are measured at the real rank count), then the thread-level effects
    are applied analytically per the module docstring.
    """
    if cores < 1 or threads < 1 or cores % threads != 0:
        raise ValueError("threads must divide cores")
    ranks = cores // threads
    dist = distribute(graph, num_pes=ranks)
    result = Machine(ranks, spec).run(counting_program, dist, config)
    phases = result.metrics.phase_breakdown()
    local = phases.get("local", 0.0)
    glob = phases.get("global", 0.0)
    other = sum(t for k, t in phases.items() if k not in ("local", "global"))
    s = thread_speedup(threads, sigma)
    funnel = 1.0 + phi * (1.0 - 1.0 / threads)
    return HybridResult(
        cores=cores,
        threads=threads,
        ranks=ranks,
        local_time=local / s,
        global_time=glob * funnel,
        other_time=other,
        total_volume=result.metrics.total_volume,
        bottleneck_volume=result.metrics.bottleneck_volume,
        triangles=result.values[0].triangles_total,
    )
