"""High-level facade over the algorithm zoo.

Most users want one of two calls:

>>> from repro import count_triangles
>>> res = count_triangles(graph, algorithm="cetric", num_pes=16)
>>> res.triangles, res.time, res.bottleneck_volume

>>> from repro import local_clustering_coefficients
>>> lcc = local_clustering_coefficients(graph, num_pes=8)

Everything else (machine specs, ablation configs, per-phase metrics)
is reachable through the returned
:class:`~repro.analysis.runner.RunResult` and the subpackages.
"""

from __future__ import annotations

import numpy as np

from .analysis.runner import ALGORITHMS, RunResult, run_algorithm
from .core.engine import CONFIGS, EngineConfig
from .core.lcc import lcc_program, lcc_sequential
from .graphs.csr import CSRGraph
from .graphs.distributed import distribute
from .net.costmodel import DEFAULT_SPEC, MachineSpec
from .net.machine import Machine

__all__ = ["count_triangles", "local_clustering_coefficients", "ALGORITHMS"]


def count_triangles(
    graph: CSRGraph,
    *,
    algorithm: str = "cetric",
    num_pes: int | None = None,
    spec: MachineSpec = DEFAULT_SPEC,
    **kwargs,
) -> RunResult:
    """Count triangles with any algorithm of the reproduction.

    Parameters
    ----------
    graph:
        Undirected input graph.
    algorithm:
        One of :data:`ALGORITHMS` (default the paper's CETRIC);
        ``"sequential"`` runs COMPACT-FORWARD without a machine.
    num_pes:
        Simulated PE count for distributed algorithms (default 4).
    spec:
        Cost-model constants (``repro.net.SUPERMUC`` by default).
    kwargs:
        Forwarded to :func:`repro.analysis.runner.run_algorithm`
        (``config_overrides``, ``program_kwargs``).
    """
    if algorithm == "sequential":
        return run_algorithm(graph, "sequential")
    return run_algorithm(
        graph, algorithm, num_pes if num_pes is not None else 4, spec=spec, **kwargs
    )


def local_clustering_coefficients(
    graph: CSRGraph,
    *,
    num_pes: int | None = None,
    spec: MachineSpec = DEFAULT_SPEC,
    config: EngineConfig = CONFIGS["cetric"],
) -> np.ndarray:
    """Exact LCC of every vertex (Section IV-E extension).

    ``num_pes=None`` computes sequentially; otherwise the distributed
    CETRIC-based LCC program runs on a simulated machine and the
    per-PE slices are concatenated back into one global array.
    """
    if num_pes is None:
        return lcc_sequential(graph)
    dist = distribute(graph, num_pes=num_pes)
    result = Machine(num_pes, spec).run(lcc_program, dist, config)
    return np.concatenate([v.lcc for v in result.values])
