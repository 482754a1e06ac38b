"""The paper's core algorithms: orientation, kernels, DITRIC, CETRIC.

Submodules are imported lazily where needed; the common entry points
are re-exported here.
"""

from .approx import amq_cetric_program, amq_lcc_program, colorful, doulion
from .components import PEComponents, components_program
from .edge_iterator import (
    SequentialResult,
    edge_iterator,
    edge_iterator_per_vertex,
    matrix_count,
    triangle_edges,
)
from .engine import CONFIGS, EngineConfig, PECounts, counting_program
from .enumerate import enumerate_program, gather_all_triangles
from .hybrid import HybridResult, run_hybrid, thread_speedup
from .kcore import PECores, h_index, kcore_program
from .lcc import lcc_from_delta, lcc_program, lcc_sequential
from .preprocessing import OrientedLocalGraph, build_oriented, exchange_ghost_degrees
from .intersect import (
    BatchIntersections,
    batch_intersect_count,
    batch_intersect_count_elements,
    batch_intersect_elements,
    concat_xadj,
    gather_blocks,
    intersect_count,
    intersect_sorted,
    merge_cost,
)
from .orientation import (
    is_acyclic_orientation,
    order_keys,
    orient,
    orient_by_degree,
    out_neighborhoods,
)
from .wedges import (
    global_clustering_coefficient,
    oriented_wedges,
    wedge_count,
    wedges_per_vertex,
)

__all__ = [
    "amq_cetric_program",
    "amq_lcc_program",
    "PEComponents",
    "components_program",
    "colorful",
    "doulion",
    "CONFIGS",
    "EngineConfig",
    "PECounts",
    "counting_program",
    "enumerate_program",
    "gather_all_triangles",
    "HybridResult",
    "run_hybrid",
    "thread_speedup",
    "PECores",
    "h_index",
    "kcore_program",
    "lcc_from_delta",
    "lcc_program",
    "lcc_sequential",
    "OrientedLocalGraph",
    "build_oriented",
    "exchange_ghost_degrees",
    "SequentialResult",
    "edge_iterator",
    "edge_iterator_per_vertex",
    "matrix_count",
    "triangle_edges",
    "BatchIntersections",
    "batch_intersect_count",
    "batch_intersect_count_elements",
    "batch_intersect_elements",
    "concat_xadj",
    "gather_blocks",
    "intersect_count",
    "intersect_sorted",
    "merge_cost",
    "is_acyclic_orientation",
    "order_keys",
    "orient",
    "orient_by_degree",
    "out_neighborhoods",
    "global_clustering_coefficient",
    "oriented_wedges",
    "wedge_count",
    "wedges_per_vertex",
]
