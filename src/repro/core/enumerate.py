"""Distributed triangle enumeration (Section IV-E).

"Since each triangle is found exactly once, this can be easily
generalized to the case of triangle enumeration."  This module does
exactly that: the CETRIC/DITRIC traversal of :mod:`repro.core.engine`
(its ``_triangle_phases`` skeleton, shared with exact LCC) with the
element-returning kernels, yielding on every PE the list of triangles
*it discovered*.
The union over PEs is the exact triangle set, each triangle appearing
exactly once (asserted by the tests against the sequential
enumeration).

Useful when the application needs the triangles themselves (motif
analysis, support counting for truss decomposition) rather than
counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from ..graphs.distributed import DistGraph
from ..net.comm import allreduce
from ..net.machine import PEContext
from .engine import CONFIGS, EngineConfig, _triangle_phases

__all__ = ["PETriangles", "enumerate_program", "gather_all_triangles"]


@dataclass
class PETriangles:
    """Per-PE enumeration outcome."""

    #: Triangles found on this PE, one row ``[a, b, c]`` with ascending
    #: vertex ids; globally disjoint across PEs and jointly complete.
    triangles: np.ndarray
    #: Global total (consistency check, equals ``sum len(triangles)``).
    total: int


def _rows(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    tri = np.column_stack([a, b, c])
    tri.sort(axis=1)
    return tri


def enumerate_program(
    ctx: PEContext,
    dist: DistGraph,
    config: EngineConfig = CONFIGS["cetric"],
) -> Generator[None, None, PETriangles]:
    """SPMD triangle enumeration (CETRIC- or DITRIC-flavoured)."""
    lg = dist.view(ctx.rank)
    parts: list[np.ndarray] = []

    def keep_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        if a.size:
            parts.append(_rows(lg.ids[a], lg.ids[b], lg.ids[c]))

    yield from _triangle_phases(ctx, lg, config, "enum-nbh", keep_rows)
    mine = (
        np.concatenate(parts, axis=0) if parts else np.empty((0, 3), dtype=np.int64)
    )
    total = yield from allreduce(ctx, int(mine.shape[0]), lambda x, y: x + y)
    return PETriangles(triangles=mine, total=int(total))


def gather_all_triangles(values: list[PETriangles]) -> np.ndarray:
    """Union of per-PE triangle lists, canonically sorted (driver-side)."""
    parts = [v.triangles for v in values if v.triangles.size]
    if not parts:
        return np.empty((0, 3), dtype=np.int64)
    tri = np.concatenate(parts, axis=0)
    order = np.lexsort((tri[:, 2], tri[:, 1], tri[:, 0]))
    return tri[order]
