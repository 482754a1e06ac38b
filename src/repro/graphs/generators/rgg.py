"""Random geometric graphs in 2D and 3D (KaGen's RGG2D / RGG3D models).

``n`` points are placed uniformly at random in the unit square; two
vertices are adjacent iff their Euclidean distance is below a radius
``r``.  The paper chooses ``r`` such that the expected number of edges
is ``16 n`` (Section V-C).  RGG2D graphs are the *most local* family in
the evaluation: after spatially-coherent ID assignment, 1D partitions
have tiny cuts, which is the regime where CETRIC's contraction shines.

The implementation uses a uniform grid of cell width ``r`` so candidate
pairs are only generated between neighboring cells — ``O(n + m)``
expected work, fully vectorized: one batch per neighbour-cell offset
covers every cell at once.

Vertex ids are assigned by sorting points along a space-filling-ish
order (cell-major) so that, as with KaGen's output, nearby vertices get
nearby ids and ID-based 1D partitioning inherits spatial locality.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..builders import from_edges
from ..csr import CSRGraph

__all__ = ["rgg2d", "rgg3d", "radius_for_expected_edges", "radius_for_expected_edges_3d"]


def radius_for_expected_edges(n: int, m: int) -> float:
    """Radius ``r`` giving ``E[edges] ~= m`` in the unit square.

    Ignoring boundary effects, a pair is adjacent with probability
    ``pi r^2``, so ``E[m] = C(n,2) * pi r^2``.
    """
    if n < 2:
        return 0.0
    pairs = n * (n - 1) / 2.0
    return float(np.sqrt(m / (np.pi * pairs)))


def radius_for_expected_edges_3d(n: int, m: int) -> float:
    """Radius giving ``E[edges] ~= m`` in the unit cube.

    A pair is adjacent with probability ``(4/3) pi r^3`` (ignoring
    boundary effects).
    """
    if n < 2:
        return 0.0
    pairs = n * (n - 1) / 2.0
    return float((m / (pairs * 4.0 / 3.0 * np.pi)) ** (1.0 / 3.0))


def _close_pairs(pts: np.ndarray, cell_id: np.ndarray, cells: int, r2: float) -> np.ndarray:
    """All pairs ``(a, b)`` with ``|pts[a] - pts[b]|^2 <= r2``.

    ``pts`` (shape ``(n, dim)``) lies in a grid of ``cells`` cells per
    side, each of side at least ``sqrt(r2)``, so only neighbouring cells
    can hold close pairs.  ``cell_id`` is each point's row-major cell
    and must be non-decreasing.  Every cell is paired with itself and
    with the lexicographically positive half of its neighbourhood, so
    each unordered cell pair is visited once.  Each offset expands all
    of its (cell, neighbour-cell) candidates at once: candidate ``k`` of
    a cell pair is point ``k // size_b`` of the first cell and point
    ``k % size_b`` of the second.
    """
    dim = pts.shape[1]
    shape = (cells,) * dim
    counts = np.bincount(cell_id, minlength=cells**dim)
    starts = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    nonempty = np.flatnonzero(counts)
    coords = np.column_stack(np.unravel_index(nonempty, shape))
    chunks: list[np.ndarray] = []
    for offset in itertools.product((-1, 0, 1), repeat=dim):
        if offset < (0,) * dim:
            continue
        nb = coords + offset
        inside = np.all((nb >= 0) & (nb < cells), axis=1)
        cell_a = nonempty[inside]
        cell_b = np.ravel_multi_index(tuple(nb[inside].T), shape)
        size_a, size_b = counts[cell_a], counts[cell_b]
        width = size_a * size_b
        pair = np.repeat(np.arange(width.size), width)
        first = np.zeros(width.size, dtype=np.int64)
        np.cumsum(width[:-1], out=first[1:])
        k = np.arange(pair.size, dtype=np.int64) - first[pair]
        i, j = np.divmod(k, size_b[pair])
        a = starts[cell_a][pair] + i
        b = starts[cell_b][pair] + j
        if not any(offset):
            keep = a < b
            a, b = a[keep], b[keep]
        d = pts[a] - pts[b]
        close = (d * d).sum(axis=1) <= r2
        chunks.append(np.column_stack([a[close], b[close]]))
    return np.concatenate(chunks)


def _geometric_graph(n: int, dim: int, radius: float, seed: int, label: str) -> CSRGraph:
    """``n`` uniform points in the unit ``dim``-cube, joined within ``radius``.

    Vertices are relabelled cell-major so ids have spatial locality
    (KaGen-like).
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    rng = np.random.default_rng(seed)
    pts = rng.random((n, dim))
    if n == 0 or radius == 0.0:
        return from_edges(np.empty((0, 2), dtype=np.int64), num_vertices=n, name=label)
    cells = max(1, int(1.0 / radius))
    cell_id = np.ravel_multi_index(
        tuple(np.minimum((pts * cells).astype(np.int64), cells - 1).T), (cells,) * dim
    )
    order = np.argsort(cell_id, kind="stable")
    edges = _close_pairs(pts[order], cell_id[order], cells, radius * radius)
    return from_edges(edges, num_vertices=n, name=label)


def rgg2d(
    n: int,
    radius: float | None = None,
    *,
    expected_edges: int | None = None,
    seed: int = 0,
    name: str | None = None,
) -> CSRGraph:
    """Generate a 2D random geometric graph in the unit square.

    Exactly one of ``radius`` and ``expected_edges`` must be given;
    ``expected_edges`` computes the radius via
    :func:`radius_for_expected_edges` (paper default:
    ``expected_edges = 16 * n``).
    """
    if (radius is None) == (expected_edges is None):
        raise ValueError("give exactly one of radius / expected_edges")
    if radius is None:
        radius = radius_for_expected_edges(n, int(expected_edges))
    label = name if name is not None else f"rgg2d(n={n},r={radius:.4g},seed={seed})"
    return _geometric_graph(n, 2, radius, seed, label)


def rgg3d(
    n: int,
    radius: float | None = None,
    *,
    expected_edges: int | None = None,
    seed: int = 0,
    name: str | None = None,
) -> CSRGraph:
    """Generate a 3D random geometric graph in the unit cube (RGG3D).

    Same contract as :func:`rgg2d`; the cell grid generalizes to a
    half-of-26-neighborhood sweep so each unordered cell pair is
    visited once.  Ids are cell-major, giving KaGen-like spatial
    locality in 3D as well.
    """
    if (radius is None) == (expected_edges is None):
        raise ValueError("give exactly one of radius / expected_edges")
    if radius is None:
        radius = radius_for_expected_edges_3d(n, int(expected_edges))
    label = name if name is not None else f"rgg3d(n={n},r={radius:.4g},seed={seed})"
    return _geometric_graph(n, 3, radius, seed, label)
