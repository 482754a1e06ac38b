"""Erdős–Rényi ``G(n, m)`` generator (KaGen's GNM model).

The paper's weak-scaling experiments (Fig. 5) use ``G(n, m)`` graphs
chosen uniformly at random from all graphs with ``n`` vertices and
``m`` edges, with ``m = 16 n`` as in the Graph 500 default.  GNM
graphs have no locality at all, which is why contraction (CETRIC)
does not pay off on them — an effect this reproduction must preserve,
so the generator is exact: simple graphs, no duplicate edges.
"""

from __future__ import annotations

import numpy as np

from ..builders import from_edges, sorted_unique
from ..csr import CSRGraph

__all__ = ["gnm", "random_edge_sample"]


def _max_edges(n: int) -> int:
    return n * (n - 1) // 2


def _decode_pairs(codes: np.ndarray, n: int) -> np.ndarray:
    """Map linear codes in ``[0, C(n,2))`` to distinct pairs ``u < v``.

    Uses the row-major enumeration of the strict upper triangle:
    code = u*n - u*(u+1)/2 + (v - u - 1).  Inverted vectorized via the
    quadratic formula.
    """
    codes = codes.astype(np.float64)
    # Solve u from the cumulative row sizes: rows 0..u-1 cover
    # sum_{i<u} (n-1-i) = u*n - u*(u+1)/2 codes.
    # u = floor(((2n-1) - sqrt((2n-1)^2 - 8*code)) / 2)
    b = 2.0 * n - 1.0
    u = np.floor((b - np.sqrt(b * b - 8.0 * codes)) / 2.0).astype(np.int64)
    # Guard against floating point rounding at row boundaries.
    row_start = u * n - u * (u + 1) // 2
    too_big = row_start > codes
    u[too_big] -= 1
    row_start = u * n - u * (u + 1) // 2
    too_small = codes.astype(np.int64) - row_start >= (n - 1 - u)
    u[too_small] += 1
    row_start = u * n - u * (u + 1) // 2
    v = codes.astype(np.int64) - row_start + u + 1
    return np.column_stack([u, v])


def random_edge_sample(
    n: int, m: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample ``m`` distinct undirected edges on ``n`` vertices.

    Vectorized rejection sampling on linear edge codes; expected
    ``O(m)`` draws as long as ``m`` is at most half the possible
    edges, falling back to a full permutation otherwise.
    """
    total = _max_edges(n)
    if m > total:
        raise ValueError(f"m={m} exceeds C({n},2)={total}")
    if m == 0:
        return np.empty((0, 2), dtype=np.int64)
    if m > total // 2:
        # Dense regime: choose without replacement over all codes.
        codes = rng.choice(total, size=m, replace=False)
        return _decode_pairs(np.sort(codes), n)
    chosen = np.empty(0, dtype=np.int64)
    need = m
    while need > 0:
        draw = rng.integers(0, total, size=int(need * 1.2) + 8)
        chosen = sorted_unique(np.concatenate([chosen, draw]))
        need = m - chosen.size
    if chosen.size > m:
        chosen = rng.choice(chosen, size=m, replace=False)
    return _decode_pairs(np.sort(chosen), n)


def gnm(n: int, m: int, *, seed: int = 0, name: str | None = None) -> CSRGraph:
    """Generate a uniform random simple graph with ``n`` vertices, ``m`` edges.

    Parameters
    ----------
    n, m:
        Vertex and edge counts.  ``m`` must not exceed ``C(n, 2)``.
    seed:
        Seeds a :class:`numpy.random.PCG64`; identical seeds give
        identical graphs on every platform.
    """
    rng = np.random.default_rng(seed)
    edges = random_edge_sample(n, m, rng)
    label = name if name is not None else f"gnm(n={n},m={m},seed={seed})"
    return from_edges(edges, num_vertices=n, name=label)
