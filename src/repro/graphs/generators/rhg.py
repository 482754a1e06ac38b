"""Random hyperbolic graphs (KaGen's RHG model).

``n`` points are placed in a hyperbolic disk of radius ``R``; the
radial coordinate has density ``alpha * sinh(alpha r) / (cosh(alpha R) - 1)``
and the angle is uniform.  Two vertices are adjacent iff their
hyperbolic distance is at most ``R`` (threshold model).  The degree
distribution follows a power law with exponent ``gamma = 2 alpha + 1``;
the paper uses ``gamma = 2.8`` (so ``alpha = 0.9``) and an average
degree of 32 (``m ~= 16 n``).

RHG graphs combine heavy-tailed degrees with geometric locality —
exactly the regime where the paper observes a "spike" in degree
exchange and where DITRIC² (indirection) starts paying off.

The generator is output-sensitive: points are sorted by angle (which
also gives KaGen-style spatially local vertex ids); for each vertex an
angular candidate window is derived from the most permissive possible
partner radius and only candidates inside the window get the exact
hyperbolic-distance test.  A small set of "inner" points near the disk
center (which can connect at any angle) is handled densely.
"""

from __future__ import annotations

import numpy as np

from ..builders import from_edges
from ..csr import CSRGraph

__all__ = ["rhg", "disk_radius_for_avg_degree", "hyperbolic_distance"]


def disk_radius_for_avg_degree(n: int, avg_degree: float, alpha: float) -> float:
    """Disk radius ``R`` targeting a given average degree.

    Uses the large-``n`` expectation from Krioukov et al. (2010):
    ``k_bar = (2/pi) n alpha^2 e^{-R/2} / (alpha - 1/2)^2`` for
    ``alpha > 1/2``.
    """
    if alpha <= 0.5:
        raise ValueError("alpha must exceed 1/2 (gamma > 2)")
    if avg_degree <= 0 or n < 2:
        raise ValueError("need avg_degree > 0 and n >= 2")
    c = (2.0 / np.pi) * n * alpha**2 / (alpha - 0.5) ** 2
    return float(2.0 * np.log(c / avg_degree))


def hyperbolic_distance(
    r1: np.ndarray, t1: np.ndarray, r2: np.ndarray, t2: np.ndarray
) -> np.ndarray:
    """Pairwise hyperbolic distance for broadcastable polar coordinates."""
    dt = np.pi - np.abs(np.pi - np.abs(t1 - t2) % (2 * np.pi))
    arg = np.cosh(r1) * np.cosh(r2) - np.sinh(r1) * np.sinh(r2) * np.cos(dt)
    return np.arccosh(np.maximum(arg, 1.0))


def _sample_radii(n: int, alpha: float, R: float, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF sampling of the radial density on ``[0, R]``."""
    u = rng.random(n)
    # CDF(r) = (cosh(alpha r) - 1) / (cosh(alpha R) - 1)
    return np.arccosh(1.0 + u * (np.cosh(alpha * R) - 1.0)) / alpha


def _max_angle(r_u: np.ndarray, r_partner: float, R: float) -> np.ndarray:
    """Largest angular difference at which (r_u, r_partner) can connect."""
    denom = np.sinh(r_u) * np.sinh(r_partner)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_t = (np.cosh(r_u) * np.cosh(r_partner) - np.cosh(R)) / denom
    cos_t = np.where(denom <= 0, -1.0, cos_t)
    return np.arccos(np.clip(cos_t, -1.0, 1.0))


def rhg(
    n: int,
    *,
    avg_degree: float = 32.0,
    gamma: float = 2.8,
    seed: int = 0,
    name: str | None = None,
) -> CSRGraph:
    """Generate a threshold random hyperbolic graph.

    Parameters
    ----------
    n:
        Number of vertices.
    avg_degree:
        Target expected average degree (paper default 32, i.e.
        ``m ~= 16 n``).
    gamma:
        Power-law exponent of the degree distribution
        (``gamma = 2 alpha + 1 > 2``); paper uses 2.8.
    seed:
        RNG seed; identical seeds give identical graphs.
    """
    label = name if name is not None else f"rhg(n={n},deg={avg_degree},gamma={gamma},seed={seed})"
    if n < 2:
        return from_edges(np.empty((0, 2), dtype=np.int64), num_vertices=n, name=label)
    alpha = (gamma - 1.0) / 2.0
    R = disk_radius_for_avg_degree(n, avg_degree, alpha)
    rng = np.random.default_rng(seed)
    radii = _sample_radii(n, alpha, R, rng)
    theta = rng.random(n) * 2.0 * np.pi

    # Angular sort: ids get KaGen-like angular locality.
    order = np.argsort(theta, kind="stable")
    radii, theta = radii[order], theta[order]

    # Points with r <= R/2 can connect to boundary points at any angle;
    # treat them densely against everyone (their count is tiny because
    # the radial density concentrates exponentially near r = R).
    inner_mask = radii <= R / 2.0
    inner = np.flatnonzero(inner_mask)
    outer = np.flatnonzero(~inner_mask)

    chunks: list[np.ndarray] = []

    if inner.size:
        # inner x all (dedup with index comparison)
        d = hyperbolic_distance(
            radii[inner][:, None], theta[inner][:, None], radii[None, :], theta[None, :]
        )
        a, b = np.nonzero(d <= R)
        ia = inner[a]
        # ``ia < b`` drops self pairs and keeps one orientation of each
        # inner-inner pair.
        keep = ia < b
        chunks.append(np.column_stack([ia[keep], b[keep]]))

    if outer.size > 1:
        r_o = radii[outer]
        t_o = theta[outer]
        # Most permissive outer partner sits at radius R/2.
        tmax = _max_angle(r_o, R / 2.0, R)
        # Candidate windows in the angle-sorted order, looking only
        # forward (each unordered pair generated once).  Wraparound is
        # handled by an extended copy shifted by 2*pi.
        t_ext = np.concatenate([t_o, t_o + 2.0 * np.pi])
        k = outer.size
        hi = np.searchsorted(t_ext, t_o + tmax + 1e-12, side="right")
        lo = np.arange(1, k + 1)  # strictly after self
        win = np.maximum(hi - lo, 0)
        src = np.repeat(np.arange(k), win)
        # Column index within each window.
        offsets = np.concatenate([[0], np.cumsum(win)])
        col = np.arange(offsets[-1]) - np.repeat(offsets[:-1], win)
        dst_ext = np.repeat(lo, win) + col
        dst = dst_ext % k
        keep = src != dst
        src, dst = src[keep], dst[keep]
        d = hyperbolic_distance(r_o[src], t_o[src], r_o[dst], t_o[dst])
        close = d <= R
        u = outer[src[close]]
        v = outer[dst[close]]
        # Exclude pairs involving inner points (already covered above) —
        # by construction src/dst are outer, so nothing to exclude.
        chunks.append(np.column_stack([u, v]))

    edges = (
        np.concatenate(chunks, axis=0) if chunks else np.empty((0, 2), dtype=np.int64)
    )
    return from_edges(edges, num_vertices=n, name=label)
