"""Distributed k-core decomposition on the simulated machine.

The paper's conclusion calls for graph-processing infrastructure that
makes "a variety of graph analysis tasks" efficient on distributed
memory; this module demonstrates that the machine substrate
generalizes beyond triangle counting by implementing the classic
locally-iterative core-number algorithm (Lü et al., "The H-index of a
network node and its relation to degree and coreness", 2016):

    est(v) <- H({est(u) : u in N_v}),   est(v) initialized to d_v,

where ``H`` is the h-index operator (the largest ``h`` such that at
least ``h`` neighbors have estimate ``>= h``).  The iteration
converges monotonically from above to the exact core numbers and only
ever reads neighbor estimates — so each round is one ghost-estimate
exchange, the halo exchange the counting preprocessing runs for ghost
degrees (:func:`~repro.core.preprocessing.exchange_ghost_values`).

Rounds are synchronous; termination is a global allreduce on the
per-round change count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from ..graphs.distributed import DistGraph
from ..net.comm import allreduce
from ..net.machine import PEContext
from .preprocessing import exchange_ghost_values, ghost_send_lists

__all__ = ["PECores", "kcore_program", "h_index"]


def h_index(values: np.ndarray) -> int:
    """The h-index of a multiset: ``max h`` with ``h`` values ``>= h``."""
    if values.size == 0:
        return 0
    sorted_desc = np.sort(values)[::-1]
    ranks = np.arange(1, sorted_desc.size + 1)
    ok = sorted_desc >= ranks
    return int(ranks[ok].max(initial=0))


@dataclass
class PECores:
    """Per-PE outcome of the distributed k-core program."""

    #: Exact core numbers of the owned vertices (row ``v - vlo``).
    cores: np.ndarray
    #: Number of synchronous rounds until the fixpoint.
    rounds: int


def _batch_h_index(est_of_neighbors: np.ndarray, xadj: np.ndarray) -> np.ndarray:
    """h-index per CSR block (vectorized inside each block)."""
    out = np.zeros(xadj.size - 1, dtype=np.int64)
    for i in range(xadj.size - 1):
        out[i] = h_index(est_of_neighbors[xadj[i] : xadj[i + 1]])
    return out


def kcore_program(ctx: PEContext, dist: DistGraph) -> Generator[None, None, PECores]:
    """SPMD core-number computation (run via ``Machine.run``)."""
    lg = dist.view(ctx.rank)
    est_local = lg.degrees

    # Who needs which of my vertices' estimates: the ghost-degree
    # exchange's send lists.
    send_plan = ghost_send_lists(ctx, lg)
    slots = lg.adj_slots()

    rounds = 0
    while True:
        rounds += 1
        # Exchange current estimates of interface vertices.
        est_ghost = yield from exchange_ghost_values(ctx, lg, send_plan, est_local, "kcore-est")

        # One h-index sweep over the owned vertices.
        nbr_est = lg.by_slot(est_local, est_ghost)[slots]
        new_est = _batch_h_index(nbr_est, lg.xadj)
        # H-operator never increases estimates below the true core.
        changed = int(np.count_nonzero(new_est != est_local))
        ctx.charge(lg.adjncy.size)
        est_local = new_est

        total_changed = yield from allreduce(ctx, changed, lambda a, b: a + b)
        if total_changed == 0:
            break
    return PECores(cores=est_local, rounds=rounds)
