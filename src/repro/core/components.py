"""Distributed connected components by label propagation.

A second demonstration (next to :mod:`repro.core.kcore`) that the
machine substrate hosts general vertex-centric analytics: every vertex
holds a component label initialized to its own id; each synchronous
round exchanges interface labels with neighbor PEs and relaxes

    label(v) <- min(label(v), min_{u in N_v} label(u)),

terminating when a global allreduce sees no change.  Converges in
O(diameter) rounds — fast on social/web graphs, slow on paths (which
the tests cover as the adversarial case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from ..graphs.distributed import DistGraph
from ..net.comm import allreduce, alltoallv_dense
from ..net.machine import PEContext
from .preprocessing import ghost_send_lists

__all__ = ["PEComponents", "components_program"]


@dataclass
class PEComponents:
    """Per-PE outcome of the distributed components program."""

    #: Component label (minimum vertex id in the component) per owned vertex.
    labels: np.ndarray
    #: Number of synchronous rounds until the fixpoint.
    rounds: int
    #: Number of distinct components globally.
    num_components: int


def components_program(
    ctx: PEContext, dist: DistGraph
) -> Generator[None, None, PEComponents]:
    """SPMD connected components (run via ``Machine.run``)."""
    lg = dist.view(ctx.rank)
    ghosts = lg.ghost_vertices
    labels = lg.owned_vertices().astype(np.int64).copy()
    ghost_labels = ghosts.copy() if ghosts.size else np.empty(0, dtype=np.int64)

    send_plan = ghost_send_lists(ctx, lg)

    rounds = 0
    while True:
        rounds += 1
        payloads = {
            rank: ((ids, labels[ids - lg.vlo]), 2 * ids.size)
            for rank, ids in send_plan
        }
        msgs = yield from alltoallv_dense(ctx, payloads, tag_label="cc-label")
        for msg in msgs:
            if msg.payload is None:
                continue
            ids, vals = msg.payload
            slots = np.searchsorted(ghosts, ids)
            ghost_labels[slots] = vals
            ctx.charge(ids.size)

        # Relax: label(v) <- min over closed neighborhood.
        nbr = np.empty(lg.adjncy.size, dtype=np.int64)
        local_mask = lg.is_local(lg.adjncy)
        nbr[local_mask] = labels[lg.adjncy[local_mask] - lg.vlo]
        if ghosts.size:
            gm = ~local_mask
            nbr[gm] = ghost_labels[np.searchsorted(ghosts, lg.adjncy[gm])]
        new_labels = labels.copy()
        if lg.adjncy.size:
            mins = np.minimum.reduceat(
                np.concatenate([nbr, [np.iinfo(np.int64).max]]),
                np.minimum(lg.xadj[:-1], nbr.size),
            )
            # reduceat on empty blocks picks the next element; mask them out.
            empty = np.diff(lg.xadj) == 0
            mins[empty] = np.iinfo(np.int64).max
            new_labels = np.minimum(labels, mins)
        ctx.charge(lg.adjncy.size)
        changed = int(np.count_nonzero(new_labels != labels))
        labels = new_labels

        total_changed = yield from allreduce(ctx, changed, lambda a, b: a + b)
        if total_changed == 0:
            break

    # A component's label is its minimum vertex id, which is owned by
    # exactly one PE: count the owned labels that equal their vertex id.
    my_roots = int(np.count_nonzero(labels == lg.owned_vertices()))
    num_components = yield from allreduce(ctx, my_roots, lambda a, b: a + b)
    return PEComponents(labels=labels, rounds=rounds, num_components=int(num_components))
