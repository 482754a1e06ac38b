"""Distributed connected components by label propagation.

A second demonstration (next to :mod:`repro.core.kcore`) that the
machine substrate hosts general vertex-centric analytics: every vertex
holds a component label initialized to its own id; each synchronous
round exchanges interface labels with neighbor PEs (the halo exchange
:func:`~repro.core.preprocessing.exchange_ghost_values`) and relaxes

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
from ..net.comm import allreduce
from ..net.machine import PEContext
from .preprocessing import exchange_ghost_values, ghost_send_lists

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
    labels = lg.owned_vertices()

    send_plan = ghost_send_lists(ctx, lg)
    slots = lg.adj_slots()
    rows = np.repeat(np.arange(lg.num_local_vertices), lg.degrees)

    rounds = 0
    while True:
        rounds += 1
        ghost_labels = yield from exchange_ghost_values(ctx, lg, send_plan, labels, "cc-label")

        # Relax: label(v) <- min over closed neighborhood.
        new_labels = labels.copy()
        np.minimum.at(new_labels, rows, lg.by_slot(labels, ghost_labels)[slots])
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
