"""Coordinated checkpoint/restart for simulated SPMD runs.

The counting pipeline has natural phase boundaries (Lemma 1's
decomposition: preprocessing → local counting → contraction → global
counting).  Fault-tolerant programs bracket each phase with

.. code-block:: python

    state = ctx.restore("local")
    if state is None:
        state = ...compute the phase...
        ctx.checkpoint("local", state)

so that after a crash-stop the run is re-executed from the start but
every phase up to the last *globally stable* checkpoint is replayed
from its snapshot instead of recomputed — only the lost phase runs
again.

Consistency
-----------
Restart safety hinges on all PEs agreeing on which phases replay: if
one PE restored "local" while a peer recomputed it, the recomputing
peer would re-send messages the restorer never receives (or vice
versa) and the machine would deadlock.  :meth:`CheckpointStore.
prune_to_stable` enforces agreement by discarding everything beyond
the longest snapshot prefix shared by *all* ranks — the simulated
analogue of coordinated (Chandy–Lamport-style) checkpointing, where a
checkpoint only counts once every rank has written it.

Costs
-----
Writing and reading snapshots is charged to the alpha-beta model like
messaging stable storage (``alpha + beta * state_words``), so
checkpoint cadence is visible in simulated time.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

import numpy as np

from ..net.machine import Machine, MachineResult, PECrashError

__all__ = [
    "BuddyCheckpointStore",
    "CheckpointStore",
    "RecoveryResult",
    "run_with_recovery",
    "state_words",
]


def state_words(state: Any) -> int:
    """Size of a snapshot in machine words (cost-model currency).

    Numpy arrays count their elements; containers count their items
    recursively; scalars and everything unsized count one word.  The
    estimate only needs to be deterministic and roughly proportional
    to the real serialization size.
    """
    if isinstance(state, np.ndarray):
        return max(1, int(state.size))
    if isinstance(state, dict):
        return max(1, sum(1 + state_words(v) for v in state.values()))
    if isinstance(state, (list, tuple, set, frozenset)):
        return max(1, sum(state_words(v) for v in state))
    return 1


class CheckpointStore:
    """Per-rank ordered snapshot lists with stable-prefix pruning.

    One store outlives the :class:`~repro.net.machine.Machine` runs it
    serves: :func:`run_with_recovery` keeps it across restart attempts
    so re-executions find the surviving snapshots.  Snapshots are
    deep-copied on the way in *and* out — a program mutating restored
    state cannot corrupt the stored copy a later restart will need.
    """

    #: Whether snapshots are replicated to a partner rank (the buddy
    #: scheme localized recovery restores from).  Plain stores are
    #: stable-storage only; ``Machine(recovery="localized")`` rejects
    #: them (lint rule R14 flags it statically).
    supports_partner_replication = False

    def __init__(self, num_pes: int):
        if num_pes < 1:
            raise ValueError("need at least one PE")
        self._snaps: list[list[tuple[str, Any, int]]] = [[] for _ in range(num_pes)]
        self._cursors: list[int] = [0] * num_pes

    @property
    def num_pes(self) -> int:
        """Number of ranks the store tracks."""
        return len(self._snaps)

    def begin_run(self) -> None:
        """Rewind every rank's replay cursor (called by ``Machine.run``)."""
        self._cursors = [0] * len(self._snaps)

    def names(self, rank: int) -> list[str]:
        """Snapshot names of ``rank`` in checkpoint order."""
        return [name for name, _, _ in self._snaps[rank]]

    def save(self, rank: int, name: str, state: Any) -> int:
        """Store a snapshot; returns its size in words (for costing).

        Anything the rank had checkpointed beyond its current replay
        position belongs to an abandoned execution and is truncated —
        the re-run's snapshots supersede it.
        """
        if state is None:
            raise ValueError("checkpoint state must not be None")
        snaps = self._snaps[rank]
        cursor = self._cursors[rank]
        del snaps[cursor:]
        words = state_words(state)
        snaps.append((name, copy.deepcopy(state), words))
        self._cursors[rank] = cursor + 1
        return words

    def load(self, rank: int, name: str) -> tuple[Any, int] | None:
        """Replay the next snapshot if it is named ``name``.

        Returns ``(state, words)`` and advances the rank's cursor, or
        ``None`` when the stable prefix is exhausted (or names
        mismatch, which means the program's phase structure changed —
        the phase is then recomputed and re-checkpointed).
        """
        snaps = self._snaps[rank]
        cursor = self._cursors[rank]
        if cursor < len(snaps) and snaps[cursor][0] == name:
            _, state, words = snaps[cursor]
            self._cursors[rank] = cursor + 1
            return copy.deepcopy(state), words
        return None

    def prune_to_stable(self) -> int:
        """Discard snapshots past the longest all-ranks-agree prefix.

        Returns the stable prefix length.  After pruning, every rank
        holds the same sequence of snapshot *names*, so a restarted
        run replays the same phases on every PE — the property that
        keeps the SPMD message pattern consistent across a restart.
        """
        depth = min((len(s) for s in self._snaps), default=0)
        stable = 0
        for i in range(depth):
            names = {s[i][0] for s in self._snaps}
            if len(names) != 1:
                break
            stable = i + 1
        for snaps in self._snaps:
            del snaps[stable:]
        return stable


class BuddyCheckpointStore(CheckpointStore):
    """Checkpoints with partner replication (localized recovery).

    Each rank's snapshots are also held by a *partner* rank at offset
    ``partner_offset`` (mod p) — the simulated analogue of buddy
    checkpointing, where recovery state survives a single failure
    without a global stable-storage round.  ``ctx.checkpoint`` prices
    the replica shipment as a real message (both endpoints pay
    ``alpha + beta * words``), and localized recovery restores a
    crashed rank from :meth:`replica_words` worth of partner data
    instead of re-reading global storage.

    The store itself keeps one authoritative copy per rank (this is a
    simulation — the partner's replica is the *cost* of the scheme,
    not a second data structure); what the buddy discipline changes is
    who pays, and that a respawned rank can rewind alone:
    :meth:`respawn_rank` resets one cursor where the coordinated
    :meth:`prune_to_stable` would have discarded every rank's tail.
    Simultaneous failure of a rank *and* its partner is out of scope
    (it would need a second replica level).
    """

    supports_partner_replication = True

    def __init__(self, num_pes: int, *, partner_offset: int = 1):
        super().__init__(num_pes)
        if num_pes > 1 and partner_offset % num_pes == 0:
            raise ValueError(
                "partner_offset must not map a rank onto itself (mod num_pes)"
            )
        self.partner_offset = int(partner_offset)

    def partner_of(self, rank: int) -> int:
        """The rank holding ``rank``'s checkpoint replicas."""
        return (rank + self.partner_offset) % self.num_pes

    def replica_words(self, rank: int) -> int:
        """Words the partner ships to restore ``rank`` (all snapshots)."""
        return sum(words for _, _, words in self._snaps[rank])

    def respawn_rank(self, rank: int) -> None:
        """Rewind one rank's replay cursor for an in-place respawn.

        Localized recovery's counterpart of :meth:`begin_run`: only
        the crashed rank re-executes, so only its cursor rewinds —
        survivors' cursors (already past their snapshots) are
        untouched, and no global stable-prefix pruning is needed.
        """
        self._cursors[rank] = 0


@dataclass
class RecoveryResult:
    """A completed run plus the crash/restart history that produced it."""

    result: MachineResult
    #: Number of restarts (0 = the first attempt succeeded).
    restarts: int
    #: ``(rank, event_index)`` of each crash, in order.
    crashes: tuple[tuple[int, int], ...] = field(default=())
    #: Simulated makespan of each *aborted* attempt at the moment its
    #: crash fired — the work global restart throws away.
    attempt_times: tuple[float, ...] = field(default=())

    @property
    def values(self) -> list[Any]:
        """Per-PE return values of the surviving run."""
        return self.result.values

    @property
    def time(self) -> float:
        """Modelled running time of the surviving run."""
        return self.result.time

    @property
    def lost_time(self) -> float:
        """Simulated seconds spent on attempts that were thrown away."""
        return sum(self.attempt_times)

    @property
    def total_time(self) -> float:
        """Cumulative simulated cost across *all* attempts.

        ``lost_time + time`` — what the machine actually paid for the
        answer, as opposed to :attr:`time`, which only prices the
        surviving run and silently hides the cost of global restarts.
        This is the number localized recovery competes against in
        ``benchmarks/bench_recovery.py``.
        """
        return self.lost_time + self.result.time


def run_with_recovery(
    machine: Machine,
    program: Callable[..., Generator[None, None, Any]],
    /,
    *args,
    max_restarts: int = 8,
    **kwargs,
) -> RecoveryResult:
    """Run ``program`` to completion, restarting after PE crash-stops.

    Drives ``machine.run`` in a loop: a :class:`PECrashError` aborts
    the attempt, the checkpoint store is pruned to its globally stable
    prefix, and the program is re-executed — restored phases replay
    from snapshots, the lost phase recomputes.  The machine's fault
    plan keeps its state across attempts, so each scheduled crash
    fires exactly once and the re-run proceeds past it.

    If the machine has no checkpoint store, one is attached (restarts
    then re-run the whole program — correct, just without the saved
    work).
    """
    if machine.checkpoint_store is None:
        machine.checkpoint_store = CheckpointStore(machine.num_pes)
    store = machine.checkpoint_store
    crashes: list[tuple[int, int]] = []
    attempt_times: list[float] = []
    while True:
        store.prune_to_stable()
        try:
            result = machine.run(program, *args, **kwargs)
        except PECrashError as crash:
            crashes.append((crash.rank, crash.event))
            # The aborted attempt's cost is its makespan at the crash:
            # every PE ran (and is thrown away) up to that point.
            attempt_times.append(
                max((c.metrics.clock for c in machine._contexts), default=0.0)
            )
            if len(crashes) > max_restarts:
                raise
            continue
        return RecoveryResult(
            result=result,
            restarts=len(crashes),
            crashes=tuple(crashes),
            attempt_times=tuple(attempt_times),
        )
