"""The event-driven scheduler behind :class:`repro.net.machine.Machine`.

Why it exists
-------------
The original machine scheduled its PE generators strict round-robin:
every scheduling round resumed *every* live PE, so a PE blocked on an
empty inbox still cost one generator resumption per round.  At the
paper's scales (p = 2^9 .. 2^15, where most PEs idle through most of a
phase) that made the scheduler itself the bottleneck.  This engine
resumes a PE only when something it is waiting for happens — a message
delivery, a timer, the completion of its outstanding sends — so idle
PEs cost zero and runs with thousands of mostly-idle PEs complete in
time proportional to the *work*, not to ``rounds * p``.

Scheduling disciplines
----------------------
The engine picks one of two disciplines per run:

``compat-heap`` (default: ``Network(model="alpha-beta")``)
    Emulates a strict round-robin schedule *exactly* while skipping
    the no-op polls.  The key observation: resuming a PE that is
    suspended inside ``ctx.recv`` with an empty inbox for its tag is a
    pure no-op — no clock, metric, RNG, or progress-counter change —
    so a schedule that skips exactly those resumptions replays the
    round-robin run bit-identically (same values, same simulated
    times, same fault-plan decision stream, same ``events`` counter).
    The discipline keeps a heap of ``(round, rank)`` pairs: a PE that
    yields while runnable is re-queued for the next round; a PE that
    parks (blocked, empty inbox) leaves the heap until a message for
    its tag arrives, at which point it is re-queued for the current
    round if its turn has not passed yet (sender rank < waker rank)
    and for the next round otherwise — exactly where round-robin would
    have next given it a non-noop resumption.

    Crash events of a :class:`~repro.faults.plan.FaultPlan` are keyed
    by the machine's event counter, and round-robin consults them at
    *every* rank visit, no-op polls included.  Every rank named by a
    ``CrashEvent`` is therefore *watched*: it is never parked, it is
    visited every round in rank order with its crash schedule checked
    before the step, and only the no-op poll itself is skipped.
    Watched ranks keep the heap non-empty, so a round without progress
    in which every live PE is blocked on an empty inbox raises the
    exact deadlock instead.  Fault-free runs watch nothing.

``des`` (``Network(model="contended")``)
    True discrete-event simulation in *time* order: each runnable PE
    has a resume event at its own clock, message deliveries are events
    at their network arrival times (links queue under contention —
    see :mod:`repro.sim.network`), and transport timers (reliable
    retransmissions) are first-class events.  Because delivery is no
    longer instantaneous, programs that terminate a sparse exchange
    with barrier-plus-drain first wait for their own sends to complete
    (``ctx.sync_sends`` — the MPI_Issend/NBX discipline); the
    collectives in :mod:`repro.net.comm` and the aggregation queues do
    this automatically.

Deadlock and livelock
---------------------
Both disciplines detect true deadlock *exactly*: every live PE is
parked on a blocking receive (or on ``sync_sends``) and the event
queue holds nothing that could wake one — then ``DeadlockError`` is
raised immediately with the machine's full per-PE forensics.  A
separate bounded guard catches *livelock* (PEs spinning on bare
``yield``\\ s forever, which no scheduler can distinguish from a long
courtesy-yield sequence): consecutive zero-progress rounds (``compat-heap``,
the same 5-round bound round-robin polling used) or
consecutive zero-progress events (``des``).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable

from .events import (
    PRIORITY_DELIVERY,
    PRIORITY_RESUME,
    PRIORITY_TIMER,
    EventQueue,
)

__all__ = ["EngineStats", "SimEngine", "LIVELOCK_ROUNDS"]

#: Consecutive zero-progress scheduling rounds tolerated before the
#: livelock guard trips (``compat-heap``).  True deadlock never
#: consumes this budget — it is detected exactly, in zero rounds.
LIVELOCK_ROUNDS = 5


@dataclass
class EngineStats:
    """What one engine run cost, in scheduler work (not simulated time)."""

    #: Discipline used: ``compat-heap`` or ``des``.
    discipline: str
    #: Generator resumptions performed (the dominant scheduler cost).
    steps: int = 0
    #: Heap events processed (resumes + deliveries + timers).
    events: int = 0
    #: Parked PEs woken by a matching delivery or send completion.
    wakeups: int = 0
    #: Crashed PEs respawned inside the running engine (localized
    #: recovery; always zero under global restart).
    respawns: int = 0


class SimEngine:
    """One run's event engine; constructed fresh by ``Machine.run``."""

    def __init__(self, machine):
        self.machine = machine
        self.queue = EventQueue()
        p = machine.num_pes
        discipline = "des" if machine.network.model == "contended" else "compat-heap"
        self.discipline = discipline
        self.stats = EngineStats(discipline=discipline)
        #: compat-heap scheduling state.
        self._heap: list[tuple[int, int]] | None = None
        self._parked_compat = [False] * p
        self._round = 0
        self._cur_rank = -1
        #: des scheduling state: ``None`` (runnable/absent), or
        #: ``("recv", tag)`` / ``("sends", None)`` park reasons.
        self._parked_des: list[tuple[str, Any] | None] = [None] * p
        self._gens: list = []
        self._live: set[int] = set()
        self._values: list = []

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, gens, live: set[int], values: list) -> None:
        """Drive the generators to completion (or a detected fault)."""
        self._gens = gens
        self._live = live
        self._values = values
        if self.discipline == "des":
            self._run_des()
        else:
            self._run_compat_heap()

    # ------------------------------------------------------------------
    # Hooks called by the machine / transports
    # ------------------------------------------------------------------
    def on_deliver(self, dest: int, tag) -> None:
        """A message with ``tag`` just entered ``dest``'s inbox."""
        if self._heap is not None:
            self._wake_compat(dest, tag)
        elif self.discipline == "des":
            state = self._parked_des[dest]
            if state is not None and state[0] == "recv" and state[1] == tag:
                self._wake_des(dest)

    def on_sends_settled(self, rank: int) -> None:
        """``rank``'s last in-flight message was delivered (or dropped)."""
        if self.discipline == "des":
            state = self._parked_des[rank]
            if state is not None and state[0] == "sends":
                self._wake_des(rank)

    def post_delivery(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule a message-arrival callback (``des`` discipline)."""
        self.queue.push(time, PRIORITY_DELIVERY, fn)

    def call_at(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule a transport timer / injection callback (``des``)."""
        self.queue.push(time, PRIORITY_TIMER, fn)

    def kill_pe(self, rank: int) -> None:
        """Crash-stop ``rank`` in place (localized recovery, ``des``).

        The generator is closed — ``GeneratorExit`` unwinds its open
        ``ctx.span`` blocks, recording truncated spans at the
        crash-time clock — and the rank leaves the live set.  Deliveries
        addressed to it still land in its inbox (cleared at respawn;
        the transport's send logs cover re-delivery), but it is never
        resumed: pending resume events find it outside ``_live``.
        """
        self._live.discard(rank)
        self._parked_des[rank] = None
        gen = self._gens[rank]
        if gen is not None:
            gen.close()

    def respawn_pe(self, rank: int, gen, time: float) -> None:
        """Rejoin ``rank`` with a fresh generator at simulated ``time``.

        The recovery manager calls this after restoring the rank's
        checkpoint replica and scheduling the logged re-deliveries; the
        first resume is a normal PE step at the post-recovery clock
        (deliveries scheduled at the same time fire first —
        ``PRIORITY_DELIVERY`` precedes ``PRIORITY_RESUME``).
        """
        self._gens[rank] = gen
        self._parked_des[rank] = None
        self._live.add(rank)
        self.stats.respawns += 1
        self._schedule_resume(rank, max(time, self.queue.now))

    # ------------------------------------------------------------------
    # compat-heap: round-robin emulation without the no-op polls
    # ------------------------------------------------------------------
    def _run_compat_heap(self) -> None:
        from ..net.machine import DeadlockError, PECrashError

        machine = self.machine
        contexts = machine._contexts
        live = self._live
        gens = self._gens
        values = self._values
        plan = machine.fault_plan
        # Ranks with a scheduled crash are *watched*: round-robin
        # consulted the crash schedule at every rank visit, no-op polls
        # included, so these ranks are never parked and are visited
        # every round.  Empty on fault-free runs.
        watched = {c.rank for c in plan.crashes} if plan is not None else set()
        # Round 0 starts with every PE runnable, in rank order — the
        # list is already a valid heap.
        heap: list[tuple[int, int]] = [(0, r) for r in range(machine.num_pes)]
        self._heap = heap
        parked = self._parked_compat
        idle_rounds = 0
        round_progress = machine._progress
        while heap:
            rnd, rank = heappop(heap)
            self.stats.events += 1
            if rnd > self._round:
                # Round boundary: replicate the round-robin scheduler's
                # livelock accounting (parked polls contribute no
                # progress there either, so the counts agree).
                if machine._progress == round_progress:
                    if watched and all(self._blocked(r) for r in live):
                        # Watched ranks keep the heap non-empty, so the
                        # exact-deadlock test below never runs for them.
                        raise DeadlockError(
                            machine._deadlock_diagnostic(
                                live, self._deadlock_reason(live)
                            )
                        )
                    idle_rounds += 1
                    if idle_rounds >= LIVELOCK_ROUNDS:
                        raise DeadlockError(
                            machine._deadlock_diagnostic(
                                live, self._livelock_reason(idle_rounds)
                            )
                        )
                else:
                    idle_rounds = 0
                self._round = rnd
                round_progress = machine._progress
            if rank not in live:
                continue
            if rank in watched:
                if plan.crash_due(rank, machine._progress):
                    raise PECrashError(rank, machine._progress)
                if self._blocked(rank):
                    heappush(heap, (rnd + 1, rank))
                    continue
            self._cur_rank = rank
            self.stats.steps += 1
            try:
                next(gens[rank])
            except StopIteration as stop:
                values[rank] = stop.value
                live.discard(rank)
                machine._note_progress()
                continue
            ctx = contexts[rank]
            tag = ctx._blocked_tag
            if tag is not None and not ctx._inbox.get(tag) and rank not in watched:
                # Resuming this PE again would be a no-op poll: park it
                # until a message for its tag arrives.
                parked[rank] = True
            else:
                heappush(heap, (rnd + 1, rank))
        if live:
            # Exact detection: the ready heap is empty, so every live
            # PE is parked on an empty inbox and nothing in the machine
            # can wake one — what the round-robin scheduler only
            # concluded after its idle-round grace period.
            raise DeadlockError(
                machine._deadlock_diagnostic(live, self._deadlock_reason(live))
            )

    def _blocked(self, rank: int) -> bool:
        """``rank`` waits in ``recv`` on a tag its inbox does not hold."""
        ctx = self.machine._contexts[rank]
        tag = ctx._blocked_tag
        return tag is not None and not ctx._inbox.get(tag)

    def _wake_compat(self, dest: int, tag) -> None:
        if not self._parked_compat[dest]:
            return
        ctx = self.machine._contexts[dest]
        if ctx._blocked_tag != tag:
            return
        self._parked_compat[dest] = False
        self.stats.wakeups += 1
        # Round-robin placement: if the waker's rank precedes the woken
        # PE's, the woken PE's turn in the current round is still ahead.
        rnd = self._round if dest > self._cur_rank else self._round + 1
        heappush(self._heap, (rnd, dest))

    # ------------------------------------------------------------------
    # des: time-ordered discrete-event execution (contended network)
    # ------------------------------------------------------------------
    def _run_des(self) -> None:
        from ..net.machine import DeadlockError

        machine = self.machine
        live = self._live
        for rank in range(machine.num_pes):
            self._schedule_resume(rank, 0.0)
        manager = machine._recovery_manager
        if manager is not None:
            manager.start(self)
        plan = machine.fault_plan
        if plan is not None:
            for index, crash in enumerate(plan.crash_at_time):
                self.call_at(
                    crash.at_time,
                    lambda i=index, c=crash: self._fire_timed_crash(i, c),
                )
        noop_events = 0
        noop_bound = max(256, 16 * machine.num_pes)
        while True:
            ev = self.queue.pop()
            if ev is None:
                break
            self.stats.events += 1
            before = machine._progress
            ev.fn()
            if machine._progress == before:
                noop_events += 1
                if noop_events >= noop_bound and live:
                    raise DeadlockError(
                        machine._deadlock_diagnostic(
                            live,
                            f"no machine progress across {noop_events} consecutive "
                            f"engine events (livelock guard)",
                        )
                    )
            else:
                noop_events = 0
        if live:
            raise DeadlockError(
                machine._deadlock_diagnostic(live, self._deadlock_reason(live))
            )

    def _fire_timed_crash(self, index: int, crash) -> None:
        """A :class:`~repro.faults.plan.TimedCrash` timer fired."""
        from ..net.machine import PECrashError

        machine = self.machine
        if not machine.fault_plan.claim_timed(index):
            return
        if crash.rank not in self._live:
            # The rank finished (or already crashed) before the
            # scheduled time; a dead PE cannot crash again.
            return
        manager = machine._recovery_manager
        if manager is not None:
            manager.on_crash(crash.rank)
            return
        raise PECrashError(crash.rank, machine._progress)

    def _schedule_resume(self, rank: int, time: float) -> None:
        self.queue.push(time, PRIORITY_RESUME, lambda: self._step_des(rank))

    def _wake_des(self, rank: int) -> None:
        self._parked_des[rank] = None
        self.stats.wakeups += 1
        clock = self.machine._contexts[rank].metrics.clock
        self._schedule_resume(rank, max(clock, self.queue.now))

    def _step_des(self, rank: int) -> None:
        from ..net.machine import PECrashError

        machine = self.machine
        if rank not in self._live:
            return
        plan = machine.fault_plan
        if plan is not None and plan.crash_due(rank, machine._progress):
            manager = machine._recovery_manager
            if manager is not None:
                manager.on_crash(rank)
                return
            raise PECrashError(rank, machine._progress)
        self.stats.steps += 1
        try:
            next(self._gens[rank])
        except StopIteration as stop:
            self._values[rank] = stop.value
            self._live.discard(rank)
            machine._note_progress()
            return
        ctx = machine._contexts[rank]
        tag = ctx._blocked_tag
        if tag is not None and not ctx._inbox.get(tag):
            self._parked_des[rank] = ("recv", tag)
        elif ctx._blocked_sends and machine._in_flight[rank] > 0:
            self._parked_des[rank] = ("sends", None)
        else:
            self._parked_des[rank] = None
            self._schedule_resume(rank, ctx.metrics.clock)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def _deadlock_reason(self, live: set[int]) -> str:
        return (
            f"exact deadlock: all {len(live)} live PE(s) are blocked and the "
            f"engine's event queue is empty — nothing in the machine can wake "
            f"them"
        )

    @staticmethod
    def _livelock_reason(idle_rounds: int) -> str:
        return (
            f"no progress in {idle_rounds} consecutive scheduler rounds "
            f"(livelock guard: some PE keeps yielding without ever blocking, "
            f"charging, or communicating)"
        )
