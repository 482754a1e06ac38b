"""The simulated distributed-memory machine.

``p`` PEs execute SPMD programs written as Python *generators*: a
program does local work, posts messages, and ``yield``\\ s whenever it
wants the rest of the machine to make progress (the moral equivalent of
the paper's "each PE continuously polls for incoming messages").  The
:class:`Machine` is a thin façade over the event engine in
:mod:`repro.sim`: PE generators are resumed by *events* (message
delivery, timer expiry, send completion), so a PE blocked on an empty
inbox costs nothing and runs with thousands of mostly-idle PEs stay
fast.  Under the (default) alpha-beta network model the engine replays
a strict round-robin polling schedule bit-identically — see
``docs/SIMULATION.md``.

Time is *modelled*, not measured: each PE owns a simulated clock that
advances by ``flop_time`` per charged local operation and by
``alpha + beta * l`` per message endpoint, per the cost model of
Section II-B.  Messages carry the sender's completion time; consuming a
message fast-forwards the receiver's clock to at least that timestamp
(causal ordering).  The modelled running time of a run is the maximum
final clock over PEs — the same "slowest processor" notion as the
paper's measured wall times.

Determinism: scheduling is a pure function of the deterministic event
order (see :mod:`repro.sim.events`), inboxes are FIFO per (tag) class,
and nothing consults real time or unseeded randomness, so a run is a
pure function of (program, inputs, spec, network, fault plan).

Writing programs
----------------
A *program factory* is ``factory(ctx, **kwargs) -> generator``.  Inside
the generator:

* ``ctx.charge(ops[, phase])`` — account local work;
* ``ctx.send(dest, tag, payload, words)`` — non-blocking send;
* ``ctx.try_recv(tag)`` — non-blocking receive (``None`` if empty);
* ``ctx.send_many(dests, tag, payloads, words)`` and
  ``ctx.recv_many(tag, count=None)`` — the same for a batch;
* ``yield from ctx.recv(tag)`` — blocking receive;
* ``yield`` — bare progress point inside long local sections;
* ``return value`` — the PE's result, collected by ``Machine.run``.

Collectives (barrier, allreduce, alltoallv, sparse all-to-all) live in
:mod:`repro.net.comm` and are used with ``yield from``.

A batch saves host work only: ``send_many``/``recv_many`` still build
one :class:`Message` per simulated message and account each exactly
like ``send``/``try_recv``, their one-message cases (see
``docs/SIMULATION.md``).
"""

from __future__ import annotations

import os
from collections import defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Generator, Sequence

from ..sim.engine import EngineStats, SimEngine
from ..sim.network import Network, NetworkStats
from .costmodel import DEFAULT_SPEC, MachineSpec
from .messages import Message, Tag
from .metrics import PEMetrics, RunMetrics
from .reliable import LossyTransport, ReliableConfig, ReliableTransport
from .trace import SpanRecord

__all__ = [
    "Machine",
    "PEContext",
    "MachineResult",
    "DeadlockError",
    "OutOfMemoryError",
    "PECrashError",
    "ProtocolError",
]


class DeadlockError(RuntimeError):
    """All live PEs are idle, no messages are pending — nothing can progress."""


class PECrashError(RuntimeError):
    """A PE crash-stopped per the machine's fault plan.

    The whole run aborts (crash-stop, not fail-slow): on a real
    machine the survivors would detect the failure and re-launch from
    the last checkpoint, which is exactly what
    :func:`repro.core.checkpoint.run_with_recovery` does with this
    exception.
    """

    def __init__(self, rank: int, event: int):
        super().__init__(
            f"PE {rank} crash-stopped at machine event {event} (fault plan)"
        )
        self.rank = rank
        self.event = event


class ProtocolError(RuntimeError):
    """The SPMD protocol contract was violated.

    Raised only when the machine runs with ``protocol_check=True``:
    either two PEs entered different collectives at the same position of
    their collective-entry sequence (collective-order divergence — the
    bug class that deadlocks or silently miscounts on a real MPI
    machine), messages were still undelivered when every program had
    returned (send/recv conservation failure), or some send did not
    settle its sender's in-flight count exactly once.  See
    ``docs/SPMD_CONTRACT.md`` for the full contract.
    """


class OutOfMemoryError(RuntimeError):
    """A PE exceeded the per-PE memory budget of the machine spec.

    Raised by algorithms with static buffering (the TriC-like baseline)
    to reproduce the out-of-memory failures the paper reports.
    """


class PEContext:
    """Per-PE handle: clock, counters, message endpoints.

    Instances are created by :class:`Machine`; programs receive one and
    must not touch any other PE's context (that would be shared-memory
    cheating — the tests patrol this by construction of the API).
    """

    def __init__(self, rank: int, num_pes: int, spec: MachineSpec, machine: "Machine"):
        self.rank = rank
        self.num_pes = num_pes
        self.spec = spec
        self.metrics = PEMetrics(rank=rank)
        self._machine = machine
        self._inbox: dict[Tag, deque[Message]] = defaultdict(deque)
        self._collective_seq = 0
        self._phase_stack: list[tuple[str, float]] = []
        #: Tag this PE is currently blocked on inside ``recv`` (deadlock
        #: diagnostics); ``None`` while the PE is making progress.
        self._blocked_tag: Tag | None = None
        #: True while this PE is suspended inside ``sync_sends`` waiting
        #: for its in-flight messages to finish delivery (contended
        #: network model only; instant delivery never sets it).
        self._blocked_sends: bool = False
        #: Straggler factor (>= 1) multiplying every charged cost;
        #: set from the machine's fault plan, 1.0 on healthy PEs.
        self._slowdown: float = 1.0

    # ------------------------------------------------------------------
    # Clock / work accounting
    # ------------------------------------------------------------------
    @property
    def clock(self) -> float:
        """This PE's simulated time in seconds."""
        return self.metrics.clock

    def charge(self, ops: int) -> None:
        """Account ``ops`` local operations (merge comparisons etc.)."""
        if ops < 0:
            raise ValueError("ops must be non-negative")
        self.metrics.local_ops += int(ops)
        self.metrics.clock += self._slowdown * self.spec.compute_time(int(ops))
        self._machine._note_progress()

    def charge_time(self, seconds: float) -> None:
        """Advance the clock directly (hybrid-executor support)."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        self.metrics.clock += self._slowdown * seconds
        self._machine._note_progress()

    @contextmanager
    def span(self, name: str):
        """Structured tracing: attribute the block's simulated time to ``name``.

        Spans nest (each records its own full interval, so an outer span
        covers its children), charge nothing, and record a
        :class:`~repro.net.trace.SpanRecord` carrying the nesting depth
        and a compute/communication/wait/retransmit decomposition of the
        interval — the raw material for the exporters and the phase
        profiler in :mod:`repro.obs`.

        Protocol contract (lint rule R6): open spans only as
        ``with ctx.span("label")`` where the label is a rank-invariant
        string literal — a span that is opened but never closed, or
        whose label differs across ranks, breaks trace merging.
        """
        m = self.metrics
        start = m.clock
        comm0 = m.comm_seconds
        wait0 = m.wait_seconds
        retr0 = m.retransmit_seconds
        rec0 = m.recovery_seconds
        depth = len(self._phase_stack)
        self._phase_stack.append((name, start))
        try:
            yield
        finally:
            self._phase_stack.pop()
            end = m.clock
            m.phase_times[name] += end - start
            m.spans.append(
                SpanRecord(
                    rank=self.rank,
                    name=name,
                    start=start,
                    end=end,
                    depth=depth,
                    comm_time=m.comm_seconds - comm0,
                    wait_time=m.wait_seconds - wait0,
                    retransmit_time=m.retransmit_seconds - retr0,
                    recovery_time=m.recovery_seconds - rec0,
                )
            )

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, dest: int, tag: Tag, payload: Any, words: int) -> None:
        """Non-blocking send; the sender pays ``alpha + beta * words`` now.

        Matches the paper's use of non-blocking MPI sends: the cost of
        injecting the message is charged to the sender, and the message
        becomes visible to the receiver no earlier than the sender's
        post-send clock.  A one-message :meth:`send_many`.
        """
        self.send_many((dest,), tag, (payload,), (words,))

    def send_many(
        self, dests: Sequence[int], tag: Tag, payloads: Sequence[Any], words: Sequence[int]
    ) -> None:
        """Send ``payloads[i]`` of ``words[i]`` words to ``dests[i]``, in order.

        Accounted exactly like one :meth:`send` per message, but the whole
        batch is checked before anything is charged.  Under instant
        direct delivery the batch lands in one machine call; a wire
        transport may charge this PE between two messages, so there (and
        under the contended network) each message is handed over before
        the next one is charged.
        """
        if not len(dests) == len(payloads) == len(words):
            raise ValueError("send_many needs one payload and one size per destination")
        bad = [dest for dest in dests if not 0 <= dest < self.num_pes]
        if bad:
            raise ValueError(f"invalid destination rank {bad[0]}")
        if min(words, default=0) < 0:
            raise ValueError("words must be non-negative")
        machine, m, rank = self._machine, self.metrics, self.rank
        tracer, slowdown, message_time = machine.tracer, self._slowdown, self.spec.message_time
        batch = [] if machine._wire is None and machine._in_flight is None else None
        clock, comm, total = m.clock, m.comm_seconds, 0
        for dest, payload, w in zip(dests, payloads, words):
            w = int(w)
            dt = slowdown * message_time(w)
            clock += dt
            comm += dt
            total += w
            msg = Message(rank, dest, tag, payload, w, clock)
            if tracer is not None:
                tracer.send(clock, rank, dest, tag, w)
            if batch is not None:
                batch.append(msg)
                continue
            m.clock, m.comm_seconds = clock, comm
            machine._transmit(msg)
            clock, comm = m.clock, m.comm_seconds
        m.clock, m.comm_seconds = clock, comm
        m.messages_sent += len(words)
        m.words_sent += total
        if batch:
            machine._land_many(batch)

    def try_recv(self, tag: Tag) -> Message | None:
        """Consume the oldest pending message with ``tag``, if any.

        Consuming pays the receiver-side ``alpha + beta * words`` and
        fast-forwards the clock to the message's causal timestamp.  A
        one-message :meth:`recv_many`.
        """
        got = self.recv_many(tag, 1)
        return got[0] if got else None

    def recv_many(self, tag: Tag, count: int | None = None) -> list[Message]:
        """Consume up to ``count`` (default: all) pending ``tag`` messages,
        oldest first, each accounted exactly like one :meth:`try_recv`."""
        q = self._inbox.get(tag)
        n = len(q) if q else 0
        if count is not None:
            n = min(n, count)
        if n <= 0:
            return []
        got = [q.popleft() for _ in range(n)]
        machine, m, rank = self._machine, self.metrics, self.rank
        tracer, slowdown, message_time = machine.tracer, self._slowdown, self.spec.message_time
        clock, comm, wait, total = m.clock, m.comm_seconds, m.wait_seconds, 0
        for msg in got:
            machine._note_consumed(msg)
            if msg.send_time > clock:
                wait += msg.send_time - clock
                clock = msg.send_time
            dt = slowdown * message_time(msg.words)
            clock += dt
            comm += dt
            total += msg.words
            if tracer is not None:
                tracer.recv(clock, rank, msg.src, msg.tag, msg.words)
        m.clock, m.comm_seconds, m.wait_seconds = clock, comm, wait
        m.messages_received += n
        m.words_received += total
        machine._note_progress(n)
        return got

    def recv(self, tag: Tag) -> Generator[None, None, Message]:
        """Blocking receive: poll (yielding) until a message arrives."""
        while True:
            msg = self.try_recv(tag)
            if msg is not None:
                self._blocked_tag = None
                return msg
            self._blocked_tag = tag
            yield

    def pending(self, tag: Tag) -> int:
        """Number of queued messages with ``tag`` (no cost)."""
        q = self._inbox.get(tag)
        return len(q) if q else 0

    def sync_sends(self) -> Generator[None, None, None]:
        """Block until every send this PE has posted finished delivery.

        The MPI_Issend / NBX discipline: under the contended network
        model a posted message is *in flight* until its delivery event
        fires, so a program about to conclude an exchange with
        barrier-plus-drain must first wait for its own sends to land
        (otherwise a peer can pass the barrier and drain before a
        slow-link message arrives).  The collectives in
        :mod:`repro.net.comm` and the aggregation queues call this
        automatically.  Under instant delivery (the alpha-beta model,
        ``ProcessMachine``) there is nothing in flight and this yields
        zero times and adds no scheduling step.
        """
        machine = self._machine
        while True:
            in_flight = machine._in_flight
            if in_flight is None or in_flight[self.rank] <= 0:
                break
            self._blocked_sends = True
            yield
        self._blocked_sends = False

    def enter_collective(self, label: str = "collective") -> int:
        """Monotone per-PE counter keying collective operations.

        All PEs enter collectives in the same program order (an MPI
        requirement the algorithms obey), so equal counters identify
        the same logical collective across PEs.  ``label`` names the
        collective for protocol checking: with ``protocol_check=True``
        the machine cross-validates that every PE's n-th collective
        entry carries the same label and raises :class:`ProtocolError`
        naming the diverging ranks otherwise.
        """
        self._collective_seq += 1
        self._machine._note_collective_entry(self.rank, self._collective_seq, label)
        return self._collective_seq

    # ------------------------------------------------------------------
    # Checkpoint / restart (coordinated, phase-boundary)
    # ------------------------------------------------------------------
    def checkpoint(self, name: str, state: Any) -> bool:
        """Snapshot ``state`` under ``name`` at a phase boundary.

        No-op (returns ``False``) unless the machine carries a
        :class:`repro.core.checkpoint.CheckpointStore`.  Writing the
        snapshot is charged like sending its size to stable storage
        (``alpha + beta * words``), so checkpoint cadence shows up in
        simulated time.  Snapshots taken by one run become restorable
        only after :meth:`CheckpointStore.prune_to_stable` declares
        them globally consistent — programs never observe a checkpoint
        that some other PE missed.
        """
        store = self._machine.checkpoint_store
        if store is None:
            return False
        words = store.save(self.rank, name, state)
        self.metrics.clock += self._slowdown * self.spec.message_time(words)
        if store.supports_partner_replication:
            mate = store.partner_of(self.rank)
            contexts = self._machine._contexts
            if mate != self.rank and contexts:
                # Buddy scheme: the snapshot is also shipped to the
                # partner rank as a real message — both endpoints pay,
                # so replication cadence shows up in simulated time.
                ship = self.spec.message_time(words)
                self.metrics.clock += self._slowdown * ship
                self.metrics.comm_seconds += self._slowdown * ship
                buddy = contexts[mate]
                bdt = buddy._slowdown * ship
                buddy.metrics.clock += bdt
                buddy.metrics.comm_seconds += bdt
        self._machine._note_checkpoint(self.rank)
        self._machine._note_progress()
        return True

    def restore(self, name: str) -> Any | None:
        """Return the next stable snapshot if it is named ``name``.

        ``None`` means "no checkpoint here — compute the phase".
        Snapshots replay strictly in the order they were taken, so a
        program that brackets each phase with
        ``state = ctx.restore(phase) or compute-and-checkpoint`` re-runs
        exactly the phases that follow the last globally stable
        checkpoint.  Reading a snapshot back is charged like receiving
        its size from stable storage.
        """
        store = self._machine.checkpoint_store
        if store is None:
            return None
        hit = store.load(self.rank, name)
        if hit is None:
            return None
        state, words = hit
        self.metrics.clock += self._slowdown * self.spec.message_time(words)
        self._machine._note_progress()
        return state

    def check_memory(self, words: int, *, what: str = "buffer") -> None:
        """Raise :class:`OutOfMemoryError` if ``words`` exceeds the budget."""
        if words > self.spec.memory_words:
            raise OutOfMemoryError(
                f"PE {self.rank}: {what} of {words} words exceeds the "
                f"per-PE budget of {self.spec.memory_words} words"
            )


@dataclass
class MachineResult:
    """Everything a simulated run produced."""

    #: Per-PE return values of the SPMD program.
    values: list[Any]
    metrics: RunMetrics
    #: Final value of the machine's monotone event counter — the
    #: coordinate system of :class:`repro.faults.plan.CrashEvent`
    #: schedules (a fault-free dry run measures it, then a crash can
    #: be planted at any fraction of the run).
    events: int = 0
    #: Scheduler-work accounting from the event engine (always set by
    #: :class:`Machine`; ``None`` from ``ProcessMachine``, which runs
    #: no engine).
    engine: EngineStats | None = None
    #: Link occupancy totals (``None`` under the flat alpha-beta model,
    #: which has no links to contend for).
    network: NetworkStats | None = None
    #: What localized recovery did during the run — membership events,
    #: replayed-message and restored-word totals (``None`` under
    #: ``recovery="global"``).
    recovery: Any | None = None

    @property
    def time(self) -> float:
        """Modelled running time (slowest PE)."""
        return self.metrics.makespan


class Machine:
    """``p`` PE programs with message passing over a simulated network.

    Parameters
    ----------
    num_pes:
        Number of simulated PEs.
    spec:
        Cost-model constants (alpha, beta, flop time, memory budget).
    network:
        :class:`repro.sim.network.Network` deciding message arrival
        times.  Defaults to ``Network(model="alpha-beta")`` — the flat
        uncontended compatibility model this repo has always used.
        ``Network(model="contended")`` adds link-level queueing.
    tracer:
        Optional :class:`repro.net.trace.Tracer` receiving all events.
    protocol_check:
        Opt-in runtime verification of the SPMD protocol contract
        (``docs/SPMD_CONTRACT.md``): every PE must enter the same
        collectives in the same order, and no message may remain
        undelivered at teardown.  Violations raise
        :class:`ProtocolError` with a diagnostic naming the diverging
        ranks and collectives.  ``None`` (the default) reads the
        ``REPRO_PROTOCOL_CHECK`` environment variable — the test suite
        sets it so every simulated run is verified.
    fault_plan:
        Optional :class:`repro.faults.plan.FaultPlan`; the machine
        consults it at every send (message faults), scheduling step
        (crash-stops), and cost charge (stragglers).
    transport:
        ``"direct"`` (fault-free fast path), ``"reliable"``
        (:class:`repro.net.reliable.ReliableTransport` — repairs all
        message faults, charging the repair costs), or ``"lossy"``
        (:class:`repro.net.reliable.LossyTransport` — faults reach the
        program).  Defaults to ``"reliable"`` when a fault plan is
        given, else ``"direct"``.
    reliable_config:
        :class:`repro.net.reliable.ReliableConfig` protocol tunables
        for the reliable transport.
    checkpoint_store:
        Optional :class:`repro.core.checkpoint.CheckpointStore`
        backing ``ctx.checkpoint`` / ``ctx.restore``; usually supplied
        by :func:`repro.core.checkpoint.run_with_recovery`.
    recovery:
        ``"global"`` (default — a fault-plan crash aborts the run with
        :class:`PECrashError`; pair with
        :func:`repro.core.checkpoint.run_with_recovery` to restart) or
        ``"localized"`` — crashes are detected by simulated heartbeats
        and repaired *inside* the running engine: the crashed rank
        restores from its partner's checkpoint replica and re-receives
        logged messages while survivors keep going (see
        :mod:`repro.faults.recovery` and ``docs/FAULTS.md``).
        Localized recovery requires the contended network model (the
        DES discipline), the reliable transport, and a
        partner-replication-capable checkpoint store (a
        :class:`repro.core.checkpoint.BuddyCheckpointStore` is
        attached automatically when none is given).
    recovery_config:
        :class:`repro.faults.recovery.RecoveryConfig` detector
        tunables (heartbeat period/timeout) for localized recovery.
    """

    def __init__(
        self,
        num_pes: int,
        spec: MachineSpec = DEFAULT_SPEC,
        *,
        network: Network | None = None,
        tracer=None,
        protocol_check: bool | None = None,
        fault_plan=None,
        transport: str | None = None,
        reliable_config: ReliableConfig | None = None,
        checkpoint_store=None,
        recovery: str = "global",
        recovery_config=None,
    ):
        if num_pes < 1:
            raise ValueError("need at least one PE")
        self.num_pes = num_pes
        self.spec = spec
        self.network = network if network is not None else Network()
        #: Optional :class:`repro.net.trace.Tracer` receiving all events.
        self.tracer = tracer
        if protocol_check is None:
            protocol_check = os.environ.get(
                "REPRO_PROTOCOL_CHECK", ""
            ).strip().lower() in ("1", "true", "yes", "on")
        self.protocol_check = bool(protocol_check)
        if recovery not in ("global", "localized"):
            raise ValueError(
                f"unknown recovery mode {recovery!r}; expected 'global' or 'localized'"
            )
        if recovery == "localized" and self.network.model != "contended":
            raise ValueError(
                "localized recovery runs on heartbeat timers and in-engine "
                "respawn, which need the contended network model "
                "(Network(model='contended'))"
            )
        if (
            fault_plan is not None
            and fault_plan.crash_at_time
            and self.network.model != "contended"
        ):
            raise ValueError(
                "crash_at_time schedules fire as simulated-time engine "
                "events; they need the contended network model"
            )
        if transport is None:
            transport = (
                "reliable"
                if (fault_plan is not None or recovery == "localized")
                else "direct"
            )
        if recovery == "localized" and transport != "reliable":
            raise ValueError(
                "localized recovery replays from the reliable transport's "
                "send logs; transport='reliable' is required"
            )
        if transport not in ("direct", "reliable", "lossy"):
            raise ValueError(
                f"unknown transport {transport!r}; "
                "expected 'direct', 'reliable', or 'lossy'"
            )
        if transport == "lossy" and fault_plan is None:
            raise ValueError("the lossy transport requires a fault plan")
        if transport == "direct" and fault_plan is not None and fault_plan.any_message_faults:
            raise ValueError(
                "a fault plan with message faults needs the 'reliable' or "
                "'lossy' transport; the direct path cannot inject them"
            )
        self.fault_plan = fault_plan
        self.transport = transport
        self.reliable_config = reliable_config
        self.recovery = recovery
        self.recovery_config = recovery_config
        if recovery == "localized":
            from ..core.checkpoint import BuddyCheckpointStore

            if checkpoint_store is None:
                checkpoint_store = BuddyCheckpointStore(num_pes)
            elif not checkpoint_store.supports_partner_replication:
                raise ValueError(
                    "localized recovery restores from partner replicas; "
                    "pass a partner-replication-capable store "
                    "(BuddyCheckpointStore), not a plain CheckpointStore"
                )
        self.checkpoint_store = checkpoint_store
        #: The run's :class:`repro.faults.recovery.RecoveryManager`
        #: under localized recovery (``None`` otherwise / between runs).
        self._recovery_manager = None
        #: The wire transport (reliable / lossy) or ``None`` for direct.
        self._wire = None
        #: The event engine of the run in progress (``None`` otherwise).
        self._engine: SimEngine | None = None
        #: Per-PE count of posted-but-undelivered messages; ``None``
        #: under instant delivery (alpha-beta), where nothing is ever
        #: in flight.
        self._in_flight: list[int] | None = None
        self._contexts: list[PEContext] = []
        self._collective_log: list[list[str]] = []
        self._progress = 0

    # Internal hooks -----------------------------------------------------
    def _deliver(self, msg: Message, *, front: bool = False, settle: bool = True) -> None:
        """Land ``msg`` in its destination inbox: every transport's way in.

        Appends the message, wakes the receiver and settles the
        sender's in-flight count.  ``front=True`` (fault-plan
        reordering) overtakes the queued messages of the same tag, when
        there are any.  ``settle=False`` marks wire duplicates and
        recovery replays, whose primary copy settles instead.
        """
        q = self._contexts[msg.dest]._inbox[msg.tag]
        if front and q:
            q.appendleft(msg)
        else:
            q.append(msg)
        self._note_progress()
        if self._engine is not None:
            self._engine.on_deliver(msg.dest, msg.tag)
        if settle:
            self._settle_send(msg.src)

    def _land_many(self, msgs: list[Message]) -> None:
        """:meth:`_deliver` for a batch under instant direct delivery, where
        nothing overtakes and there is no in-flight count to settle."""
        contexts, engine = self._contexts, self._engine
        for msg in msgs:
            contexts[msg.dest]._inbox[msg.tag].append(msg)
            if engine is not None:
                engine.on_deliver(msg.dest, msg.tag)
        self._progress += len(msgs)

    def _transmit(self, msg: Message) -> None:
        """Carry one application send over the configured transport."""
        if self._in_flight is not None:
            self._in_flight[msg.src] += 1
        if self._wire is not None:
            self._wire.transmit(msg)
        else:
            self._inject(msg)

    def _inject(self, msg: Message, *, front: bool = False, settle: bool = True) -> None:
        """A wire-complete message enters the network toward its inbox.

        Under instant delivery this is the familiar direct append.
        Under the contended model one engine event at ``msg.send_time``
        claims link capacity (so claims happen in time order) and posts
        the delivery at the computed arrival, with the message's causal
        timestamp rewritten to that arrival (queueing included).
        """
        if self._in_flight is None:
            self._deliver(msg, front=front, settle=settle)
            return

        def claim() -> None:
            arrival = self.network.arrival_time(msg.src, msg.dest, msg.words, msg.send_time)
            out = msg._replace(send_time=arrival)
            self._engine.post_delivery(
                arrival, lambda: self._deliver(out, front=front, settle=settle)
            )

        self._engine.call_at(msg.send_time, claim)

    def _settle_send(self, src: int) -> None:
        """One of ``src``'s in-flight messages reached its fate."""
        if self._in_flight is None:
            return
        self._in_flight[src] -= 1
        if self._in_flight[src] <= 0 and self._engine is not None:
            self._engine.on_sends_settled(src)

    def _note_progress(self, n: int = 1) -> None:
        self._progress += n

    def _note_consumed(self, msg: Message) -> None:
        """A program consumed ``msg`` (localized-recovery log pruning)."""
        if (
            self._recovery_manager is not None
            and self._wire is not None
            and msg.channel_seq is not None
        ):
            self._wire.note_consumed(msg.src, msg.dest, msg.channel_seq)

    def _note_checkpoint(self, rank: int) -> None:
        """``rank`` checkpointed: snapshot its machine-level watermarks.

        Under localized recovery a respawn rewinds the rank to exactly
        this point — transport seqs (so its re-sends are suppressed at
        survivors) and collective counters (so re-entered collectives
        re-validate against the same positions).
        """
        manager = self._recovery_manager
        if manager is None:
            return
        if self._wire is not None:
            self._wire.note_checkpoint(rank)
        manager.note_checkpoint(
            rank,
            collective_seq=self._contexts[rank]._collective_seq,
            collective_entries=len(self._collective_log[rank])
            if self._collective_log
            else 0,
        )

    def _reset_pe_for_respawn(
        self, rank: int, collective_seq: int, collective_entries: int
    ) -> None:
        """Rewind ``rank``'s context to its last checkpoint (recovery).

        The inbox is cleared (the transport's send logs re-deliver
        everything unconsumed), block states reset, and the collective
        counters rewind so the re-execution's collective entries land
        at the positions the protocol verifier already validated for
        the peers.  In-flight counters are left untouched: stale wire
        copies still settle through the seq-dedup path.
        """
        pe = self._contexts[rank]
        pe._inbox.clear()
        pe._blocked_tag = None
        pe._blocked_sends = False
        pe._phase_stack.clear()
        pe._collective_seq = collective_seq
        if self._collective_log:
            del self._collective_log[rank][collective_entries:]

    def _note_collective_entry(self, rank: int, seq: int, label: str) -> None:
        """Log and cross-validate one PE's collective entry.

        The per-PE sequence counter is monotone, so the n-th entry of
        every PE must name the same collective; the first PE to disagree
        with an already-recorded peer trips the check — *before* the
        divergence has a chance to manifest as a deadlock or a silent
        mis-reduction.
        """
        if not self.protocol_check:
            return
        log = self._collective_log[rank]
        log.append(label)
        idx = seq - 1
        disagree = {
            other: olog[idx]
            for other, olog in enumerate(self._collective_log)
            if other != rank and len(olog) > idx and olog[idx] != label
        }
        if disagree:
            details = ", ".join(
                f"rank {r} entered '{lbl}'" for r, lbl in sorted(disagree.items())
            )
            raise ProtocolError(
                f"collective-order divergence at collective #{seq}: "
                f"rank {rank} entered '{label}' but {details}; all PEs must "
                f"enter the same collectives in the same order"
            )

    def _deadlock_diagnostic(self, live: set[int], reason: str) -> str:
        """Per-PE blocked tags and pending-message census for the error."""
        lines = [f"{reason}; waiting PEs: {sorted(live)}"]
        total_pending = 0
        for rank in sorted(live):
            ctx = self._contexts[rank]
            census = {tag: len(q) for tag, q in ctx._inbox.items() if q}
            total_pending += sum(census.values())
            if ctx._blocked_tag is not None:
                blocked = f"blocked on recv(tag={ctx._blocked_tag!r})"
            elif ctx._blocked_sends:
                inflight = self._in_flight[rank] if self._in_flight else 0
                blocked = f"blocked in sync_sends ({inflight} send(s) in flight)"
            else:
                blocked = "idle (no blocking recv recorded)"
            lines.append(f"  rank {rank}: {blocked}; pending inbox: {census or '{}'}")
        for rank in sorted(set(range(self.num_pes)) - live):
            ctx = self._contexts[rank]
            census = {tag: len(q) for tag, q in ctx._inbox.items() if q}
            if census:
                total_pending += sum(census.values())
                lines.append(
                    f"  rank {rank}: finished but holds undelivered messages: {census}"
                )
        lines.append(f"  {total_pending} message(s) pending machine-wide")
        return "\n".join(lines)

    def _check_teardown(self) -> None:
        """Protocol-check epilogue: matched collectives, settled sends, conservation."""
        entry_counts = {rank: len(log) for rank, log in enumerate(self._collective_log)}
        if len(set(entry_counts.values())) > 1:
            details = ", ".join(
                f"rank {r}: {n} collectives" for r, n in sorted(entry_counts.items())
            )
            raise ProtocolError(
                f"collective-entry counts diverge at teardown ({details}); "
                f"some PE skipped or repeated a collective"
            )
        if self._in_flight is not None and any(self._in_flight):
            unsettled = {r: n for r, n in enumerate(self._in_flight) if n}
            raise ProtocolError(
                f"send completion violated at teardown: in-flight counts "
                f"{unsettled} are not zero; every send must settle exactly once"
            )
        leftovers = {
            rank: {tag: len(q) for tag, q in ctx._inbox.items() if q}
            for rank, ctx in enumerate(self._contexts)
        }
        leftovers = {rank: census for rank, census in leftovers.items() if census}
        leftover_total = sum(sum(c.values()) for c in leftovers.values())
        # Over the lossy transport, injected duplicates may legitimately
        # sit unconsumed at teardown; anything beyond that allowance is
        # still a program bug.  Reliable and direct transports preserve
        # exact application-level conservation.
        allowed = 0
        if self._wire is not None and not self._wire.is_reliable:
            allowed = self._wire.wire_duplicates
        if leftover_total > allowed:
            sent = sum(c.metrics.messages_sent for c in self._contexts)
            received = sum(c.metrics.messages_received for c in self._contexts)
            details = "; ".join(
                f"rank {r}: {census}" for r, census in sorted(leftovers.items())
            )
            raise ProtocolError(
                f"message conservation violated at teardown: {sent} sent, "
                f"{received} received, {leftover_total} undelivered "
                f"({allowed} attributable to injected duplicates) — {details}"
            )

    # Public API ---------------------------------------------------------
    def run(
        self,
        program: Callable[..., Generator[None, None, Any]],
        /,
        *args,
        **kwargs,
    ) -> MachineResult:
        """Execute ``program(ctx, *args, **kwargs)`` on every PE.

        ``args``/``kwargs`` may contain per-PE sequences only if the
        program indexes them by ``ctx.rank`` itself; the machine passes
        them through verbatim.

        Raises
        ------
        DeadlockError
            If every live PE is blocked and nothing in the machine can
            wake one (detected exactly by the event engine: no runnable
            PE, empty event queue), or if the livelock guard trips on
            PEs that spin on bare ``yield`` without ever progressing.
        PECrashError
            If the fault plan crash-stops a PE; catch it with
            :func:`repro.core.checkpoint.run_with_recovery` to restart
            from the last stable checkpoint.
        """
        plan = self.fault_plan
        self._progress = 0
        self._contexts = [
            PEContext(rank, self.num_pes, self.spec, self) for rank in range(self.num_pes)
        ]
        if plan is not None:
            for ctx in self._contexts:
                ctx._slowdown = plan.slowdown(ctx.rank)  # noqa: R13 -- the machine owns its contexts
        self.network.bind(self.spec, self.num_pes)
        if self.recovery == "localized":
            from ..faults.recovery import RecoveryManager

            # Before the transport: the wire enables send logging only
            # when a recovery manager is present at construction.
            self._recovery_manager = RecoveryManager(self, self.recovery_config)
        else:
            self._recovery_manager = None
        self._spawn = lambda rank: program(self._contexts[rank], *args, **kwargs)
        if self.transport == "reliable":
            self._wire = ReliableTransport(self, plan, self.reliable_config)
        elif self.transport == "lossy":
            self._wire = LossyTransport(self, plan)
        else:
            self._wire = None
        self._in_flight = (
            [0] * self.num_pes if self.network.model == "contended" else None
        )
        if self.checkpoint_store is not None:
            self.checkpoint_store.begin_run()
        self._collective_log = [[] for _ in range(self.num_pes)]
        gens = [program(ctx, *args, **kwargs) for ctx in self._contexts]
        values: list[Any] = [None] * self.num_pes
        live = set(range(self.num_pes))

        engine = SimEngine(self)
        self._engine = engine
        try:
            engine.run(gens, live, values)
        finally:
            self._engine = None
        if self.protocol_check:
            self._check_teardown()
        return MachineResult(
            values=values,
            metrics=RunMetrics(per_pe=[c.metrics for c in self._contexts]),
            events=self._progress,
            engine=engine.stats,
            network=self.network.stats() if self.network.model == "contended" else None,
            recovery=(
                self._recovery_manager.report
                if self._recovery_manager is not None
                else None
            ),
        )
