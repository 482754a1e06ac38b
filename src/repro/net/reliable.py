"""Reliable and lossy transports for the simulated machine.

The fault-free :class:`~repro.net.machine.Machine` hands every sent
message straight to the destination inbox.  When a
:class:`~repro.faults.plan.FaultPlan` is attached, delivery instead
goes through one of two transports:

:class:`ReliableTransport`
    Models the protocol a real system would run below MPI on a lossy
    fabric: per-channel **sequence numbers**, **cumulative acks**,
    **timeout + exponential-backoff retransmission**, and **dedup on
    receive**.  The program observes exactly the fault-free message
    stream (same messages, same per-channel FIFO order), so algorithm
    results are bit-identical to the reliable-fabric run — but every
    retransmission, timeout wait, and ack is charged to the alpha-beta
    cost model, so resilience overhead shows up in simulated time and
    in the ``retransmits`` / ``timeouts`` / ``messages_dropped`` /
    ``duplicates_discarded`` counters of
    :class:`~repro.net.metrics.PEMetrics`.  One receive protocol
    (:meth:`ReliableTransport._arrive`) serves both network models;
    under instant delivery copies always arrive in channel order, so
    only the event engine (contended network) fills its hold buffer.

:class:`LossyTransport`
    The raw adversary: drops lose messages for good, duplicates and
    reordered deliveries reach the program.  Used to demonstrate *why*
    the reliable layer exists and to test protocol robustness against
    at-least-once delivery (see the duplicated/reordered-delivery
    tests in ``tests/test_comm.py``).

Programs that require reliable delivery mark themselves with
:func:`fault_tolerant` and route hand-written sends through
:func:`reliable_send`; lint rule R5 (:mod:`repro.lint`) flags direct
``ctx.send`` calls inside marked programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from .messages import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.plan import FaultPlan
    from .machine import Machine, PEContext

__all__ = [
    "ReliableConfig",
    "ReliableTransport",
    "LossyTransport",
    "TransportError",
    "fault_tolerant",
    "reliable_send",
]

#: Words charged for one (cumulative) acknowledgement message.
ACK_WORDS = 1


class TransportError(RuntimeError):
    """The reliable transport gave up on a message (retry budget spent)."""


@dataclass(frozen=True)
class ReliableConfig:
    """Tunables of the modelled reliable protocol.

    Attributes
    ----------
    timeout_factor:
        First retransmission timeout as a multiple of the message's
        own wire time ``alpha + beta * words``.
    backoff:
        Multiplier applied to the timeout after every retransmission
        (exponential backoff).
    ack_every:
        Cumulative-ack cadence: one ack message (both endpoints pay
        ``alpha + beta * ACK_WORDS``) per ``ack_every`` deliveries on
        a channel.  This is what keeps the zero-fault overhead of the
        reliable path small.
    max_attempts:
        Transmission attempts per message before the transport raises
        :class:`TransportError` (a safety net; unreachable under sane
        drop rates).
    """

    timeout_factor: float = 4.0
    backoff: float = 2.0
    ack_every: int = 8
    max_attempts: int = 64

    def __post_init__(self) -> None:
        if self.timeout_factor <= 0 or self.backoff < 1.0:
            raise ValueError("timeout_factor must be > 0 and backoff >= 1")
        if self.ack_every < 1 or self.max_attempts < 1:
            raise ValueError("ack_every and max_attempts must be >= 1")


#: Default protocol constants.
DEFAULT_RELIABLE_CONFIG = ReliableConfig()


class ReliableTransport:
    """Exactly-once, FIFO-per-channel delivery over a faulty wire."""

    #: Programs may assume fault-free message semantics on this transport.
    is_reliable = True

    def __init__(
        self,
        machine: "Machine",
        plan: "FaultPlan | None" = None,
        config: ReliableConfig | None = None,
    ):
        self.machine = machine
        self.plan = plan
        self.config = config or DEFAULT_RELIABLE_CONFIG
        self._next_seq: dict[tuple[int, int], int] = {}
        self._expected: dict[tuple[int, int], int] = {}
        self._acked: dict[tuple[int, int], int] = {}
        #: Selective-repeat receive buffer: out-of-order arrivals parked
        #: per channel until the gap fills (event engine only).
        self._held: dict[tuple[int, int], dict[int, tuple[Message, bool]]] = {}
        #: Wire-level totals (for diagnostics; app-level conservation
        #: is unaffected because this transport repairs every fault).
        self.wire_dropped = 0
        self.wire_duplicates = 0
        #: Sender-based message logging (localized recovery only):
        #: per-channel ``seq -> Message`` of everything sent since the
        #: *receiver*'s last checkpoint.  ``note_checkpoint`` prunes
        #: entries the receiver had already consumed (they are part of
        #: its checkpointed state); ``replay_to`` re-delivers the rest
        #: after a crash.  Disabled (empty) without a recovery manager.
        self._log_enabled = machine._recovery_manager is not None
        self._send_log: dict[tuple[int, int], dict[int, Message]] = {}
        #: Per-channel seqs the receiver consumed since its last
        #: checkpoint (pruned from the log at the next checkpoint).
        self._consumed: dict[tuple[int, int], set[int]] = {}
        #: Per-rank outgoing-seq watermarks at the rank's last
        #: checkpoint: ``rank -> {dest: next_seq}``.  Rewinding to the
        #: watermark makes a respawned rank's re-sends carry the seqs
        #: survivors already saw, so receive-side dedup suppresses them.
        self._send_marks: dict[int, dict[int, int]] = {}

    @property
    def app_delivery_delta(self) -> int:
        """Program-visible (delivered - sent) imbalance: always zero."""
        return 0

    # ------------------------------------------------------------------
    def transmit(self, msg: Message) -> None:
        """Carry one application send across the faulty wire.

        Under instant delivery (alpha-beta model) all fault decisions
        for the message are resolved here, at send time (the machine's
        scheduling is deterministic, so this is equivalent to resolving
        them lazily): the number of dropped attempts determines the
        retransmission costs charged to the sender and the backoff
        delay added to the delivery timestamp.  Under the contended
        network model the protocol instead runs on real engine events
        — retransmission *timers* fire in simulated time.  Both paths
        hand every arriving copy to the one receive protocol,
        :meth:`_arrive`.
        """
        machine = self.machine
        spec = machine.spec
        plan = self.plan
        chan = (msg.src, msg.dest)
        seq = self._next_seq.get(chan, 0)
        self._next_seq[chan] = seq + 1
        out = msg._replace(channel_seq=seq)
        if self._log_enabled:
            # Keyed by seq so a respawned rank's re-send of the same
            # message overwrites its log entry instead of duplicating it.
            self._send_log.setdefault(chan, {})[seq] = out
        timeout = self.config.timeout_factor * spec.message_time(msg.words)

        if machine._in_flight is not None:
            machine._engine.call_at(
                msg.send_time, lambda: self._attempt_des(out, 1, msg.send_time, timeout)
            )
            return

        t = msg.send_time
        if plan is not None:
            attempts = 1
            while plan.should_drop():
                self._lost(out, attempts, t)
                # Wait out the timeout, then pay for the retransmission.
                t += timeout
                timeout *= self.config.backoff
                self._retransmit(out, t)
                attempts += 1
            t += plan.delay_seconds(spec.alpha)

        delivered = out._replace(send_time=t)
        self._arrive(delivered, duplicate=False)
        if plan is not None and plan.should_duplicate():
            # The wire delivers a stale copy one message-time later.
            self.wire_duplicates += 1
            self._arrive(
                delivered._replace(send_time=t + spec.message_time(msg.words)),
                duplicate=True,
            )

    def _lost(self, msg: Message, attempts: int, t: float) -> None:
        """The wire dropped attempt number ``attempts`` of ``msg`` at ``t``."""
        _count_drop(self, msg, t)
        if attempts >= self.config.max_attempts:
            raise TransportError(
                f"message {msg.src}->{msg.dest} tag={msg.tag!r} lost "
                f"{attempts} times; retry budget exhausted"
            )

    def _retransmit(self, msg: Message, t: float) -> None:
        """The sender's timeout for ``msg`` expired at ``t``: send it again."""
        machine = self.machine
        sender = machine._contexts[msg.src]
        sender.metrics.timeouts += 1
        sender.metrics.retransmits += 1
        retransmit_dt = sender._slowdown * machine.spec.message_time(msg.words)
        sender.metrics.clock += retransmit_dt
        sender.metrics.retransmit_seconds += retransmit_dt
        if machine.tracer is not None:
            machine.tracer.retry(t, msg.src, msg.dest, msg.tag, msg.words)

    # ------------------------------------------------------------------
    # Event-driven sends (contended network model)
    # ------------------------------------------------------------------
    def _attempt_des(self, msg: Message, attempts: int, t: float, timeout: float) -> None:
        """One transmission attempt at simulated time ``t`` (engine event)."""
        machine = self.machine
        plan = self.plan
        spec = machine.spec
        if plan is not None and plan.should_drop():
            self._lost(msg, attempts, t)

            def retry() -> None:
                self._retransmit(msg, t + timeout)
                self._attempt_des(msg, attempts + 1, t + timeout, timeout * self.config.backoff)

            machine._engine.call_at(t + timeout, retry)
            return

        inject_t = t
        if plan is not None:
            inject_t += plan.delay_seconds(spec.alpha)

        def inject() -> None:
            arrival = machine.network.arrival_time(msg.src, msg.dest, msg.words, inject_t)
            machine._engine.post_delivery(
                arrival,
                lambda: self._arrive(msg._replace(send_time=arrival), duplicate=False),
            )
            if plan is not None and plan.should_duplicate():
                self.wire_duplicates += 1
                dup_arrival = arrival + spec.message_time(msg.words)
                machine._engine.post_delivery(
                    dup_arrival,
                    lambda: self._arrive(msg._replace(send_time=dup_arrival), duplicate=True),
                )

        if inject_t > t:
            # Fault-plan delay: claim link capacity when the message
            # actually reaches the wire, not now.
            machine._engine.call_at(inject_t, inject)
        else:
            inject()

    # ------------------------------------------------------------------
    # Receive protocol (both network models)
    # ------------------------------------------------------------------
    def _arrive(self, msg: Message, *, duplicate: bool) -> None:
        """Receive side: discard stale copies, hold gaps, deliver in order.

        ``duplicate`` marks injected wire copies, which never settle
        the sender's in-flight count (the primary copy does).  Under
        instant delivery copies arrive in channel order, so only the
        event engine ever fills the hold buffer.
        """
        machine = self.machine
        chan = (msg.src, msg.dest)
        seq = msg.channel_seq
        expected = self._expected.get(chan, 0)
        held = self._held.get(chan, {})
        if seq < expected or seq in held:
            # Stale or redundant copy: the receiver pays for pulling it
            # off the wire, then discards it.
            receiver = machine._contexts[msg.dest]
            receiver.metrics.duplicates_discarded += 1
            dup_dt = receiver._slowdown * machine.spec.message_time(msg.words)
            receiver.metrics.clock += dup_dt
            receiver.metrics.retransmit_seconds += dup_dt
            machine._note_progress()
            if not duplicate:
                machine._settle_send(msg.src)
            return
        if seq > expected:
            # Gap: an earlier message on this channel is still being
            # retransmitted.  Hold this one; the sender's in-flight
            # count settles only when it truly reaches the inbox (so
            # ``sync_sends`` cannot conclude an exchange early).
            self._held.setdefault(chan, {})[seq] = (msg, duplicate)
            machine._note_progress()
            return
        self._deliver_in_order(msg, settle=not duplicate)
        nxt = self._expected[chan]
        while nxt in held:
            parked, parked_dup = held.pop(nxt)
            self._deliver_in_order(parked, settle=not parked_dup)
            nxt = self._expected[chan]

    def _deliver_in_order(self, msg: Message, *, settle: bool) -> None:
        machine = self.machine
        chan = (msg.src, msg.dest)
        self._expected[chan] = msg.channel_seq + 1
        machine._deliver(msg, settle=settle)
        acked = self._acked.get(chan, 0) + 1
        self._acked[chan] = acked
        if acked % self.config.ack_every == 0:
            # Cumulative ack: one control message, both endpoints pay.
            ack_time = machine.spec.message_time(ACK_WORDS)
            receiver = machine._contexts[msg.dest]
            receiver.metrics.clock += receiver._slowdown * ack_time
            receiver.metrics.comm_seconds += receiver._slowdown * ack_time
            sender = machine._contexts[msg.src]
            sender.metrics.clock += sender._slowdown * ack_time
            sender.metrics.comm_seconds += sender._slowdown * ack_time

    # ------------------------------------------------------------------
    # Localized recovery (sender-based logging + replay)
    # ------------------------------------------------------------------
    def note_consumed(self, src: int, dest: int, seq: int) -> None:
        """The program on ``dest`` consumed seq ``seq`` of ``(src, dest)``.

        Consumption — not delivery — is what makes a logged message
        safe to drop at the receiver's next checkpoint: a message
        sitting unconsumed in the inbox is *not* part of any
        checkpointed state and must be replayed after a crash.
        """
        if self._log_enabled:
            self._consumed.setdefault((src, dest), set()).add(seq)

    def note_checkpoint(self, rank: int) -> None:
        """``rank`` took a (partner-replicated) checkpoint just now.

        Messages ``rank`` consumed before this point are folded into
        its checkpointed state, so their log entries are pruned;
        everything else (unconsumed, in flight, or future) stays
        replayable.  The rank's outgoing-seq watermarks are recorded so
        a later respawn can rewind them.
        """
        if not self._log_enabled:
            return
        for chan, consumed in self._consumed.items():
            if chan[1] != rank:
                continue
            log = self._send_log.get(chan)
            if log:
                for seq in consumed:
                    log.pop(seq, None)
            consumed.clear()
        self._send_marks[rank] = {
            chan[1]: nxt for chan, nxt in self._next_seq.items() if chan[0] == rank
        }

    def replay_to(self, rank: int, at_time: float) -> int:
        """Re-deliver every logged message addressed to ``rank``.

        Called by the recovery manager after the partner restore.  For
        each logged message the *sender* pays a full re-send
        (``alpha + beta * words``, charged to its ``recovery_seconds``
        bucket); delivery events land at ``at_time``, before the
        respawned rank's first resume.  Replays bypass the in-order
        receive protocol (the log is already FIFO per channel) and
        never settle in-flight counters — the original wire copies,
        still in the event queue, settle themselves and are
        dedup-discarded because the channel's expected seq is advanced
        past everything replayed.  The rank's own outgoing channels are
        rewound to their checkpoint watermarks so its deterministic
        re-sends are suppressed at the receivers.

        Returns the number of re-delivered messages.
        """
        machine = self.machine
        spec = machine.spec
        replayed = 0
        for chan in sorted(self._send_log):
            if chan[1] != rank or chan[0] == rank:
                continue
            log = self._send_log[chan]
            if not log:
                continue
            sender = machine._contexts[chan[0]]
            for seq in sorted(log):
                out = log[seq]._replace(send_time=at_time)
                resend_dt = sender._slowdown * spec.message_time(out.words)
                sender.metrics.clock += resend_dt
                sender.metrics.recovery_seconds += resend_dt
                machine._engine.post_delivery(
                    at_time,
                    lambda m=out: machine._deliver(m, settle=False),
                )
                replayed += 1
            self._expected[chan] = max(
                self._expected.get(chan, 0), max(log) + 1
            )
            held = self._held.pop(chan, None)
            if held:
                # Parked out-of-order copies are superseded by the
                # replay; settle the primaries so their senders'
                # in-flight counts still reach zero.
                for parked, parked_dup in held.values():
                    if not parked_dup:
                        machine._settle_send(parked.src)
            self._consumed.get(chan, set()).clear()
        marks = self._send_marks.get(rank)
        if marks is None:
            # No checkpoint yet: the respawn re-executes from program
            # start and re-sends everything from seq 0.
            marks = {
                chan[1]: 0 for chan in self._next_seq if chan[0] == rank
            }
        for dest, mark in marks.items():
            self._next_seq[(rank, dest)] = mark
            if dest == rank:
                # Self-channel: the re-execution re-sends *and*
                # re-receives these messages, so the receive side
                # rewinds in lockstep (stale copies still in flight
                # reconcile through the ordinary seq dedup).
                self._expected[(rank, rank)] = min(
                    self._expected.get((rank, rank), 0), mark
                )
                self._consumed.get((rank, rank), set()).clear()
        return replayed


class LossyTransport:
    """The raw faulty wire: what the plan says happens, happens."""

    is_reliable = False

    def __init__(self, machine: "Machine", plan: "FaultPlan"):
        self.machine = machine
        self.plan = plan
        self.wire_dropped = 0
        self.wire_duplicates = 0

    @property
    def app_delivery_delta(self) -> int:
        """Program-visible (delivered - sent) imbalance caused by faults."""
        return self.wire_duplicates - self.wire_dropped

    def transmit(self, msg: Message) -> None:
        """Deliver, drop, duplicate, delay, or reorder one message."""
        machine = self.machine
        plan = self.plan
        if plan.should_drop():
            _count_drop(self, msg, msg.send_time)
            machine._note_progress()
            # A dropped message is gone: it settles immediately (the
            # lossy contract is that sync_sends does not wait for it).
            machine._settle_send(msg.src)
            return
        delay = plan.delay_seconds(machine.spec.alpha)
        out = msg._replace(send_time=msg.send_time + delay) if delay else msg
        # Reorder: the message overtakes everything queued for its tag
        # class at delivery time (the program sees it first).
        machine._inject(out, front=plan.should_reorder())
        if plan.should_duplicate():
            self.wire_duplicates += 1
            dup = out._replace(send_time=out.send_time + machine.spec.message_time(msg.words))
            machine._inject(dup, settle=False)


def _count_drop(wire: "ReliableTransport | LossyTransport", msg: Message, t: float) -> None:
    """Account one message attempt the wire lost at time ``t``."""
    wire.wire_dropped += 1
    machine = wire.machine
    machine._contexts[msg.src].metrics.messages_dropped += 1
    if machine.tracer is not None:
        machine.tracer.drop(t, msg.src, msg.dest, msg.tag, msg.words)


# ----------------------------------------------------------------------
# Program-level API
# ----------------------------------------------------------------------
def fault_tolerant(program: Callable) -> Callable:
    """Mark an SPMD program (factory) as fault-tolerant.

    A marked program promises that it survives the fault model of
    ``docs/FAULTS.md``: it checkpoints at phase boundaries (via
    ``ctx.checkpoint`` / ``ctx.restore``) and routes every
    hand-written point-to-point send through :func:`reliable_send` so
    the transport can sequence and retransmit it.  Lint rule R5
    enforces the latter statically.
    """
    program.__fault_tolerant__ = True
    return program


def is_fault_tolerant(program: Callable) -> bool:
    """Whether ``program`` carries the :func:`fault_tolerant` marker."""
    return bool(getattr(program, "__fault_tolerant__", False))


def reliable_send(
    ctx: "PEContext", dest: int, tag: Any, payload: Any, words: int
) -> None:
    """Send requiring reliable transport (fault-tolerant programs).

    On a machine without injected faults this is exactly ``ctx.send``.
    On a machine with a fault plan but *without* the reliable
    transport, it raises :class:`~repro.net.machine.ProtocolError`
    instead of silently exposing the program to message loss — the
    runtime counterpart of lint rule R5.
    """
    machine = ctx._machine
    wire = machine._wire
    plan = machine.fault_plan
    if (
        plan is not None
        and plan.any_message_faults
        and (wire is None or not wire.is_reliable)
    ):
        from .machine import ProtocolError

        raise ProtocolError(
            "reliable_send on a machine that injects message faults over "
            "the lossy transport; construct the Machine with "
            "transport='reliable' to run fault-tolerant programs"
        )
    ctx.send(dest, tag, payload, words)
