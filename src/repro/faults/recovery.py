"""Online localized recovery: detect, restore, replay — no global restart.

The original recovery model (:func:`repro.core.checkpoint.run_with_recovery`)
is *global restart*: a PE crash aborts the whole machine out of band
(:class:`~repro.net.machine.PECrashError`), and the driver re-executes
the program on every PE, replaying completed phases from coordinated
checkpoints.  At the paper-scale p the event engine unlocked
(2^9..2^15 PEs), that model throws away the work of thousands of
healthy survivors to repair one rank.

``Machine(recovery="localized")`` keeps failures *inside* the running
simulation instead.  Three mechanisms cooperate, all priced in the
alpha-beta cost model:

1. **Failure detection** — the :class:`RecoveryManager` runs a periodic
   heartbeat timer on the event engine (DES discipline, contended
   network).  Every tick charges each live PE one probe round trip
   (``2 * (alpha + beta * HEARTBEAT_WORDS)``), and a crashed rank is
   *discovered* at the first tick past its timeout — a simulated-time
   detection latency, not an out-of-band Python exception.

2. **Partner-replicated checkpoints** — with a
   :class:`~repro.core.checkpoint.BuddyCheckpointStore`, every
   ``ctx.checkpoint`` also ships the snapshot to a partner rank
   (both endpoints pay ``alpha + beta * words``).  Recovery restores
   the crashed rank from its partner's replica — one point-to-point
   transfer, no global stable-storage round and no
   ``prune_to_stable`` barrier on the survivor side.

3. **Sender-based message logging + replay** — the reliable transport
   logs every message since the receiver's last checkpoint.  On
   recovery the crashed rank's generator is respawned *inside the
   running engine* (:meth:`repro.sim.engine.SimEngine.respawn_pe`);
   survivors re-send their logged messages (priced, charged to the new
   ``recovery_seconds`` bucket), and the respawned rank's re-sends are
   suppressed by the existing per-channel sequence numbers — survivors
   dedup-discard them and never re-execute a completed phase.

The crashed rank's outage is decomposed into ``recover:detect`` /
``recover:restore`` / ``recover:replay`` spans (visible to every
exporter in :mod:`repro.obs`) and the whole outage is accumulated in
:attr:`repro.net.metrics.PEMetrics.recovery_seconds`.

See ``docs/FAULTS.md`` for the worked example and the migration note
from global restart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..net.trace import SpanRecord

__all__ = [
    "HEARTBEAT_WORDS",
    "DEFAULT_RECOVERY_CONFIG",
    "MembershipEvent",
    "RecoveryConfig",
    "RecoveryManager",
    "RecoveryReport",
]

#: Words carried by one heartbeat probe (a cache line of liveness state).
HEARTBEAT_WORDS = 1


@dataclass(frozen=True)
class RecoveryConfig:
    """Tunables of the localized-recovery protocol.

    Attributes
    ----------
    heartbeat_period_alphas:
        Heartbeat probe cadence in multiples of the machine's
        ``alpha``.  Every period, every live PE pays one probe round
        trip (``2 * (alpha + beta * HEARTBEAT_WORDS)``) — the standing
        cost of running a failure detector at all.
    heartbeat_timeout_alphas:
        Detection timeout in multiples of ``alpha``: a rank is declared
        failed at the first heartbeat tick at least this long past its
        crash.  Worst-case detection latency is therefore about
        ``timeout + period``.
    replay_alpha_per_message:
        Per-message handling cost (in multiples of ``alpha``) the
        respawned rank pays to re-sequence each replayed message into
        its receive state.
    """

    heartbeat_period_alphas: float = 64.0
    heartbeat_timeout_alphas: float = 192.0
    replay_alpha_per_message: float = 1.0

    def __post_init__(self) -> None:
        if self.heartbeat_period_alphas <= 0:
            raise ValueError("heartbeat_period_alphas must be positive")
        if self.heartbeat_timeout_alphas < self.heartbeat_period_alphas:
            raise ValueError(
                "heartbeat_timeout_alphas must be at least the period "
                "(a timeout shorter than one probe interval detects nothing)"
            )
        if self.replay_alpha_per_message < 0:
            raise ValueError("replay_alpha_per_message must be non-negative")


#: Default detector constants.
DEFAULT_RECOVERY_CONFIG = RecoveryConfig()


@dataclass(frozen=True)
class MembershipEvent:
    """One membership change observed by the recovery manager.

    ``kind`` is ``"crash"`` (the rank stopped, at its fault-plan
    coordinate), ``"detect"`` (the heartbeat detector declared it
    failed), or ``"respawn"`` (its re-executed generator rejoined the
    machine).  ``time`` is simulated seconds.
    """

    kind: str
    rank: int
    time: float


@dataclass
class RecoveryReport:
    """What localized recovery did during one run."""

    #: Crash / detect / respawn events in simulated-time order.
    events: list[MembershipEvent] = field(default_factory=list)
    #: Messages re-delivered from survivors' send logs, summed over
    #: all recoveries.
    replayed_messages: int = 0
    #: Words shipped from partner replicas during restores.
    restored_words: int = 0

    @property
    def crashes(self) -> int:
        """Number of crash-stops handled in place."""
        return sum(1 for e in self.events if e.kind == "crash")

    @property
    def recovered_ranks(self) -> tuple[int, ...]:
        """Ranks respawned inside the running engine, in order."""
        return tuple(e.rank for e in self.events if e.kind == "respawn")


class RecoveryManager:
    """Per-run driver of detection, restore, and replay.

    Constructed by ``Machine.run`` when ``recovery="localized"``; the
    engine calls :meth:`start` when the DES loop begins, crash events
    are routed to :meth:`on_crash` instead of raising
    :class:`~repro.net.machine.PECrashError`, and the heartbeat tick
    does the rest.
    """

    def __init__(self, machine, config: RecoveryConfig | None = None):
        self.machine = machine
        self.config = config or DEFAULT_RECOVERY_CONFIG
        self.report = RecoveryReport()
        self._engine = None
        #: rank -> simulated crash time, while down and undetected.
        self._down: dict[int, float] = {}
        #: rank -> (collective_seq, collective_entries) at its last
        #: checkpoint; ranks missing here recover from program start.
        self._marks: dict[int, tuple[int, int]] = {}
        spec = machine.spec
        self._period = self.config.heartbeat_period_alphas * spec.alpha
        self._timeout = self.config.heartbeat_timeout_alphas * spec.alpha
        self._probe_dt = 2.0 * spec.message_time(HEARTBEAT_WORDS)

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def start(self, engine) -> None:
        """Begin heartbeating on ``engine`` (called by ``_run_des``)."""
        self._engine = engine
        engine.call_at(self._period, self._tick)

    def on_crash(self, rank: int) -> None:
        """A fault-plan crash fired for ``rank``: contain it in place.

        The rank's generator is closed (unwinding its open phase spans
        at the crash-time clock), it leaves the live set, and the
        heartbeat detector takes over — survivors keep running and only
        *discover* the failure at a later simulated time.
        """
        engine = self._engine
        now = engine.queue.now
        engine.kill_pe(rank)
        self._down[rank] = now
        self.report.events.append(MembershipEvent("crash", rank, now))
        self.machine._note_progress()

    def note_checkpoint(self, rank: int, collective_seq: int, collective_entries: int) -> None:
        """Save ``rank``'s machine-level state at its latest checkpoint."""
        self._marks[rank] = (collective_seq, collective_entries)

    # ------------------------------------------------------------------
    # Heartbeat
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        from ..net.machine import DeadlockError

        engine = self._engine
        machine = self.machine
        now = engine.queue.now
        live = engine._live
        for rank in sorted(live):
            pe = machine._contexts[rank]
            dt = pe._slowdown * self._probe_dt
            pe.metrics.clock += dt
            pe.metrics.comm_seconds += dt
            pe.metrics.heartbeats += 1
        if live:
            machine._note_progress()
        for rank in sorted(self._down):
            if now >= self._down[rank] + self._timeout:
                self._recover(rank, now)
        if live and not self._down and engine.queue.peek_time() is None:
            # The tick itself keeps the queue alive, so the engine's
            # generic exhaustion check never fires under localized
            # recovery; this is its exact replacement: live PEs exist,
            # no recovery is pending, and the only future events are
            # our own heartbeats — nothing can ever wake anyone.
            raise DeadlockError(
                machine._deadlock_diagnostic(
                    live,
                    "exact deadlock: all live PEs are blocked and only "
                    "heartbeat timers remain in the event queue",
                )
            )
        if live or self._down:
            engine.call_at(now + self._period, self._tick)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self, rank: int, t_detect: float) -> None:
        machine = self.machine
        engine = self._engine
        spec = machine.spec
        store = machine.checkpoint_store
        pe = machine._contexts[rank]
        metrics = pe.metrics
        self._down.pop(rank)
        self.report.events.append(MembershipEvent("detect", rank, t_detect))

        # Detection window: the rank sat dead from its crash-time clock
        # until the heartbeat tick that declared it failed.
        crash_clock = metrics.clock
        if t_detect > metrics.clock:
            metrics.clock = t_detect
        detect_end = metrics.clock
        metrics.spans.append(
            SpanRecord(
                rank=rank,
                name="recover:detect",
                start=min(crash_clock, detect_end),
                end=detect_end,
                depth=0,
            )
        )

        # Restore: the partner ships its replica of every snapshot the
        # rank had taken — one priced point-to-point transfer each way.
        mate = store.partner_of(rank)
        words = store.replica_words(rank)
        if words and mate != rank:
            ship = spec.message_time(words)
            mate_pe = machine._contexts[mate]
            mdt = mate_pe._slowdown * ship
            mate_pe.metrics.clock += mdt
            mate_pe.metrics.recovery_seconds += mdt
            rdt = pe._slowdown * ship
            metrics.clock += rdt
            self.report.restored_words += words
        restore_end = metrics.clock
        metrics.spans.append(
            SpanRecord(
                rank=rank,
                name="recover:restore",
                start=detect_end,
                end=restore_end,
                depth=0,
            )
        )
        store.respawn_rank(rank)

        # Rewind the rank's machine-level state to its last checkpoint
        # and re-deliver everything survivors logged for it since then.
        cseq, centries = self._marks.get(rank, (0, 0))
        machine._reset_pe_for_respawn(rank, cseq, centries)
        replayed = 0
        wire = machine._wire
        if wire is not None:
            replayed = wire.replay_to(rank, restore_end)
        self.report.replayed_messages += replayed
        metrics.clock += (
            pe._slowdown * replayed * self.config.replay_alpha_per_message * spec.alpha
        )
        replay_end = metrics.clock
        metrics.spans.append(
            SpanRecord(
                rank=rank,
                name="recover:replay",
                start=restore_end,
                end=replay_end,
                depth=0,
            )
        )
        metrics.recovery_seconds += replay_end - min(crash_clock, detect_end)

        # Respawn a fresh generator inside the running engine; its
        # first resume fires after the replayed deliveries land.
        self.report.events.append(MembershipEvent("respawn", rank, replay_end))
        engine.respawn_pe(rank, machine._spawn(rank), replay_end)
        machine._note_progress()
