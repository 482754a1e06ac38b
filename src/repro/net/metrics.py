"""Per-PE and aggregated run metrics.

The paper's plots report, besides running time, the *maximum number of
outgoing messages over all PEs* and the *bottleneck communication
volume* (Fig. 5's lower panels).  These counters are maintained by the
simulated network; "bottleneck" aggregations are max-over-PEs as in the
paper.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .trace import SpanRecord

__all__ = ["PEMetrics", "RunMetrics"]


@dataclass
class PEMetrics:
    """Counters for one PE."""

    rank: int
    #: Simulated wall clock (seconds) of this PE.
    clock: float = 0.0
    messages_sent: int = 0
    messages_received: int = 0
    words_sent: int = 0
    words_received: int = 0
    #: Charged local operations (merge comparisons, hash probes, ...).
    local_ops: int = 0
    #: Largest number of words ever held in aggregation buffers.
    peak_buffer_words: int = 0
    #: Resilience counters (``repro.net.reliable``): retransmissions
    #: this PE paid for, retransmission timeouts it sat through, wire
    #: transmissions of its messages that were dropped, and duplicate
    #: deliveries it discarded on receive.  All zero on a fault-free
    #: run over any transport.
    retransmits: int = 0
    timeouts: int = 0
    messages_dropped: int = 0
    duplicates_discarded: int = 0
    #: Simulated seconds attributed to named phases.
    phase_times: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: Simulated seconds charged at message endpoints (alpha + beta*l
    #: for sends, receives, and transport acks).
    comm_seconds: float = 0.0
    #: Simulated seconds the clock was fast-forwarded to a message's
    #: causal timestamp — idle time spent waiting for senders.
    wait_seconds: float = 0.0
    #: Simulated seconds charged by the reliable transport for
    #: retransmissions and duplicate discards (fault overhead).
    retransmit_seconds: float = 0.0
    #: Localized-recovery seconds: a crashed PE's whole outage
    #: (detection wait + partner restore + log replay) plus what
    #: survivors paid to ship replicas and re-send logged messages.
    #: Zero on crash-free runs and under global restart.
    recovery_seconds: float = 0.0
    #: Heartbeat probes this PE paid for (localized recovery's
    #: standing failure-detector cost; zero otherwise).
    heartbeats: int = 0
    #: Transport-side counters (``repro.net.shm``): *real* bytes this
    #: PE's outgoing payloads physically occupied under the process
    #: backend (fan-out deliveries sharing one slot count the copy
    #: once), messages routed zero-copy through the shared-memory
    #: frame pool, and messages that spilled to the pickled path
    #: (pool exhausted / payload oversized / no array body).  These
    #: describe the physical transport only — they are all zero on the
    #: simulator and are deliberately excluded from :meth:`RunMetrics.summary`
    #: so summaries stay comparable across transports.
    bytes_moved: int = 0
    shm_frames: int = 0
    shm_spills: int = 0
    #: Closed ``ctx.span`` intervals in completion order (see
    #: :class:`repro.net.trace.SpanRecord`).
    spans: list[SpanRecord] = field(default_factory=list)

    def note_buffer(self, words: int) -> None:
        """Note an aggregation-buffer high-water mark."""
        if words > self.peak_buffer_words:
            self.peak_buffer_words = words


@dataclass
class RunMetrics:
    """Aggregated view over all PEs of one simulated run."""

    per_pe: list[PEMetrics]

    @property
    def num_pes(self) -> int:
        """Number of PEs in the run."""
        return len(self.per_pe)

    @property
    def makespan(self) -> float:
        """Modelled running time: the slowest PE's clock."""
        return max((m.clock for m in self.per_pe), default=0.0)

    @property
    def max_messages_sent(self) -> int:
        """Paper metric: max #outgoing messages over all PEs."""
        return max((m.messages_sent for m in self.per_pe), default=0)

    @property
    def bottleneck_volume(self) -> int:
        """Paper metric: max over PEs of words sent."""
        return max((m.words_sent for m in self.per_pe), default=0)

    @property
    def total_volume(self) -> int:
        """Total words sent across the whole machine."""
        return sum(m.words_sent for m in self.per_pe)

    @property
    def total_messages(self) -> int:
        """Total messages sent across the whole machine."""
        return sum(m.messages_sent for m in self.per_pe)

    @property
    def total_ops(self) -> int:
        """Total charged local operations."""
        return sum(m.local_ops for m in self.per_pe)

    @property
    def max_peak_buffer_words(self) -> int:
        """Max aggregation-buffer high-water mark over PEs (memory claim)."""
        return max((m.peak_buffer_words for m in self.per_pe), default=0)

    # Resilience aggregates (fault-injected runs) ----------------------
    @property
    def total_retransmits(self) -> int:
        """Total reliable-transport retransmissions across the machine."""
        return sum(m.retransmits for m in self.per_pe)

    @property
    def total_timeouts(self) -> int:
        """Total retransmission timeouts across the machine."""
        return sum(m.timeouts for m in self.per_pe)

    @property
    def total_messages_dropped(self) -> int:
        """Total wire transmissions lost to injected drops."""
        return sum(m.messages_dropped for m in self.per_pe)

    @property
    def total_duplicates_discarded(self) -> int:
        """Total duplicate deliveries discarded by receive-side dedup."""
        return sum(m.duplicates_discarded for m in self.per_pe)

    @property
    def max_retransmits(self) -> int:
        """Bottleneck resilience cost: max retransmissions on one PE."""
        return max((m.retransmits for m in self.per_pe), default=0)

    @property
    def max_messages_dropped(self) -> int:
        """Bottleneck fault pressure: max dropped transmissions on one PE."""
        return max((m.messages_dropped for m in self.per_pe), default=0)

    # Observability aggregates (repro.obs) -----------------------------
    @property
    def total_recovery_seconds(self) -> float:
        """Total localized-recovery seconds charged across the machine."""
        return sum(m.recovery_seconds for m in self.per_pe)

    @property
    def total_heartbeats(self) -> int:
        """Total heartbeat probes charged across the machine."""
        return sum(m.heartbeats for m in self.per_pe)

    # Transport aggregates (repro.net.shm; zero on the simulator) ------
    @property
    def total_bytes_moved(self) -> int:
        """Real payload bytes carried by the process transport."""
        return sum(m.bytes_moved for m in self.per_pe)

    @property
    def total_shm_frames(self) -> int:
        """Messages that travelled zero-copy through the shm pool."""
        return sum(m.shm_frames for m in self.per_pe)

    @property
    def total_shm_spills(self) -> int:
        """Messages that fell back to the pickled path."""
        return sum(m.shm_spills for m in self.per_pe)

    @property
    def critical_rank(self) -> int:
        """Rank of the slowest PE (the one defining the makespan)."""
        if not self.per_pe:
            return 0
        return max(range(len(self.per_pe)), key=lambda r: self.per_pe[r].clock)

    def merged_spans(self) -> list[SpanRecord]:
        """All PEs' spans in one machine-wide timeline.

        Sorted by (start, rank, depth) so concurrent spans interleave
        deterministically — the input shape of the exporters in
        :mod:`repro.obs`.
        """
        out: list[SpanRecord] = []
        for m in self.per_pe:
            out.extend(m.spans)
        out.sort(key=lambda s: (s.start, s.rank, s.depth, s.name))
        return out

    def phase_breakdown(self) -> dict[str, float]:
        """Per-phase modelled time: max over PEs of each phase's time.

        Matches Fig. 7's stacked bars, which decompose the *critical
        path* of each run into preprocessing / local / global phases.
        Sub-spans that only ever open *inside* another span (e.g. the
        grid router's hop spans within ``global``) are excluded — their
        time is already part of their enclosing phase, and including
        them would double-count it in any sum over the breakdown.  The
        full nested detail stays available via :meth:`merged_spans`.
        """
        depth0: set[str] = set()
        recorded: set[str] = set()
        for m in self.per_pe:
            for s in m.spans:
                recorded.add(s.name)
                if s.depth == 0:
                    depth0.add(s.name)
        nested_only = recorded - depth0
        phases: dict[str, float] = {}
        for m in self.per_pe:
            for name, t in m.phase_times.items():
                if name in nested_only:
                    continue
                phases[name] = max(phases.get(name, 0.0), t)
        return phases

    def summary(self) -> dict[str, float]:
        """Flat dict for tables / dataframes."""
        out = {
            "num_pes": self.num_pes,
            "time": self.makespan,
            "max_messages": self.max_messages_sent,
            "bottleneck_volume": self.bottleneck_volume,
            "total_volume": self.total_volume,
            "total_messages": self.total_messages,
            "total_ops": self.total_ops,
            "peak_buffer_words": self.max_peak_buffer_words,
            "retransmits": self.total_retransmits,
            "timeouts": self.total_timeouts,
            "messages_dropped": self.total_messages_dropped,
            "duplicates_discarded": self.total_duplicates_discarded,
            "max_retransmits": self.max_retransmits,
            "max_messages_dropped": self.max_messages_dropped,
            "recovery_seconds": self.total_recovery_seconds,
            "heartbeats": self.total_heartbeats,
        }
        for name, t in sorted(self.phase_breakdown().items()):
            out[f"phase_{name}"] = t
        return out
