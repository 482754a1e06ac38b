"""Optional event tracing for simulated runs.

Attach a :class:`Tracer` to a :class:`~repro.net.machine.Machine` and
every send, receive, injected drop, and retransmission is recorded
with its simulated timestamp — the raw material for debugging
protocols (who sent what to whom, and when) and for the timeline
rendering of :func:`render_timeline`.  Phases are not trace events:
``ctx.span`` records them as :class:`SpanRecord` in the PE metrics.

Tracing is strictly opt-in and costs nothing when absent (a single
``is None`` test per event).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

__all__ = ["SpanRecord", "TraceEvent", "Tracer", "render_timeline"]


@dataclass(frozen=True)
class SpanRecord:
    """One closed ``ctx.span`` interval on one PE.

    A span carries its nesting ``depth`` and a decomposition of the
    simulated time spent inside the interval —

    ``comm_time``
        seconds charged at message endpoints (``alpha + beta * words``
        for sends, receives, and acks);
    ``wait_time``
        seconds the PE's clock was fast-forwarded waiting for a
        message's causal timestamp (idle time on the critical path);
    ``retransmit_time``
        seconds charged by the reliable transport for retransmissions
        and duplicate discards (zero on fault-free runs);
    ``recovery_time``
        seconds charged by localized recovery while the span was open
        (a survivor shipping its checkpoint replica or re-sending
        logged messages for a crashed peer; zero on crash-free runs).

    The residue ``elapsed - comm_time - wait_time - retransmit_time -
    recovery_time`` is local compute.  Spans are recorded per PE in
    :attr:`repro.net.metrics.PEMetrics.spans` and merged across PEs by
    :meth:`repro.net.metrics.RunMetrics.merged_spans`; the exporters in
    :mod:`repro.obs` turn them into Chrome traces, CSV tables, and
    terminal flamegraphs.
    """

    rank: int
    name: str
    #: Simulated start/end clocks (seconds).
    start: float
    end: float
    #: Nesting depth: 0 for top-level phases, +1 per enclosing span.
    depth: int
    comm_time: float = 0.0
    wait_time: float = 0.0
    retransmit_time: float = 0.0
    recovery_time: float = 0.0

    @property
    def elapsed(self) -> float:
        """Simulated seconds covered by the span."""
        return self.end - self.start

    @property
    def compute_time(self) -> float:
        """Elapsed time minus communication, waiting, and repair time."""
        return max(
            0.0,
            self.elapsed
            - self.comm_time
            - self.wait_time
            - self.retransmit_time
            - self.recovery_time,
        )


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event.

    ``kind`` is one of:

    * ``"send"`` — a message injection;
    * ``"recv"`` — a message consumption;
    * ``"drop"`` — a wire transmission lost to an injected fault
      (:mod:`repro.faults`);
    * ``"retry"`` — a reliable-transport retransmission after a
      timeout (:mod:`repro.net.reliable`).

    ``peer`` is the message's other endpoint.
    """

    kind: str
    time: float
    rank: int
    peer: int
    tag: Hashable
    words: int


@dataclass
class Tracer:
    """Collects trace events; attach via ``Machine(..., tracer=...)``."""

    events: list[TraceEvent] = field(default_factory=list)

    def send(self, time: float, src: int, dest: int, tag, words: int) -> None:
        """Log a message injection."""
        self.events.append(TraceEvent("send", time, src, dest, tag, words))

    def recv(self, time: float, rank: int, src: int, tag, words: int) -> None:
        """Log a message consumption."""
        self.events.append(TraceEvent("recv", time, rank, src, tag, words))

    def drop(self, time: float, src: int, dest: int, tag, words: int) -> None:
        """Log a wire transmission lost to an injected fault."""
        self.events.append(TraceEvent("drop", time, src, dest, tag, words))

    def retry(self, time: float, src: int, dest: int, tag, words: int) -> None:
        """Log a reliable-transport retransmission after a timeout."""
        self.events.append(TraceEvent("retry", time, src, dest, tag, words))

    # ------------------------------------------------------------ query
    def messages_between(self, src: int, dest: int) -> list[TraceEvent]:
        """All sends from ``src`` to ``dest`` in order."""
        return [e for e in self.events if e.kind == "send" and e.rank == src and e.peer == dest]

    def words_by_tag(self) -> dict[Hashable, int]:
        """Total sent words per tag class (protocol volume breakdown)."""
        out: dict[Hashable, int] = {}
        for e in self.events:
            if e.kind == "send":
                out[e.tag] = out.get(e.tag, 0) + e.words
        return out


def render_timeline(tracer: Tracer, *, max_events: int = 40) -> str:
    """A human-readable event log, chronologically ordered."""
    events = sorted(tracer.events, key=lambda e: (e.time, e.kind))
    lines = [f"{'time [us]':>12s}  event"]
    for e in events[:max_events]:
        t = e.time * 1e6
        if e.kind == "send":
            lines.append(f"{t:12.3f}  PE{e.rank} -> PE{e.peer}  {e.words}w  tag={e.tag!r}")
        elif e.kind == "recv":
            lines.append(f"{t:12.3f}  PE{e.rank} <- PE{e.peer}  {e.words}w  tag={e.tag!r}")
        elif e.kind == "drop":
            lines.append(
                f"{t:12.3f}  PE{e.rank} -x PE{e.peer}  {e.words}w  tag={e.tag!r}  DROPPED"
            )
        else:
            lines.append(
                f"{t:12.3f}  PE{e.rank} ~> PE{e.peer}  {e.words}w  tag={e.tag!r}  RETRY"
            )
    if len(events) > max_events:
        lines.append(f"... {len(events) - max_events} more events")
    return "\n".join(lines)
