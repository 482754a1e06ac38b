"""Message envelopes for the simulated network.

A message is point-to-point, tagged, and carries an arbitrary payload
plus its size in machine words.  The *words* field is what the cost
model and the volume metrics consume; payload objects themselves are
never serialized (this is a simulation — what matters is that the
algorithms only read payloads they were sent).
"""

from __future__ import annotations

from typing import Any, Hashable, NamedTuple

__all__ = ["Message", "Tag", "HEADER_WORDS"]

#: Hashable message tag; algorithms use strings or (string, int) pairs.
Tag = Hashable

#: Envelope overhead charged per application-level record inside an
#: aggregated message: the vertex id and the neighborhood length.
HEADER_WORDS = 2


class Message(NamedTuple):
    """One in-flight or delivered message.

    A named tuple, cheap to build once per simulated message; transports
    derive changed copies with ``msg._replace(...)``.

    Attributes
    ----------
    src, dest:
        PE ranks.  For indirectly routed traffic these are the *hop*
        endpoints; the application payload carries the final
        destination.
    tag:
        Routing key used by receivers to select message classes.
    payload:
        Arbitrary Python object (records, arrays, scalars).
    words:
        Size in machine words charged to the cost model.
    send_time:
        Sender's simulated clock when the send *completed* — the
        earliest moment the receiver can observe the message
        (causal timestamp).
    channel_seq:
        Per-(src, dest) channel sequence number stamped by the
        reliable transport (:mod:`repro.net.reliable`) so the receive
        side can deduplicate and preserve FIFO order; ``None`` on the
        fault-free direct path.
    """

    src: int
    dest: int
    tag: Tag
    payload: Any
    words: int
    send_time: float
    channel_seq: int | None = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Message({self.src}->{self.dest}, tag={self.tag!r}, "
            f"words={self.words}, t={self.send_time:.3e})"
        )
