"""Collective operations on the simulated machine.

Implemented purely in terms of point-to-point messages so their cost
(alpha/beta and message counts) is accounted like any application
traffic:

* :func:`barrier` — dissemination barrier, ``ceil(log2 p)`` rounds;
* :func:`reduce_to_root` / :func:`bcast` / :func:`allreduce` — binomial
  trees, valid for any ``p``;
* :func:`alltoallv_dense` — the dense irregular exchange (every PE
  sends to every other PE, empty or not: ``p - 1`` messages each),
  used by the paper for the ghost-degree exchange;
* :func:`sparse_alltoall` — the asynchronous sparse all-to-all
  ([Hoefler & Traff] style, paper Section IV-D): only real
  communication partners get messages and termination is detected with
  a barrier once all local sends are posted (the simulation equivalent
  of NBX's non-blocking barrier);
* :func:`drain` — consume every pending message of a tag class.

All collectives are generators; call them with ``yield from``.  Every
PE must enter the same collectives in the same order (the usual MPI
contract).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable

from .machine import PEContext
from .messages import Message, Tag

__all__ = [
    "barrier",
    "reduce_to_root",
    "bcast",
    "allreduce",
    "alltoallv_dense",
    "sparse_alltoall",
    "drain",
]

#: Words charged for a control message with no payload (the envelope).
CONTROL_WORDS = 1


def barrier(ctx: PEContext) -> Generator[None, None, None]:
    """Dissemination barrier: ``ceil(log2 p)`` rounds of shifted messages."""
    p = ctx.num_pes
    if p == 1:
        return
    cid = ctx.enter_collective("barrier")
    k = 1
    rnd = 0
    while k < p:
        tag = ("barrier", cid, rnd)
        ctx.send((ctx.rank + k) % p, tag, None, CONTROL_WORDS)
        yield from ctx.recv(tag)
        k <<= 1
        rnd += 1


def reduce_to_root(
    ctx: PEContext,
    value: Any,
    op: Callable[[Any, Any], Any],
    *,
    words: int = 1,
) -> Generator[None, None, Any]:
    """Binomial-tree reduction to PE 0; returns the result on PE 0.

    ``op`` must be commutative and associative.  ``words`` is the
    payload size of one partial value.
    """
    p = ctx.num_pes
    cid = ctx.enter_collective("reduce")
    tag = ("reduce", cid)
    acc = value
    mask = 1
    while mask < p and not ctx.rank & mask:
        if ctx.rank + mask < p:
            msg = yield from ctx.recv(tag)
            acc = op(acc, msg.payload)
        mask <<= 1
    if mask < p:
        ctx.send(ctx.rank - mask, tag, acc, words)
        return None
    return acc


def bcast(
    ctx: PEContext, value: Any, *, words: int = 1
) -> Generator[None, None, Any]:
    """Binomial-tree broadcast from PE 0; returns the value everywhere."""
    p = ctx.num_pes
    cid = ctx.enter_collective("bcast")
    tag = ("bcast", cid)
    rank = ctx.rank
    if rank != 0:
        parent = rank - (1 << (rank.bit_length() - 1))
        msg = yield from ctx.recv(tag)
        assert msg.src == parent, "binomial tree violated"
        value = msg.payload
    k = rank.bit_length()  # children are rank + 2^k for 2^k > rank
    children = [child for j in range(k, p.bit_length()) if (child := rank + (1 << j)) < p]
    ctx.send_many(children, tag, [value] * len(children), [words] * len(children))
    return value


def allreduce(
    ctx: PEContext,
    value: Any,
    op: Callable[[Any, Any], Any],
    *,
    words: int = 1,
) -> Generator[None, None, Any]:
    """Reduce to root then broadcast — result available on every PE."""
    total = yield from reduce_to_root(ctx, value, op, words=words)
    return (yield from bcast(ctx, total, words=words))


def alltoallv_dense(
    ctx: PEContext,
    payloads: dict[int, tuple[Any, int]],
    *,
    tag_label: str = "a2a",
) -> Generator[None, None, list[Message]]:
    """Dense irregular all-to-all: one message to *every* other PE.

    ``payloads`` maps destination rank to ``(payload, words)``; ranks
    missing from the dict still receive an (empty) control message —
    that p-1-messages-per-PE behaviour is exactly what makes the dense
    exchange expensive at scale and what the sparse variant avoids.
    Data addressed to self is returned locally without a message.

    Returns all ``p - 1`` received messages (plus the self payload, if
    present, as a synthetic message).
    """
    p = ctx.num_pes
    cid = ctx.enter_collective(f"alltoallv:{tag_label}")
    tag = (tag_label, cid)
    dests = [dest for dest in range(p) if dest != ctx.rank]
    sends = [payloads.get(dest, (None, 0)) for dest in dests]
    sizes = [max(int(words), CONTROL_WORDS) for _, words in sends]
    ctx.send_many(dests, tag, [payload for payload, _ in sends], sizes)
    received: list[Message] = []
    if ctx.rank in payloads:
        payload, words = payloads[ctx.rank]
        received.append(Message(ctx.rank, ctx.rank, tag, payload, int(words), ctx.clock))
    need = p - 1
    while need > 0:
        got = ctx.recv_many(tag, need)
        if not got:
            got = [(yield from ctx.recv(tag))]
        received.extend(got)
        need -= len(got)
    return received


def sparse_alltoall(
    ctx: PEContext,
    payloads: Iterable[tuple[int, Any, int]],
    *,
    tag_label: str = "sparse-a2a",
) -> Generator[None, None, list[Message]]:
    """Asynchronous sparse all-to-all with barrier termination detection.

    ``payloads`` yields ``(dest, payload, words)`` triples; only actual
    communication partners receive messages.  After all local sends are
    posted, a barrier establishes that *every* PE has posted all its
    sends (the simulation analogue of NBX's non-blocking barrier), so
    the inbox can be drained to completion.

    Self-addressed payloads are returned locally without a message.

    Delivery assumptions: the exchange tolerates *reordered* and
    *duplicated-then-deduplicated* delivery (receivers key on the tag,
    not arrival order), but the barrier-then-drain termination requires
    that every posted message is eventually delivered exactly once —
    i.e. the fault-free direct path or the reliable transport of
    :mod:`repro.net.reliable`.  Raw loss or app-visible duplicates (the
    lossy transport) break the message count; see the fault-delivery
    tests in ``tests/test_comm.py``.
    """
    cid = ctx.enter_collective(f"sparse-alltoall:{tag_label}")
    tag = (tag_label, cid)
    sends = [(dest, payload, int(words)) for dest, payload, words in payloads]
    out = [send for send in sends if send[0] != ctx.rank]
    ctx.send_many([d for d, _, _ in out], tag, [x for _, x, _ in out], [w for _, _, w in out])
    received = [
        Message(ctx.rank, ctx.rank, tag, x, w, ctx.clock) for d, x, w in sends if d == ctx.rank
    ]
    # NBX discipline: wait for our own sends to finish delivery before
    # entering the barrier — under the contended network model messages
    # are in flight (queueing on links) after ``send`` returns, and a
    # peer must not pass the barrier and drain before they land.  A
    # no-op (zero yields) under instant delivery.
    yield from ctx.sync_sends()
    yield from barrier(ctx)
    received.extend(drain(ctx, tag))
    return received


def drain(ctx: PEContext, tag: Tag) -> list[Message]:
    """Consume and return every pending message with ``tag``.

    Order-insensitive by construction: callers get whatever is queued,
    in queue order, so injected reordering (``repro.faults``) changes
    the list order but never the multiset of messages.
    """
    return ctx.recv_many(tag)
