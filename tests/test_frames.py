"""Property-style equivalence suite for the packed frame wire format.

The contract under test (``docs/PERFORMANCE.md``): the frame path
(``post_many`` + :class:`RecordFrame` receive) is observationally
identical to the reference path, "legacy" below (one single-record
``post_many`` call per record, in batch order) —
same received contents, same charged words, same flush boundaries, same
kernel totals — on the simulated :class:`Machine` and on the real
process backend :class:`ProcessMachine`.
"""

import math

import numpy as np
import pytest
from post_utils import post_record

from repro.net import (
    HEADER_WORDS,
    BufferedMessageQueue,
    GridRouter,
    Machine,
    RecordFrame,
    merge_frames,
)
from repro.net.frames import BROADCAST, ForwardFrame, gather_blocks, group_frames, record_words
from repro.net.parallel import ProcessMachine


def _random_batch(rng, num_pes, n):
    """A messy record batch: mixed shapes, empty neighborhoods, self posts."""
    dests = rng.integers(0, num_pes, size=n).astype(np.int64)
    vertices = rng.integers(0, 500, size=n).astype(np.int64)
    # Roughly half broadcast (-1), half targeted.
    targets = np.where(
        rng.random(n) < 0.5, BROADCAST, rng.integers(0, 500, size=n)
    ).astype(np.int64)
    sizes = rng.integers(0, 7, size=n).astype(np.int64)  # includes empty
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=xadj[1:])
    neighbors = rng.integers(0, 1000, size=int(xadj[-1])).astype(np.int64)
    return dests, vertices, targets, xadj, neighbors


def _canon(frame):
    """Order-preserving canonical form of a frame's records."""
    x = frame.xadj.tolist()
    return [
        (v, t, tuple(frame.neighbors[x[i] : x[i + 1]].tolist()))
        for i, (v, t) in enumerate(zip(frame.vertices.tolist(), frame.targets.tolist()))
    ]


def _reference_words(frame):
    """Per-record charge, one record at a time: block + header, plus one
    word for a targeted record."""
    x = frame.xadj.tolist()
    return [
        x[i + 1] - x[i] + HEADER_WORDS + (1 if t >= 0 else 0)
        for i, t in enumerate(frame.targets.tolist())
    ]


# ---------------------------------------------------------------------------
# Pure frame properties (no machine).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_frame_words_equal_record_word_sum(seed):
    rng = np.random.default_rng(seed)
    _, vertices, targets, xadj, neighbors = _random_batch(rng, 4, 40)
    frame = RecordFrame(vertices, targets, xadj, neighbors)
    assert frame.words == sum(_reference_words(frame))
    assert record_words(np.diff(xadj), targets).tolist() == _reference_words(frame)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gather_picks_records_by_slot(seed):
    rng = np.random.default_rng(seed)
    _, vertices, targets, xadj, neighbors = _random_batch(rng, 4, 25)
    frame = RecordFrame(vertices, targets, xadj, neighbors)
    # Records picked by slot, repeats included, as the queue gathers them.
    idx = rng.integers(0, frame.num_records, size=12)
    gathered, gxadj = gather_blocks(xadj, neighbors, idx)
    sub = RecordFrame(vertices[idx], targets[idx], gxadj, gathered)
    assert _canon(sub) == [_canon(frame)[i] for i in idx]
    assert sub.words == sum(_reference_words(frame)[i] for i in idx)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_group_frames_splits_runs_of_equal_keys(seed):
    rng = np.random.default_rng(seed)
    _, vertices, targets, xadj, neighbors = _random_batch(rng, 4, 30)
    keys = rng.integers(0, 5, size=30).astype(np.int64)
    slots = rng.permutation(30).astype(np.int64)
    order, starts, frames = group_frames(keys, 5, vertices, targets, slots, xadj, neighbors)
    whole = _canon(RecordFrame(vertices, targets, xadj, neighbors))
    # One frame per distinct key, ascending, each in batch order.
    assert order.tolist() == sorted(range(30), key=lambda i: (keys[i], i))
    assert [int(keys[order[s]]) for s in starts[:-1]] == sorted(set(keys.tolist()))
    assert starts[-1] == 30
    for frame, key in zip(frames, sorted(set(keys.tolist()))):
        picked = [i for i in range(30) if keys[i] == key]
        assert _canon(frame) == [
            (int(vertices[i]), int(targets[i]), whole[slots[i]][2]) for i in picked
        ]
        assert frame.xadj[0] == 0
        for a in (frame.vertices, frame.targets, frame.xadj, frame.neighbors):
            assert not a.flags.writeable
    z = np.empty(0, dtype=np.int64)
    _, starts, frames = group_frames(z, 1, z, z, z, np.zeros(1, dtype=np.int64), z)
    assert starts.tolist() == [0] and frames == []


def test_merge_of_one_part_returns_it():
    rng = np.random.default_rng(3)
    frame = RecordFrame(*_random_batch(rng, 4, 10)[1:])
    fwd = ForwardFrame(np.arange(10, dtype=np.int64), frame)
    assert merge_frames([frame]) is frame
    assert merge_frames([fwd]) is fwd


def test_merge_builds_xadj_in_one_pass():
    rng = np.random.default_rng(4)
    frames = [RecordFrame(*_random_batch(rng, 4, n)[1:]) for n in (5, 0, 7, 1)]
    merged = merge_frames(frames)
    assert merged.xadj.tolist() == np.concatenate(
        ([0], np.cumsum(np.concatenate([np.diff(f.xadj) for f in frames])))
    ).tolist()
    assert _canon(merged) == [r for f in frames for r in _canon(f)]
    for a in (merged.vertices, merged.targets, merged.xadj, merged.neighbors):
        assert not a.flags.writeable


def test_merge_equals_records_of_parts():
    rng = np.random.default_rng(7)
    frames = []
    for _ in range(3):
        _, v, t, x, a = _random_batch(rng, 4, 10)
        frames.append(RecordFrame(v, t, x, a))
    merged = merge_frames(frames)
    assert _canon(merged) == [r for f in frames for r in _canon(f)]
    reference = sum(sum(_reference_words(f)) for f in frames)
    assert merged.words == reference == sum(f.words for f in frames)


def test_merge_rejects_mixed_forward_and_plain_parts():
    rng = np.random.default_rng(13)
    _, vertices, targets, xadj, neighbors = _random_batch(rng, 4, 6)
    plain = RecordFrame(vertices, targets, xadj, neighbors)
    forward = ForwardFrame(np.zeros(plain.num_records, dtype=np.int64), plain)
    for parts in ([plain, forward], [forward, plain], [forward, forward, plain]):
        with pytest.raises(ValueError, match="ForwardFrame"):
            merge_frames(parts)


def test_merge_concatenates_forward_final_dests():
    rng = np.random.default_rng(14)
    parts = [
        ForwardFrame(
            rng.integers(0, 9, size=n), RecordFrame(*_random_batch(rng, 4, n)[1:])
        )
        for n in (3, 0, 5)
    ]
    merged = merge_frames(parts)
    assert isinstance(merged, ForwardFrame)
    assert merged.final_dests.tolist() == [d for p in parts for d in p.final_dests.tolist()]
    assert _canon(merged.frame) == [r for p in parts for r in _canon(p.frame)]
    assert merged.words == sum(p.words for p in parts)


# ---------------------------------------------------------------------------
# Machine equivalence: post_many vs one single-record call per record.
# ---------------------------------------------------------------------------

#: Thresholds covering no aggregation, frequent mid-run flushes, and a
#: single big flush at finalize.
THRESHOLDS = [0, 25, 10_000]


def _slot_source(rng, xadj, neighbors):
    """A source CSR holding every block of a batch, and each record's slot.

    Records with equal neighborhoods share one slot, so slots repeat;
    the blocks sit in a random order among extra blocks that no record
    references.
    """
    blocks = [tuple(neighbors[xadj[i] : xadj[i + 1]].tolist()) for i in range(xadj.size - 1)]
    extra = [tuple(rng.integers(0, 1000, size=s).tolist()) for s in rng.integers(1, 5, 9)]
    pool = sorted(set(blocks)) + extra
    source = [pool[j] for j in rng.permutation(len(pool))]
    slot_of = {block: slot for slot, block in enumerate(source)}
    slots = np.array([slot_of[b] for b in blocks], dtype=np.int64)
    src_xadj = np.concatenate(([0], np.cumsum([len(b) for b in source]))).astype(np.int64)
    return slots, src_xadj, np.array([v for b in source for v in b], dtype=np.int64)


def _post_batch(queue, mode, calls, dests, vertices, targets, xadj, neighbors):
    """Post a batch via ``calls`` consecutive ``post_many`` calls or per record.

    ``"legacy"`` is the reference: one single-record ``post_many`` per
    record, in batch order.
    ``"frames"`` posts the batch's own CSR slot by slot; ``"slots"``
    posts from a larger, permuted source CSR (:func:`_slot_source`).
    Splitting the batch makes later calls start with records carried
    over in the builders from earlier ones.
    """
    if mode == "legacy":
        for i in range(dests.size):
            one = slice(i, i + 1)
            queue.post_many(
                dests[one], vertices[one], targets[one], np.array([i]), xadj, neighbors
            )
        return
    slots = np.arange(dests.size, dtype=np.int64)
    if mode == "slots":
        rng = np.random.default_rng(int(dests.size) + int(neighbors.sum()))
        slots, xadj, neighbors = _slot_source(rng, xadj, neighbors)
        assert np.unique(slots).size < slots.size  # some slots repeat
    cuts = np.linspace(0, dests.size, calls + 1).astype(np.int64)
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        queue.post_many(
            dests[lo:hi], vertices[lo:hi], targets[lo:hi], slots[lo:hi], xadj, neighbors
        )


def exchange_program(ctx, seed, threshold, mode, n=60, calls=1):
    """Post a pseudo-random batch, one record per call or batched, and drain."""
    rng = np.random.default_rng(seed * 1000 + ctx.rank)
    batch = _random_batch(rng, ctx.num_pes, n)
    q = BufferedMessageQueue(ctx, "t", threshold_words=threshold)
    _post_batch(q, mode, calls, *batch)
    flushes = q.flushes
    received = yield from q.finalize()
    return (flushes, _canon(received), q.records_posted)


def grid_exchange_program(ctx, seed, threshold, mode, n=60, calls=1):
    """The same exchange routed through the two-hop grid router."""
    rng = np.random.default_rng(seed * 1000 + ctx.rank)
    batch = _random_batch(rng, ctx.num_pes, n)
    router = GridRouter(ctx, "t", threshold_words=threshold)
    _post_batch(router, mode, calls, *batch)
    received = yield from router.finalize()
    return (
        router._row_queue.flushes,
        router._col_queue.flushes,
        _canon(received),
        router.records_posted,
    )


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_machine_frame_path_is_bit_identical_to_legacy(seed, threshold):
    legacy = Machine(4).run(exchange_program, seed, threshold, "legacy")
    frames = Machine(4).run(exchange_program, seed, threshold, "frames")
    # Same received contents in the same order, same flush boundaries,
    # same per-record bookkeeping.
    assert frames.values == legacy.values
    # Same charged communication: words, message count, simulated time.
    for fm, lm in zip(frames.metrics.per_pe, legacy.metrics.per_pe):
        assert fm.words_sent == lm.words_sent
        assert fm.messages_sent == lm.messages_sent
        assert fm.peak_buffer_words == lm.peak_buffer_words
    assert frames.time == legacy.time


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("seed", [1, 2])
def test_machine_multi_call_frame_path_is_bit_identical_to_legacy(seed, threshold):
    legacy = Machine(5).run(exchange_program, seed, threshold, "legacy")
    frames = Machine(5).run(exchange_program, seed, threshold, "frames", 60, 3)
    assert frames.values == legacy.values
    for fm, lm in zip(frames.metrics.per_pe, legacy.metrics.per_pe):
        assert fm.words_sent == lm.words_sent
        assert fm.messages_sent == lm.messages_sent
        assert fm.peak_buffer_words == lm.peak_buffer_words
        assert fm.clock == lm.clock
    assert frames.time == legacy.time


@pytest.mark.parametrize("calls", [1, 3])
@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("p", [2, 5, 7, 16, 23])
def test_grid_router_frame_path_matches_legacy(p, seed, threshold, calls):
    legacy = Machine(p).run(grid_exchange_program, seed, threshold, "legacy")
    frames = Machine(p).run(
        grid_exchange_program, seed, threshold, "frames", 60, calls
    )
    # Same received contents in the same order, same row and column
    # flush counts, same per-record bookkeeping.
    assert frames.values == legacy.values
    for fm, lm in zip(frames.metrics.per_pe, legacy.metrics.per_pe):
        assert fm.words_sent == lm.words_sent
        assert fm.messages_sent == lm.messages_sent
        assert fm.peak_buffer_words == lm.peak_buffer_words
        # The frame path sends all direct column-queue flushes of a
        # batch before its row-queue flushes, where per-record posting
        # interleaves them; the same send charges are then summed in a
        # different order, which can move a clock by its last ulp.
        assert math.isclose(fm.clock, lm.clock, rel_tol=1e-12)
    assert math.isclose(frames.time, legacy.time, rel_tol=1e-12)


@pytest.mark.parametrize("calls", [1, 3])
@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("seed", [1, 2])
def test_machine_slot_path_is_bit_identical_to_legacy(seed, threshold, calls):
    legacy = Machine(5).run(exchange_program, seed, threshold, "legacy")
    slots = Machine(5).run(exchange_program, seed, threshold, "slots", 60, calls)
    assert slots.values == legacy.values
    for fm, lm in zip(slots.metrics.per_pe, legacy.metrics.per_pe):
        assert fm.words_sent == lm.words_sent
        assert fm.messages_sent == lm.messages_sent
        assert fm.peak_buffer_words == lm.peak_buffer_words
        assert fm.clock == lm.clock
    assert slots.time == legacy.time


@pytest.mark.parametrize("calls", [1, 3])
@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("p", [5, 16])
def test_grid_router_slot_path_matches_legacy(p, threshold, calls):
    legacy = Machine(p).run(grid_exchange_program, 1, threshold, "legacy")
    slots = Machine(p).run(grid_exchange_program, 1, threshold, "slots", 60, calls)
    assert slots.values == legacy.values
    for fm, lm in zip(slots.metrics.per_pe, legacy.metrics.per_pe):
        assert fm.words_sent == lm.words_sent
        assert fm.messages_sent == lm.messages_sent
        assert fm.peak_buffer_words == lm.peak_buffer_words
        # Same last-ulp caveat as the frame path above.
        assert math.isclose(fm.clock, lm.clock, rel_tol=1e-12)


@pytest.mark.parametrize("threshold", [25, 10_000])
def test_flushed_and_finalized_frames_are_read_only(threshold):
    def prog(ctx):
        sent = []
        send_many = ctx.send_many
        ctx.send_many = lambda dests, tag, payloads, words: (
            sent.extend(payloads), send_many(dests, tag, payloads, words)
        )
        rng = np.random.default_rng(ctx.rank)
        q = BufferedMessageQueue(ctx, "t", threshold_words=threshold)
        _post_batch(q, "slots", 1, *_random_batch(rng, ctx.num_pes, 60))
        received = yield from q.finalize()
        del ctx.send_many
        return [f for f in sent if isinstance(f, RecordFrame)], received

    for sent, received in Machine(3).run(prog).values:
        assert sent
        for frame in [*sent, received]:
            for a in (frame.vertices, frame.targets, frame.xadj, frame.neighbors):
                assert not a.flags.writeable
            if frame.neighbors.size:
                with pytest.raises(ValueError):
                    frame.neighbors[0] = -7


def test_tric_staged_frames_are_read_only():
    from repro.baselines import tric_program
    from repro.graphs import distribute
    from repro.graphs import generators as gen

    def prog(ctx, dist):
        sent = []
        send_many = ctx.send_many
        ctx.send_many = lambda dests, tag, payloads, words: (
            sent.extend(payloads), send_many(dests, tag, payloads, words)
        )
        counts = yield from tric_program(ctx, dist)
        del ctx.send_many
        return [f for f in sent if isinstance(f, RecordFrame)], counts

    dist = distribute(gen.gnm(200, 1500, seed=3), num_pes=4)
    values = Machine(4).run(prog, dist).values
    # The vertex-ID order sends only to higher ranks.
    assert all(sent for sent, _ in values[:-1])
    for sent, counts in values:
        # The static buffer holds exactly the frames that leave.
        assert counts.staged_words == sum(f.words for f in sent)
        for frame in sent:
            assert frame.xadj[0] == 0
            for a in (frame.vertices, frame.targets, frame.xadj, frame.neighbors):
                assert not a.flags.writeable
            assert np.all(frame.targets == BROADCAST)


@pytest.mark.parametrize("seed", [1, 2])
def test_machine_equivalence_with_empty_and_self_only_batches(seed):
    def prog(ctx, mode):
        q = BufferedMessageQueue(ctx, "t", threshold_words=50)
        z = np.empty(0, dtype=np.int64)
        if mode == "frames":
            # Empty batch, then a self-post-only batch.
            q.post_many(z, z, z, z, np.zeros(1, dtype=np.int64), z)
            q.post_many(
                np.array([ctx.rank], dtype=np.int64),
                np.array([9], dtype=np.int64),
                np.array([BROADCAST], dtype=np.int64),
                np.array([1], dtype=np.int64),
                np.array([0, 1, 3], dtype=np.int64),
                np.array([8, 4, 5], dtype=np.int64),
            )
        else:
            post_record(q, ctx.rank, 9, [4, 5])
        received = yield from q.finalize()
        return _canon(received)

    legacy = Machine(3).run(prog, "legacy")
    frames = Machine(3).run(prog, "frames")
    assert frames.values == legacy.values == [[(9, BROADCAST, (4, 5))]] * 3


# ---------------------------------------------------------------------------
# Kernel totals: a frame and its record list count identically.
# ---------------------------------------------------------------------------


def _sorted_batch(rng, num_pes, n):
    """Batch with sorted-unique neighborhoods (kernel precondition)."""
    dests, vertices, targets, xadj, _ = _random_batch(rng, num_pes, n)
    sizes = np.diff(xadj)
    chunks = [
        np.sort(rng.choice(100, size=int(s), replace=False)).astype(np.int64)
        for s in sizes
    ]
    neighbors = (
        np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    )
    # Clamp targets into the receiver's local window [0, 50).
    targets = np.where(targets == BROADCAST, BROADCAST, targets % 50)
    return dests, vertices, targets, xadj, neighbors


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_count_record_pairs_frame_equals_record_list(seed):
    from repro.core.kernels import count_record_pairs

    rng = np.random.default_rng(seed)
    _, vertices, targets, xadj, neighbors = _sorted_batch(rng, 4, 30)
    frame = RecordFrame(vertices, targets, xadj, neighbors)
    # A local CSR over vertices [0, 50): each has a sorted neighborhood.
    lx = np.zeros(51, dtype=np.int64)
    np.cumsum(rng.integers(0, 6, size=50), out=lx[1:])
    ladj = np.sort(rng.integers(0, 100, size=int(lx[-1]))).astype(np.int64)

    def prog(ctx, records):
        total = count_record_pairs(ctx, records, lx, ladj, 0, 50, 101)
        charged = ctx.metrics.local_ops
        return total, charged
        yield  # pragma: no cover

    # The same records packed one per frame and merged again.
    singles = []
    for i in range(frame.num_records):
        block, bxadj = gather_blocks(xadj, neighbors, [i])
        singles.append(RecordFrame(vertices[i : i + 1], targets[i : i + 1], bxadj, block))
    by_frame = Machine(1).run(prog, frame)
    by_list = Machine(1).run(prog, merge_frames(singles))
    assert by_frame.values == by_list.values
    assert by_frame.time == by_list.time


def _reference_expand(frame, vlo, vhi):
    """Per-record loop: the (record, owned target) pairs of a received
    frame and the scan charges, targeted records first, then broadcast
    entries in order."""
    x, nb, tg = frame.xadj.tolist(), frame.neighbors.tolist(), frame.targets.tolist()
    targeted = [i for i, t in enumerate(tg) if t != BROADCAST]
    broadcast = [i for i, t in enumerate(tg) if t == BROADCAST]
    pairs = [(i, tg[i]) for i in targeted if vlo <= tg[i] < vhi]
    pairs += [(i, u) for i in broadcast for u in nb[x[i] : x[i + 1]] if vlo <= u < vhi]
    charges = [len(targeted)] if targeted else []
    if broadcast:
        charges.append(sum(x[i + 1] - x[i] for i in broadcast))
    return pairs, charges


def _receiver_frames():
    rng = np.random.default_rng(12)
    _, vertices, targets, xadj, neighbors = _sorted_batch(rng, 4, 30)
    broadcast = np.full(30, BROADCAST, dtype=np.int64)
    z = np.empty(0, dtype=np.int64)
    return {
        "mixed": RecordFrame(vertices, targets, xadj, neighbors),
        "all-broadcast": RecordFrame(vertices, broadcast, xadj, neighbors),
        "all-targeted": RecordFrame(vertices, targets % 50, xadj, neighbors),
        "broadcast-no-words": RecordFrame(
            vertices[:3], broadcast[:3], np.zeros(4, dtype=np.int64), z
        ),
        "empty": RecordFrame.empty(),
    }


@pytest.mark.parametrize("shape", list(_receiver_frames()))
def test_receiver_expansion_matches_per_record_reference(shape):
    from repro.core.kernels import _expand_record_pairs

    frame = _receiver_frames()[shape]

    def prog(ctx, reference):
        # Record every charge call: even charge(0) is a scheduling event.
        calls, charge = [], ctx.charge
        ctx.charge = lambda ops: (calls.append(int(ops)), charge(ops))
        if reference:
            pairs, charges = _reference_expand(frame, 20, 70)
            for ops in charges:
                ctx.charge(ops)
        else:
            _, _, rec_idx, targets = _expand_record_pairs(ctx, frame, 20, 70)
            pairs = list(zip(rec_idx.tolist(), targets.tolist()))
        del ctx.charge
        return pairs, calls, ctx.metrics.clock
        yield  # pragma: no cover

    got = Machine(1).run(prog, False).values
    assert got == Machine(1).run(prog, True).values
    if shape == "empty":
        assert got == [([], [], 0.0)]
    if shape == "broadcast-no-words":
        assert got == [([], [0], 0.0)]


# ---------------------------------------------------------------------------
# ProcessMachine: the frame path survives real pickling across processes.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["legacy", "frames"])
def test_process_machine_exchange_matches_simulator(mode):
    sim = Machine(2).run(exchange_program, 4, 25, mode, 30)
    par = ProcessMachine(2).run(exchange_program, 4, 25, mode, 30)
    # Contents are set-identical per PE (real delivery may interleave
    # sources differently); flush counts and words are exact.
    for (sf, sc, sp), (pf, pc, pp) in zip(sim.values, par.values):
        assert sf == pf
        assert sp == pp
        assert sorted(sc) == sorted(pc)
    for sm, pm in zip(sim.metrics.per_pe, par.metrics.per_pe):
        assert sm.words_sent == pm.words_sent
        assert sm.messages_sent == pm.messages_sent


def test_process_machine_frame_path_matches_legacy_words():
    legacy = ProcessMachine(2).run(exchange_program, 9, 25, "legacy", 30)
    frames = ProcessMachine(2).run(exchange_program, 9, 25, "frames", 30)
    for (lf, lc, lp), (ff, fc, fp) in zip(legacy.values, frames.values):
        assert lf == ff
        assert lp == fp
        assert sorted(lc) == sorted(fc)
    for lm, fm in zip(legacy.metrics.per_pe, frames.metrics.per_pe):
        assert lm.words_sent == fm.words_sent
        assert lm.messages_sent == fm.messages_sent


def test_process_machine_grid_router_matches_simulator():
    # Row frames above the pool's size floor travel through shared
    # memory, so the proxies merge read-only shm-backed frames.
    sim = Machine(5).run(grid_exchange_program, 6, 10_000, "frames", 80, 3)
    par = ProcessMachine(5).run(grid_exchange_program, 6, 10_000, "frames", 80, 3)
    assert sum(pm.shm_frames for pm in par.metrics.per_pe) > 0
    for (sr, scol, sc, sp), (pr, pcol, pc, pp) in zip(sim.values, par.values):
        assert (sr, scol, sp) == (pr, pcol, pp)
        assert sorted(sc) == sorted(pc)
    for sm, pm in zip(sim.metrics.per_pe, par.metrics.per_pe):
        assert sm.words_sent == pm.words_sent
        assert sm.messages_sent == pm.messages_sent
        assert sm.peak_buffer_words == pm.peak_buffer_words
