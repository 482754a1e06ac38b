"""Property-style equivalence suite for the packed frame wire format.

The contract under test (``docs/PERFORMANCE.md``): the frame path
(``post_many`` + :class:`RecordFrame` receive) is observationally
identical to the legacy path (one ``post(Record(...))`` per record) —
same received contents, same charged words, same flush boundaries, same
kernel totals — on the simulated :class:`Machine` and on the real
process backend :class:`ProcessMachine`.
"""

import math

import numpy as np
import pytest

from repro.net import (
    HEADER_WORDS,
    BufferedMessageQueue,
    GridRouter,
    Machine,
    Record,
    RecordFrame,
    flatten_records,
    merge_frames,
)
from repro.net.frames import BROADCAST, FrameBuilder
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


def _records_of(dests, vertices, targets, xadj, neighbors):
    out = []
    for i in range(dests.size):
        t = int(targets[i])
        out.append(
            (
                int(dests[i]),
                Record(
                    int(vertices[i]),
                    neighbors[xadj[i] : xadj[i + 1]],
                    target=None if t == BROADCAST else t,
                ),
            )
        )
    return out


def _canon(received):
    """Order-preserving canonical form of a received record sequence."""
    out = []
    for r in received:
        t = BROADCAST if r.target is None else int(r.target)
        out.append((int(r.vertex), t, tuple(r.neighbors.tolist())))
    return out


# ---------------------------------------------------------------------------
# Pure frame properties (no machine).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_frame_words_equal_record_word_sum(seed):
    rng = np.random.default_rng(seed)
    _, vertices, targets, xadj, neighbors = _random_batch(rng, 4, 40)
    frame = RecordFrame(vertices, targets, xadj, neighbors)
    records = frame.to_records()
    assert frame.words == sum(r.words for r in records)
    assert frame.record_words().tolist() == [r.words for r in records]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_from_records_roundtrip_and_select(seed):
    rng = np.random.default_rng(seed)
    _, vertices, targets, xadj, neighbors = _random_batch(rng, 4, 25)
    frame = RecordFrame(vertices, targets, xadj, neighbors)
    again = RecordFrame.from_records(frame.to_records())
    assert _canon(again) == _canon(frame)
    idx = rng.permutation(len(frame))[:10]
    sub = frame.select(np.sort(idx))
    expected = [_canon(frame)[i] for i in np.sort(idx)]
    assert _canon(sub) == expected
    assert sub.words == sum(frame.record_words()[np.sort(idx)])


def test_merge_and_flatten_agree():
    rng = np.random.default_rng(7)
    frames = []
    for _ in range(3):
        _, v, t, x, a = _random_batch(rng, 4, 10)
        frames.append(RecordFrame(v, t, x, a))
    merged = merge_frames(frames)
    flat = flatten_records(frames)
    assert _canon(merged) == _canon(flat)
    assert merged.words == sum(f.words for f in frames)


def test_builder_matches_from_records():
    rng = np.random.default_rng(11)
    _, vertices, targets, xadj, neighbors = _random_batch(rng, 4, 20)
    frame = RecordFrame(vertices, targets, xadj, neighbors)
    b = FrameBuilder()
    for rec in frame:
        b.append_record(rec)
    assert _canon(b.build()) == _canon(frame)


# ---------------------------------------------------------------------------
# Machine equivalence: post_many vs one post() per Record.
# ---------------------------------------------------------------------------

#: Thresholds covering no aggregation, frequent mid-run flushes, and a
#: single big flush at finalize.
THRESHOLDS = [0, 25, 10_000]


def _post_batch(queue, mode, calls, dests, vertices, targets, xadj, neighbors):
    """Post a batch via ``calls`` consecutive ``post_many`` calls or per record.

    Splitting the batch makes later calls start with records carried
    over in the builders from earlier ones.
    """
    if mode == "frames":
        cuts = np.linspace(0, dests.size, calls + 1).astype(np.int64)
        for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            queue.post_many(
                dests[lo:hi],
                vertices[lo:hi],
                targets[lo:hi],
                xadj[lo : hi + 1] - xadj[lo],
                neighbors[xadj[lo] : xadj[hi]],
            )
    else:
        for dest, rec in _records_of(dests, vertices, targets, xadj, neighbors):
            queue.post(dest, rec)


def exchange_program(ctx, seed, threshold, mode, n=60, calls=1):
    """Post a pseudo-random batch, legacy- or frame-style, and drain."""
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


@pytest.mark.parametrize("seed", [1, 2])
def test_machine_equivalence_with_empty_and_self_only_batches(seed):
    def prog(ctx, mode):
        q = BufferedMessageQueue(ctx, "t", threshold_words=50)
        z = np.empty(0, dtype=np.int64)
        if mode == "frames":
            # Empty batch, then a self-post-only batch.
            q.post_many(z, z, z, np.zeros(1, dtype=np.int64), z)
            q.post_many(
                np.array([ctx.rank], dtype=np.int64),
                np.array([9], dtype=np.int64),
                np.array([BROADCAST], dtype=np.int64),
                np.array([0, 2], dtype=np.int64),
                np.array([4, 5], dtype=np.int64),
            )
        else:
            q.post(ctx.rank, Record(9, np.array([4, 5], dtype=np.int64)))
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

    by_frame = Machine(1).run(prog, frame)
    by_list = Machine(1).run(prog, merge_frames(frame.to_records()))
    assert by_frame.values == by_list.values
    assert by_frame.time == by_list.time


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
