"""Tests for the dynamic buffered message queue (Section IV-A)."""

import numpy as np
import pytest

from post_utils import post_record
from repro.net import BufferedMessageQueue, HEADER_WORDS, Machine
from repro.net.frames import record_words


def _rec(v, size=3):
    """The broadcast record ``(v, [0, size))`` as ``post_record`` arguments."""
    return v, np.arange(size, dtype=np.int64)


def _words(size, target=-1):
    return int(record_words(np.array([size]), np.array([target]))[0])


def test_record_words():
    assert _words(5) == 5 + HEADER_WORDS
    assert _words(5, target=7) == 5 + HEADER_WORDS + 1
    assert _words(5, target=0) == 5 + HEADER_WORDS + 1  # vertex 0 is a target
    assert _words(0) == HEADER_WORDS


def test_no_aggregation_sends_one_message_per_record():
    def prog(ctx):
        q = BufferedMessageQueue(ctx, "t", threshold_words=0)
        if ctx.rank == 0:
            for i in range(5):
                post_record(q, 1, *_rec(i))
        recs = yield from q.finalize()
        return recs.num_records

    res = Machine(2).run(prog)
    assert res.values[1] == 5
    assert res.metrics.per_pe[0].messages_sent >= 5  # one per record (+barrier)


def test_aggregation_batches_into_single_message():
    def prog(ctx):
        q = BufferedMessageQueue(ctx, "t", threshold_words=10_000)
        if ctx.rank == 0:
            for i in range(50):
                post_record(q, 1, *_rec(i))
        recs = yield from q.finalize()
        return recs.num_records

    res = Machine(2).run(prog)
    assert res.values[1] == 50
    # 1 data message + barrier traffic.
    data_msgs = res.metrics.per_pe[0].messages_sent
    import math

    assert data_msgs == 1 + math.ceil(math.log2(2))


def test_threshold_triggers_flush():
    def prog(ctx):
        q = BufferedMessageQueue(ctx, "t", threshold_words=3 * _words(3))
        if ctx.rank == 0:
            for i in range(10):
                post_record(q, 1, *_rec(i))
            flushes_before_finalize = q.flushes
        else:
            flushes_before_finalize = 0
        yield from q.finalize()
        return flushes_before_finalize

    res = Machine(2).run(prog)
    assert res.values[0] >= 2  # multiple mid-run flushes


def test_buffer_high_water_mark_bounded_by_threshold():
    def prog(ctx):
        threshold = 40
        q = BufferedMessageQueue(ctx, "t", threshold_words=threshold)
        if ctx.rank == 0:
            for i in range(100):
                post_record(q, 1, *_rec(i))
        yield from q.finalize()
        return None

    res = Machine(2).run(prog)
    peak = res.metrics.per_pe[0].peak_buffer_words
    # Peak exceeds the threshold by at most one record (flush happens
    # right after the overflowing post) -- the linear-memory guarantee.
    assert peak <= 40 + _words(3)


def test_self_posts_bypass_network():
    def prog(ctx):
        q = BufferedMessageQueue(ctx, "t", threshold_words=100)
        post_record(q, ctx.rank, *_rec(42))
        recs = yield from q.finalize()
        return recs.vertices.tolist()

    res = Machine(3).run(prog)
    assert res.values == [[42]] * 3
    for m in res.metrics.per_pe:
        # only barrier traffic
        assert m.words_sent <= 2 * 2


def test_records_keep_payload_integrity():
    def prog(ctx):
        q = BufferedMessageQueue(ctx, "t", threshold_words=0)
        if ctx.rank == 0:
            post_record(q, 1, 7, [1, 4, 9])
        recs = yield from q.finalize()
        if ctx.rank == 1:
            assert recs.num_records == 1
            return (int(recs.vertices[0]), recs.neighbors.tolist())
        return None

    res = Machine(2).run(prog)
    assert res.values[1] == (7, [1, 4, 9])


def test_negative_threshold_rejected():
    def prog(ctx):
        with pytest.raises(ValueError):
            BufferedMessageQueue(ctx, "t", threshold_words=-1)
        return None
        yield  # pragma: no cover

    Machine(1).run(prog)


def test_volume_matches_record_words():
    def prog(ctx):
        q = BufferedMessageQueue(ctx, "t", threshold_words=10_000)
        if ctx.rank == 0:
            for i in range(10):
                post_record(q, 1, *_rec(i, size=4))
        yield from q.finalize()
        return None

    res = Machine(2).run(prog)
    sent = res.metrics.per_pe[0].words_sent
    expected = 10 * (4 + HEADER_WORDS)
    # plus barrier control words
    assert sent == expected + 1
