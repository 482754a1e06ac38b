"""Wall-clock win of the packed frame wire format (the PR headline).

Two arms exchange the *same* cut-neighborhood batches (RMAT scale 14,
p = 16, aggregation on) through the buffered queue:

* **legacy** — one single-record ``post_many(...)`` call per cut arc
  on the send side, and a receiver that steps through the frame arrays
  one record at a time: the per-record hot path;
* **frames** — one ``post_many(...)`` call of CSR slot references per
  PE (the queue gathers each neighborhood once) and the
  :class:`RecordFrame` arrays consumed directly.

Both arms are charge-identical (property-tested in
``tests/test_frames.py``); here we measure the Python wall time the
frame path removes and assert the headline >= 2x speedup.  The emitted
``wall_seconds`` rows land in ``BENCH_<date>.json`` so the win stays
visible in benchmark history.
"""

import time

import harness
import numpy as np
import pytest
from conftest import run_once, save_artifact

from repro.core.engine import _surrogate_filter
from repro.core.orientation import orient_by_degree
from repro.graphs import generators as gen
from repro.graphs.distributed import distribute
from repro.net import BufferedMessageQueue, Machine

SCALE = 14
NUM_PES = 16


@pytest.fixture(scope="module")
def cut_batches():
    """Per-rank cut-arc batches of an oriented RMAT graph (scale 14).

    The orientation is computed globally (no simulated exchange needed
    for a sender benchmark); per rank we keep the surrogate-filtered
    cut arcs — exactly the record stream the engine's global phase
    posts.
    """
    g = gen.rmat(SCALE, 16, seed=1)
    dist = distribute(g, num_pes=NUM_PES)
    og = orient_by_degree(g)
    batches = []
    threshold = 0
    for rank in range(NUM_PES):
        lg = dist.view(rank)
        vlo, vhi = lg.vlo, lg.vhi
        src = np.repeat(
            np.arange(vlo, vhi, dtype=np.int64), np.diff(og.xadj[vlo : vhi + 1])
        )
        dst = og.adjncy[og.xadj[vlo] : og.xadj[vhi]]
        cut = lg.partition.rank_of(dst) != rank
        c_src, c_dst = src[cut], dst[cut]
        dst_ranks = lg.partition.rank_of(c_dst) if c_dst.size else c_dst
        sends = _surrogate_filter(c_src, dst_ranks, enabled=True)
        slots = c_src[sends]
        targets = np.full(slots.size, -1, dtype=np.int64)
        batches.append((dst_ranks[sends], slots, targets, og.xadj, og.adjncy))
        threshold = max(threshold, int(lg.num_local_arcs))
    return batches, threshold


def exchange_program(ctx, batches, threshold, mode):
    # The orientation is global, so a vertex id is its own CSR slot.
    dests, slots, targets, xadj, adj = batches[ctx.rank]
    q = BufferedMessageQueue(ctx, "nbh", threshold_words=threshold)
    if mode == "frames":
        q.post_many(dests, slots, targets, slots, xadj, adj)
    else:
        for i in range(dests.size):
            one = slice(i, i + 1)
            q.post_many(dests[one], slots[one], targets[one], slots[one], xadj, adj)
    received = yield from q.finalize()
    if mode == "frames":
        return received.num_records, int(received.neighbors.size)
    # Legacy receiver: one Python step per record over the frame arrays.
    bounds = received.xadj
    words = 0
    for i in range(received.num_records):
        words += int(bounds[i + 1] - bounds[i])
    return received.num_records, words


def test_bench_frame_path_speedup(benchmark, cut_batches, results_dir):
    batches, threshold = cut_batches
    posted = sum(b[0].size for b in batches)

    def both_arms():
        t0 = time.perf_counter()
        legacy = Machine(NUM_PES).run(exchange_program, batches, threshold, "legacy")
        t1 = time.perf_counter()
        frames = Machine(NUM_PES).run(exchange_program, batches, threshold, "frames")
        t2 = time.perf_counter()
        return legacy, frames, t1 - t0, t2 - t1

    legacy, frames, wall_legacy, wall_frames = run_once(benchmark, both_arms)

    # Same exchange, observationally: contents, charges, clock.
    assert frames.values == legacy.values
    assert frames.time == legacy.time
    for fm, lm in zip(frames.metrics.per_pe, legacy.metrics.per_pe):
        assert fm.words_sent == lm.words_sent
        assert fm.messages_sent == lm.messages_sent

    speedup = wall_legacy / wall_frames
    harness.emit(
        "frames:legacy_records",
        wall_seconds=wall_legacy,
        simulated_time=legacy.time,
        graph=f"rmat{SCALE}",
        p=NUM_PES,
        records=posted,
    )
    harness.emit(
        "frames:packed_frames",
        wall_seconds=wall_frames,
        simulated_time=frames.time,
        graph=f"rmat{SCALE}",
        p=NUM_PES,
        records=posted,
    )
    text = (
        f"frame wire format, rmat scale {SCALE}, p={NUM_PES}, "
        f"{posted} records\n"
        f"  legacy per-record path: {wall_legacy:8.3f} s wall\n"
        f"  packed frame path:      {wall_frames:8.3f} s wall\n"
        f"  speedup:                {speedup:8.1f} x\n"
    )
    save_artifact(results_dir, "frames_speedup.txt", text)
    assert speedup >= 2.0, f"frame path only {speedup:.2f}x faster"
