"""Backend comparison: simulator vs. process-parallel, shm vs. pickle.

Not a paper figure — engineering benchmarks for this repository's
execution backends and transports.

``test_backend_agreement`` measures actual wall time of the same
CETRIC program on the deterministic simulator (single process, event
engine) and on the process-parallel backend (one OS process per
PE), and verifies the two agree on every application-level metric.
The parallel backend's purpose is fidelity (real messages between
real processes); at these graph sizes Python process startup dominates
its wall time, so no speedup assertion is made there — only agreement
and sanity bounds.

``test_shm_vs_pickled_frames`` isolates the *transport*: the same
RMAT-16 record frames are exchanged all-to-all over 8 worker
processes, once through the zero-copy shared-memory frame pool
(``repro.net.shm``) and once through the legacy pickled-pipe path.
The payloads dominate this workload, so the pool's one-copy fan-out
(slot filled once, descriptors to every destination, receivers
reconstruct views in place) is required to win by at least 2x wall
clock — the acceptance bar for the shm transport.  The full counting
program is *not* a good vehicle for that assertion on a small host:
it is compute-bound, and on a single hardware thread both transports
time-slice the same kernel work (the committed artifact says so
explicitly).
"""

import time

import harness
import numpy as np
from conftest import run_once, save_artifact

from repro.analysis.tables import format_table
from repro.core.engine import EngineConfig, counting_program
from repro.graphs import generators as gen
from repro.graphs.distributed import distribute
from repro.net import Machine, ProcessMachine, RecordFrame
from repro.net.comm import alltoallv_dense

P = 4

#: Transport benchmark shape: the paper's RMAT instance family at
#: scale 16 (n = 2^16, ~0.9M edges), 8 PEs, a few broadcast rounds.
XCHG_SCALE = 16
XCHG_P = 8
XCHG_ROUNDS = 3


def _experiment():
    g = gen.rhg(1 << 13, avg_degree=32, gamma=2.8, seed=3)
    dist = distribute(g, num_pes=P)
    cfg = EngineConfig(contraction=True)
    rows = []
    outcomes = {}
    for name, machine in (("simulator", Machine(P)), ("processes", ProcessMachine(P))):
        t0 = time.perf_counter()
        res = machine.run(counting_program, dist, cfg)
        wall = time.perf_counter() - t0
        outcomes[name] = res
        rows.append(
            {
                "backend": name,
                "wall time [s]": wall,
                "modelled time [s]": res.metrics.makespan,
                "triangles": res.values[0].triangles_total,
                "total volume": res.metrics.total_volume,
                "total messages": res.metrics.total_messages,
            }
        )
    return rows, outcomes


def test_backend_agreement(benchmark, results_dir):
    rows, outcomes = run_once(benchmark, _experiment)
    text = format_table(
        rows,
        [
            "backend",
            "wall time [s]",
            "modelled time [s]",
            "triangles",
            "total volume",
            "total messages",
        ],
        title=f"Backends: simulated vs process-parallel CETRIC (RHG n=8192, p={P})",
    )
    save_artifact(results_dir, "backend_comparison.txt", text)
    for r in rows:
        harness.emit(
            "backend_comparison",
            simulated_time=r["modelled time [s]"],
            wall_seconds=r["wall time [s]"],
            total_volume=r["total volume"],
            triangles=r["triangles"],
            backend=r["backend"],
        )
    sim, par = outcomes["simulator"], outcomes["processes"]
    assert sim.values[0].triangles_total == par.values[0].triangles_total
    assert sim.metrics.total_volume == par.metrics.total_volume
    assert sim.metrics.total_messages == par.metrics.total_messages
    assert sim.metrics.total_ops == par.metrics.total_ops


def _frame_exchange_program(ctx, dist, rounds):
    """Broadcast each PE's full local record frame to every other PE.

    The communication pattern of CETRIC's dissemination phase with the
    compute stripped out, so wall time is the transport's.  Returns a
    content checksum over everything received (both transports must
    agree on it).
    """
    lg = dist.view(ctx.rank)
    frame = RecordFrame(
        lg.owned_vertices(),
        np.full(lg.num_local_vertices, -1, dtype=np.int64),
        lg.xadj,
        lg.adjncy,
    )
    words = frame.words
    checksum = 0
    for rnd in range(rounds):
        payloads = {
            dest: (frame, words) for dest in range(ctx.num_pes) if dest != ctx.rank
        }
        msgs = yield from alltoallv_dense(ctx, payloads, tag_label=f"xchg{rnd}")
        for msg in msgs:
            got = msg.payload
            checksum += int(got.neighbors[:64].sum()) + got.num_records
    return checksum


def _exchange_wall(dist, *, shm: bool) -> tuple[float, object]:
    """Best-of-2 wall time of the exchange workload (damps 1-core noise)."""
    best, res = float("inf"), None
    for _ in range(2):
        machine = ProcessMachine(XCHG_P, timeout=280.0, shm=shm)
        t0 = time.perf_counter()
        out = machine.run(_frame_exchange_program, dist, XCHG_ROUNDS)
        wall = time.perf_counter() - t0
        if wall < best:
            best, res = wall, out
    return best, res


def test_shm_vs_pickled_frames(benchmark, results_dir):
    """The shm frame pool must beat pickled pipes >=2x on rmat16 p=8."""

    def _experiment():
        g = gen.rmat(XCHG_SCALE, 16, seed=3)
        dist = distribute(g, num_pes=XCHG_P)
        shm_wall, shm_res = _exchange_wall(dist, shm=True)
        pickle_wall, pickle_res = _exchange_wall(dist, shm=False)
        return g, shm_wall, shm_res, pickle_wall, pickle_res

    g, shm_wall, shm_res, pickle_wall, pickle_res = run_once(benchmark, _experiment)
    speedup = pickle_wall / shm_wall
    rows = [
        {
            "transport": "shm frame pool",
            "wall time [s]": shm_wall,
            "shm frames": shm_res.metrics.total_shm_frames,
            "spills": shm_res.metrics.total_shm_spills,
            "payload MB copied": shm_res.metrics.total_bytes_moved / 1e6,
            "speedup": speedup,
        },
        {
            "transport": "pickled pipes",
            "wall time [s]": pickle_wall,
            "shm frames": 0,
            "spills": 0,
            "payload MB copied": 0.0,
            "speedup": 1.0,
        },
    ]
    text = format_table(
        rows,
        [
            "transport",
            "wall time [s]",
            "shm frames",
            "spills",
            "payload MB copied",
            "speedup",
        ],
        title=(
            f"Frame transport: shm pool vs pickled pipes "
            f"(RMAT scale {XCHG_SCALE}, n={g.num_vertices}, m={g.num_edges}, "
            f"p={XCHG_P}, {XCHG_ROUNDS} broadcast rounds, best of 2)"
        ),
    )
    text += (
        "\n\nNote: the exchange-only workload isolates the transport; the full"
        "\ncounting program is kernel-bound, so on a single hardware thread its"
        "\nwall time is transport-independent (both paths time-slice the same"
        "\ncompute).  'payload MB copied' counts physical copies into pool"
        "\nslots - broadcast fan-out shares one slot per payload, and the"
        "\npickled path copies every message separately."
    )
    save_artifact(results_dir, "shm_transport.txt", text)
    for r in rows:
        harness.emit(
            "shm_transport",
            wall_seconds=r["wall time [s]"],
            transport=r["transport"],
            speedup=r["speedup"],
        )
    # Both transports saw identical content...
    assert shm_res.values == pickle_res.values
    # ...and identical simulated accounting (transport-invariance).
    assert (
        shm_res.metrics.total_volume == pickle_res.metrics.total_volume
    )
    assert (
        shm_res.metrics.total_messages == pickle_res.metrics.total_messages
    )
    # The pool really carried the frames (no silent spill-to-pickle)...
    assert shm_res.metrics.total_shm_frames > 0
    assert shm_res.metrics.total_shm_spills == 0
    # ...and the zero-copy path is what the docs claim it is.
    assert speedup >= 2.0, (
        f"shm transport only {speedup:.2f}x faster "
        f"({shm_wall:.3f}s vs {pickle_wall:.3f}s)"
    )
