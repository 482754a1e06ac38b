"""Cross-backend / cross-transport equivalence suite.

The bit-identity contract pinned end to end:

* **Kernel backends** (numpy, the reference ``pymerge`` merge loops
  and the cffi/C ``native`` kernels) must leave *every* simulated observable
  unchanged — counts, clocks, message/word totals, per-PE counters —
  because the dispatcher (including the fused
  ``batch_intersect_count_elements`` entry the enumeration/LCC paths
  use) computes all accounting before a backend runs.
* **Transports** (simulator, ``ProcessMachine`` with the shm pool,
  ``ProcessMachine`` spilling everything to pickle) must agree on
  counts, volumes, messages, ops, per-PE words, and the exact triangle
  *enumeration* (compared by sha256 of the gathered, lexsorted triple
  array).  Per-PE modelled clocks are exempt across transports — real
  delivery interleavings shift the last few per-message α charges — a
  caveat documented in ``net/parallel.py`` since the backend landed.

Matrix: 2 generators × 3 seeds; ``native`` drops out of the matrix
rather than failing it where cffi or a C compiler is missing.
"""

import dataclasses
import hashlib
import os

import numpy as np
import pytest
from backend_utils import register_pymerge

from repro.core import backends
from repro.core.backends import resolve_backend, set_backend, use_backend
from repro.core.engine import EngineConfig, counting_program
from repro.core.enumerate import enumerate_program, gather_all_triangles
from repro.core.kernels import count_record_pairs
from repro.core.native import native_available
from repro.graphs import distribute
from repro.graphs import generators as gen
from repro.net import Machine
from repro.net.frames import RecordFrame
from repro.net.parallel import ProcessMachine

P = 3
SEEDS = [1, 2, 3]
GENERATORS = {
    "rgg2d": lambda seed: gen.rgg2d(350, expected_edges=2600, seed=seed),
    "rmat": lambda seed: gen.rmat(8, 10, seed=seed),
}
CASES = [(g, s) for g in GENERATORS for s in SEEDS]


def _backend_matrix():
    """Every backend loadable in this environment, ``numpy`` first."""
    names = ["numpy", register_pymerge()]
    if native_available():
        names.append("native")
    return names


@pytest.fixture(autouse=True)
def _reset_selection():
    yield
    set_backend(None)


def _dist(gen_name, seed):
    return distribute(GENERATORS[gen_name](seed), num_pes=P)


def _enum_sha(res) -> str:
    tri = np.ascontiguousarray(gather_all_triangles(res.values), dtype=np.int64)
    return hashlib.sha256(tri.tobytes()).hexdigest()


def _transport_observables(res):
    m = res.metrics
    return {
        "count": res.values[0].triangles_total,
        "total_volume": m.total_volume,
        "bottleneck_volume": m.bottleneck_volume,
        "total_messages": m.total_messages,
        "max_messages": m.max_messages_sent,
        "total_ops": m.total_ops,
        "words_sent": tuple(pe.words_sent for pe in m.per_pe),
        "messages_sent": tuple(pe.messages_sent for pe in m.per_pe),
        "local_ops": tuple(pe.local_ops for pe in m.per_pe),
    }


# ---------------------------------------------------------------------------
# Kernel backends: full bit-identity on the simulator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gen_name,seed", CASES)
def test_backends_bit_identical_on_simulator(gen_name, seed):
    dist = _dist(gen_name, seed)
    cfg = EngineConfig(contraction=True)
    baseline = None
    for name in _backend_matrix():
        with use_backend(name):
            res = Machine(P).run(counting_program, dist, cfg)
        summary = res.metrics.summary()  # includes simulated time
        observed = (res.values[0].triangles_total, summary)
        if baseline is None:
            baseline = observed
        assert observed == baseline, f"backend {name} diverged"


def test_backends_bit_identical_on_enumeration():
    """Enumeration drives the fused count+elements dispatcher: the sha
    covers the hit streams, the makespan the fused-path accounting."""
    dist = _dist("rgg2d", SEEDS[0])
    shas = set()
    for name in _backend_matrix():
        with use_backend(name):
            res = Machine(P).run(enumerate_program, dist, EngineConfig())
        shas.add((_enum_sha(res), res.metrics.makespan))
    assert len(shas) == 1


@pytest.mark.parametrize("gen_name", list(GENERATORS))
def test_backends_bit_identical_on_lcc(gen_name):
    """LCC exercises the fused dispatcher on both the local phase and
    the record-pair path, across Machine and ProcessMachine."""
    from repro.core.lcc import lcc_program

    dist = _dist(gen_name, SEEDS[0])
    cfg = EngineConfig(contraction=True)
    baseline = None
    for name in _backend_matrix():
        with use_backend(name):
            sim = Machine(P).run(lcc_program, dist, cfg)
            par = ProcessMachine(P).run(lcc_program, dist, cfg)
        lcc = np.concatenate([v.lcc for v in sim.values])
        observed = (
            lcc.tobytes(),
            sim.metrics.summary(),
            tuple(pe.words_sent for pe in par.metrics.per_pe),
        )
        np.testing.assert_array_equal(
            np.concatenate([v.lcc for v in par.values]), lcc, err_msg=name
        )
        if baseline is None:
            baseline = observed
        assert observed == baseline, f"backend {name} diverged on LCC"


@pytest.mark.parametrize("gen_name", list(GENERATORS))
def test_backends_bit_identical_on_process_machine(gen_name):
    """Every backend under ``ProcessMachine`` matches ``Machine`` + numpy
    on counts, accounting and the enumeration sha (forked workers inherit
    the selection)."""
    dist = _dist(gen_name, SEEDS[0])
    cfg = EngineConfig(contraction=True)

    def observe(machine):
        return (
            _transport_observables(machine.run(counting_program, dist, cfg)),
            _enum_sha(machine.run(enumerate_program, dist, EngineConfig())),
        )

    with use_backend("numpy"):
        ref = observe(Machine(P))
    for name in _backend_matrix():
        with use_backend(name):
            assert observe(ProcessMachine(P, start_method="fork")) == ref, name


# ---------------------------------------------------------------------------
# Transports: simulator vs shm pool vs forced-pickle processes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gen_name,seed", CASES)
def test_transports_agree_on_counts_and_accounting(gen_name, seed):
    dist = _dist(gen_name, seed)
    cfg = EngineConfig(contraction=True)
    sim = Machine(P).run(counting_program, dist, cfg)
    shm = ProcessMachine(P, shm=True).run(counting_program, dist, cfg)
    pickled = ProcessMachine(P, shm=False).run(counting_program, dist, cfg)
    ref = _transport_observables(sim)
    assert _transport_observables(shm) == ref
    assert _transport_observables(pickled) == ref
    # and the shm run actually exercised the pool
    assert shm.metrics.total_shm_frames > 0
    assert pickled.metrics.total_shm_frames == 0


@pytest.mark.parametrize("gen_name", list(GENERATORS))
def test_transports_agree_on_enumeration_sha(gen_name):
    dist = _dist(gen_name, SEEDS[0])
    cfg = EngineConfig()
    shas = {
        transport: _enum_sha(machine.run(enumerate_program, dist, cfg))
        for transport, machine in {
            "sim": Machine(P),
            "shm": ProcessMachine(P, shm=True),
            "pickle": ProcessMachine(P, shm=False),
        }.items()
    }
    assert len(set(shas.values())) == 1, shas


@pytest.fixture
def csr_spy(tmp_path, monkeypatch):
    """Spy on the native in-place kernel, inside forked workers too.

    The registry's cached native backend is swapped for one whose
    ``csr_pairs`` appends ``pid writeable k`` per call to a file (forked
    workers inherit the swap).  Returns a reader of the logged calls.
    """
    if not native_available():
        pytest.skip("native backend unavailable")
    native = resolve_backend("native")
    calls = tmp_path / "csr_calls"
    calls.touch()

    def spy(a_xadj, a_adj, a_ids, b_xadj, b_adj, b_ids, bound, *, elements=False):
        with open(calls, "a") as fh:
            fh.write(f"{os.getpid()} {int(a_adj.flags.writeable)} {len(a_ids)}\n")
        return native.csr_pairs(a_xadj, a_adj, a_ids, b_xadj, b_adj, b_ids, bound, elements=elements)

    monkeypatch.setitem(
        backends._BACKENDS, "native", dataclasses.replace(native, csr_pairs=spy)
    )
    return lambda: [tuple(map(int, line.split())) for line in calls.read_text().splitlines()]


def test_process_machine_native_counts_in_place(csr_spy):
    """A native ``ProcessMachine`` run intersects in place in its workers
    and matches ``Machine`` + numpy on every pinned observable."""
    dist = _dist("rmat", SEEDS[0])
    cfg = EngineConfig(contraction=True)
    with use_backend("numpy"):
        ref = Machine(P).run(counting_program, dist, cfg)
    assert csr_spy() == []
    with use_backend("native"):
        par = ProcessMachine(P, shm=True, start_method="fork").run(
            counting_program, dist, cfg
        )
    assert _transport_observables(par) == _transport_observables(ref)
    assert par.metrics.total_shm_frames > 0
    calls = csr_spy()
    assert calls and all(pid != os.getpid() for pid, _, _ in calls)


def _raw_frame_program(ctx, dist):
    """Ship the owned neighbourhoods to the next PE as one frame and
    count the received frame as it arrived, without merging it."""
    lg = dist.view(ctx.rank)
    broadcast = np.full(lg.num_local_vertices, -1, dtype=np.int64)
    frame = RecordFrame(lg.owned_vertices(), broadcast, lg.xadj, lg.adjncy)
    ctx.send((ctx.rank + 1) % ctx.num_pes, "raw-frame", frame, frame.words)
    msg = yield from ctx.recv("raw-frame")
    return count_record_pairs(
        ctx, msg.payload, lg.xadj, lg.adjncy, lg.vlo, lg.vhi, dist.num_vertices + 1
    ), not msg.payload.neighbors.flags.writeable


def test_in_place_kernel_reads_received_shm_frames(csr_spy):
    """Received shm frames are read-only views; the in-place kernel
    takes them as they are (no copy) and counts what numpy counts."""
    dist = _dist("rmat", SEEDS[0])
    with use_backend("numpy"):
        ref = Machine(P).run(_raw_frame_program, dist)
    with use_backend("native"):
        par = ProcessMachine(P, shm=True, start_method="fork").run(_raw_frame_program, dist)
    assert [count for count, _ in par.values] == [count for count, _ in ref.values]
    assert all(readonly for _, readonly in par.values)
    assert any(writeable == 0 and k > 0 for _, writeable, k in csr_spy())


@pytest.mark.parametrize("gen_name", list(GENERATORS))
def test_enumeration_and_lcc_delta_identical_across_backends_and_machines(gen_name, csr_spy):
    """The enumeration sha256 and the per-vertex LCC Δ are bit-identical
    across numpy/native × ``Machine``/``ProcessMachine`` (shm, fork), and
    the native runs take the in-place closing-element path in the workers."""
    from repro.core.lcc import lcc_program

    dist = _dist(gen_name, SEEDS[0])

    def observe(machine):
        observed = [_enum_sha(machine.run(enumerate_program, dist, EngineConfig()))]
        for cfg in (EngineConfig(), EngineConfig(contraction=True)):
            res = machine.run(lcc_program, dist, cfg)
            observed.append(np.concatenate([v.delta for v in res.values]).tobytes())
        return observed

    with use_backend("numpy"):
        ref = observe(Machine(P))
    for name in ("numpy", "native"):
        for machine in (Machine(P), ProcessMachine(P, shm=True, start_method="fork")):
            with use_backend(name):
                assert observe(machine) == ref, (name, type(machine).__name__)
    assert {pid for pid, _, _ in csr_spy()} - {os.getpid()}, "no in-place call in a worker"
