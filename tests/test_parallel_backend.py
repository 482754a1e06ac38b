"""Tests for the process-parallel backend (real OS processes + pipes)."""

import operator

import numpy as np
import pytest

from repro.core.edge_iterator import edge_iterator
from repro.core.engine import EngineConfig, counting_program
from repro.core.lcc import lcc_program, lcc_sequential
from repro.graphs import distribute
from repro.graphs import generators as gen
from repro.net import Machine, MachineSpec, OutOfMemoryError, allreduce
from repro.net.parallel import ProcessMachine, RemoteDist
from repro.net.reliable import fault_tolerant, reliable_send


@pytest.fixture(scope="module")
def graph():
    return gen.rgg2d(600, expected_edges=5000, seed=21)


@pytest.fixture(scope="module")
def truth(graph):
    return edge_iterator(graph).triangles


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize(
    "cfg",
    [EngineConfig(), EngineConfig(contraction=True), EngineConfig(indirect=True)],
    ids=["ditric", "cetric", "ditric2"],
)
def test_parallel_counts_match_truth(p, cfg, graph, truth):
    dist = distribute(graph, num_pes=p)
    res = ProcessMachine(p).run(counting_program, dist, cfg)
    assert res.values[0].triangles_total == truth
    assert all(v.triangles_total == truth for v in res.values)


def test_parallel_matches_simulator_metrics(graph):
    """Counts, volumes and message counts are backend-independent."""
    p = 4
    dist = distribute(graph, num_pes=p)
    cfg = EngineConfig(contraction=True)
    par = ProcessMachine(p).run(counting_program, dist, cfg)
    sim = Machine(p).run(counting_program, dist, cfg)
    assert par.values[0].triangles_total == sim.values[0].triangles_total
    assert par.metrics.total_volume == sim.metrics.total_volume
    assert par.metrics.total_messages == sim.metrics.total_messages
    for pm, sm in zip(par.metrics.per_pe, sim.metrics.per_pe):
        assert pm.words_sent == sm.words_sent
        assert pm.local_ops == sm.local_ops


def test_parallel_lcc(graph):
    p = 3
    dist = distribute(graph, num_pes=p)
    res = ProcessMachine(p).run(lcc_program, dist, EngineConfig(contraction=True))
    got = np.concatenate([v.lcc for v in res.values])
    assert np.allclose(got, lcc_sequential(graph))


def test_parallel_baselines(graph, truth):
    from repro.baselines.havoqgt import havoqgt_program
    from repro.baselines.tric import tric_program

    dist = distribute(graph, num_pes=3)
    assert ProcessMachine(3).run(tric_program, dist).values[0].triangles_total == truth
    assert (
        ProcessMachine(3).run(havoqgt_program, dist).values[0].triangles_total == truth
    )


def test_parallel_oom_propagates():
    g = gen.rmat(8, 16, seed=2)
    dist = distribute(g, num_pes=4)
    from repro.baselines.tric import tric_program

    tight = MachineSpec(memory_words=50)
    with pytest.raises(OutOfMemoryError):
        ProcessMachine(4, tight).run(tric_program, dist)


def test_parallel_worker_exception_surfaces():
    def bad_program(ctx, dist, cfg):
        if ctx.rank == 1:
            raise ValueError("boom")
        yield
        return 0

    g = gen.ring(8)
    dist = distribute(g, num_pes=2)
    with pytest.raises(RuntimeError, match="boom"):
        ProcessMachine(2, timeout=30).run(bad_program, dist, EngineConfig())


def test_remote_dist_isolation(graph):
    """A worker physically cannot read another PE's view."""
    dist = distribute(graph, num_pes=3)
    view = dist.view(1)
    remote = RemoteDist(view, dist.num_vertices, dist.num_edges, dist.name)
    assert remote.view(1) is view
    with pytest.raises(KeyError):
        remote.view(0)
    assert remote.num_pes == 3


def test_parallel_requires_positive_pes():
    with pytest.raises(ValueError):
        ProcessMachine(0)


def test_parallel_rejects_unavailable_start_method():
    with pytest.raises(ValueError, match="start method"):
        ProcessMachine(2, start_method="no-such-method")


# ---------------------------------------------------------------------------
# Kernel-backend propagation into workers (fork AND spawn)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_kernel_backend_env_propagates_to_workers(start_method, monkeypatch):
    """REPRO_KERNEL_BACKEND must reach every worker under both start
    methods.  spawn is the stricter case: the worker re-imports the
    package in a fresh interpreter, so only the environment (not the
    driver's in-process set_backend state) can carry the selection."""
    import multiprocessing as mp

    from backend_utils import backend_probe_program, register_pymerge

    if start_method not in mp.get_all_start_methods():
        pytest.skip(f"{start_method} not available on this platform")
    register_pymerge()  # driver side, for the eager resolve in run()
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "pymerge")
    g = gen.ring(12)
    dist = distribute(g, num_pes=2)
    res = ProcessMachine(2, start_method=start_method).run(
        backend_probe_program, dist
    )
    assert [name for _, name in res.values] == ["pymerge", "pymerge"]


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_start_methods_agree_on_counts(start_method, graph, truth):
    import multiprocessing as mp

    if start_method not in mp.get_all_start_methods():
        pytest.skip(f"{start_method} not available on this platform")
    dist = distribute(graph, num_pes=2)
    res = ProcessMachine(2, start_method=start_method).run(
        counting_program, dist, EngineConfig()
    )
    assert all(v.triangles_total == truth for v in res.values)


def test_unavailable_backend_warns_once_across_workers(monkeypatch, capfd):
    """P workers must not repeat the driver's fallback warning P times.

    The driver resolves the backend eagerly in ``run()`` (warning once)
    and records it in REPRO_KERNEL_FALLBACK_WARNED, which both fork and
    spawn workers inherit; worker-side resolution then stays silent.
    """
    import logging

    from repro.core import backends

    monkeypatch.delenv(backends.ENV_FALLBACK_WARNED, raising=False)
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "accel-definitely-missing")
    # an unloadable registered backend, mimicking a missing toolchain
    backends.register_backend(
        "accel-definitely-missing",
        lambda: (_ for _ in ()).throw(ImportError("wheel not installed")),
    )
    backends._FAILED.pop("accel-definitely-missing", None)
    # warnings from worker processes land on stderr, not in caplog;
    # make the driver's logger emit there too so one capture sees both
    handler = logging.StreamHandler()
    logging.getLogger("repro.kernels").addHandler(handler)
    try:
        g = gen.ring(12)
        dist = distribute(g, num_pes=3)
        res = ProcessMachine(3).run(counting_program, dist, EngineConfig())
        assert all(v.triangles_total == 0 for v in res.values)
        err = capfd.readouterr().err
        assert err.count("falling back to numpy") == 1
    finally:
        logging.getLogger("repro.kernels").removeHandler(handler)
        backends._LOADERS.pop("accel-definitely-missing", None)
        backends._FAILED.pop("accel-definitely-missing", None)


@fault_tolerant
def _machine_hooks_program(ctx):
    """Touches every hook ``PEContext`` reads from its machine."""
    restored = ctx.restore("ring")
    with ctx.span("ring"):
        reliable_send(ctx, (ctx.rank + 1) % ctx.num_pes, "ring", 10 * ctx.rank, 1)
        msg = yield from ctx.recv("ring")
        total = yield from allreduce(ctx, msg.payload + ctx.rank, operator.add)
    saved = ctx.checkpoint("ring", total)
    return restored, saved, msg.src, msg.payload, total, sorted(ctx.metrics.phase_times)


def test_process_machine_honours_the_machine_contract():
    """Tracing, collectives, checkpoints without a store and
    ``reliable_send`` behave the same on both machines."""
    par = ProcessMachine(2).run(_machine_hooks_program)
    sim = Machine(2).run(_machine_hooks_program)
    assert par.values == sim.values == [
        (None, False, 1, 10, 11, ["ring"]),
        (None, False, 0, 0, 11, ["ring"]),
    ]
    for pm, sm in zip(par.metrics.per_pe, sim.metrics.per_pe):
        assert (pm.messages_sent, pm.words_sent) == (sm.messages_sent, sm.words_sent)
        assert [s.name for s in pm.spans] == [s.name for s in sm.spans] == ["ring"]
