"""Miscellaneous unit tests: engine helpers, table formatting, phases."""

import numpy as np
import pytest

from repro.analysis.runner import RunResult
from repro.analysis.tables import _fmt, format_table
from repro.core.engine import EngineConfig, _surrogate_filter
from repro.net import Machine, MachineSpec


# ------------------------------------------------------ surrogate filter
def test_surrogate_filter_dedups_runs():
    src = np.array([0, 0, 0, 1, 1, 2])
    rank = np.array([1, 1, 2, 2, 2, 1])
    keep = _surrogate_filter(src, rank, enabled=True)
    assert keep.tolist() == [True, False, True, True, False, True]


def test_surrogate_filter_disabled_keeps_all():
    src = np.array([0, 0])
    rank = np.array([1, 1])
    assert _surrogate_filter(src, rank, enabled=False).tolist() == [True, True]


def test_surrogate_filter_empty():
    e = np.empty(0, dtype=np.int64)
    assert _surrogate_filter(e, e, enabled=True).size == 0


def test_surrogate_same_rank_different_vertex_kept():
    src = np.array([0, 1])
    rank = np.array([3, 3])
    assert _surrogate_filter(src, rank, enabled=True).tolist() == [True, True]


# ------------------------------------------------------ config semantics
def test_engine_config_defaults_match_paper():
    cfg = EngineConfig()
    assert cfg.aggregate and cfg.surrogate
    assert not cfg.contraction and not cfg.indirect
    assert cfg.degree_exchange == "dense"


def test_engine_config_frozen():
    with pytest.raises(Exception):
        EngineConfig().aggregate = False  # type: ignore[misc]


# ------------------------------------------------------ table formatting
def test_fmt_branches():
    assert _fmt(None) == "--"
    assert _fmt(0.0) == "0"
    assert _fmt(1e-5) == "1.000e-05"
    assert _fmt(2.5e7) == "2.500e+07"
    assert _fmt(3.14159) == "3.142"
    assert _fmt(42) == "42"
    assert _fmt("x") == "x"


def test_format_table_missing_keys_render_as_none():
    text = format_table([{"a": 1}], ["a", "b"])
    assert "--" in text


def test_run_result_as_dict_includes_phases():
    r = RunResult("ditric", "g", 2, 5, 0.5, phases={"local": 0.2})
    d = r.as_dict()
    assert d["phase_local"] == 0.2
    assert d["failed"] == ""


# ------------------------------------------------------ machine phases
def test_nested_phases_attribute_to_innermost():
    spec = MachineSpec(alpha=0, beta=0, flop_time=1.0)

    def prog(ctx):
        with ctx.span("outer"):
            ctx.charge(5)
            with ctx.span("inner"):
                ctx.charge(3)
            ctx.charge(2)
        return None
        yield  # pragma: no cover

    res = Machine(1, spec).run(prog)
    times = res.metrics.per_pe[0].phase_times
    # "outer" records its full span (incl. the nested block) because
    # attribution is by wall interval; "inner" records its own 3.
    assert times["inner"] == pytest.approx(3.0)
    assert times["outer"] == pytest.approx(10.0)


def test_repeated_phase_accumulates():
    spec = MachineSpec(alpha=0, beta=0, flop_time=1.0)

    def prog(ctx):
        for _ in range(3):
            with ctx.span("work"):
                ctx.charge(2)
        return None
        yield  # pragma: no cover

    res = Machine(1, spec).run(prog)
    assert res.metrics.per_pe[0].phase_times["work"] == pytest.approx(6.0)


# ------------------------------------------------------ record semantics
def test_record_is_frozen():
    from repro.net import RecordFrame

    r = RecordFrame(np.array([1]), np.array([-1]), np.array([0, 3]), np.arange(3))
    with pytest.raises(Exception):
        r.vertices = np.array([2])  # type: ignore[misc]


# ------------------------------------------------------ error branches
def test_grid_router_rejects_foreign_row_records():
    """A plain frame on the row tag is a protocol violation."""
    from post_utils import post_record

    from repro.net import GridRouter, Machine

    def prog(ctx):
        router = GridRouter(ctx, "x", threshold_words=64)
        # Inject a plain record directly onto the row queue (self post
        # -> handed back by the row finalize on this same PE).
        post_record(router._row_queue, ctx.rank, 0, [])
        yield from router.finalize()
        return "unreachable"

    with pytest.raises(TypeError, match="ForwardFrame"):
        Machine(1).run(prog)


def test_process_machine_timeout():
    from repro.graphs import distribute, generators
    from repro.net.parallel import ProcessMachine

    def hang_program(ctx, dist):
        if ctx.rank == 0:
            yield from ctx.recv("never-sent")
        else:
            yield
        return 0

    dist = distribute(generators.ring(8), num_pes=2)
    with pytest.raises(RuntimeError, match="timed out"):
        ProcessMachine(2, timeout=2.0).run(hang_program, dist)


def test_bcast_from_nonzero_value_ignored_off_root():
    """Only PE 0's value matters for bcast."""
    from repro.net import Machine, bcast

    def prog(ctx):
        value = "root" if ctx.rank == 0 else "junk"
        return (yield from bcast(ctx, value))

    assert Machine(5).run(prog).values == ["root"] * 5
