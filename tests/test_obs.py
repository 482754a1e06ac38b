"""The observability layer: spans, exporters, profiler, bench pipeline.

The contract under test (docs/OBSERVABILITY.md, docs/BENCHMARKS.md):

* every ``ctx.span`` region of a run becomes a
  :class:`~repro.net.trace.SpanRecord` with nesting depth and a
  compute/comm/wait/retransmit decomposition;
* the Chrome-trace exporter emits schema-valid, deterministic JSON;
* the phase profiler partitions the critical PE's clock (percentages
  sum to 100);
* BENCH records round-trip through JSON and the baseline diff gates
  exactly on simulated-cost regressions above the threshold.
"""

import json

import pytest

from repro.analysis.runner import run_algorithm
from repro.graphs import generators as gen
from repro.graphs.distributed import distribute
from repro.net.trace import SpanRecord, Tracer
from repro.obs import (
    BenchRecord,
    chrome_trace,
    chrome_trace_json,
    diff_records,
    drifts,
    format_diff,
    load_bench_json,
    profile_metrics,
    record_from_run,
    render_flamegraph,
    spans_csv,
    summary_csv,
    write_bench_json,
    write_chrome_trace,
)


@pytest.fixture(scope="module")
def small_dist():
    return distribute(gen.gnm(128, 1024, seed=3), num_pes=4)


@pytest.fixture(scope="module")
def ditric_run(small_dist):
    tracer = Tracer()
    res = run_algorithm(small_dist, "ditric", tracer=tracer)
    assert res.ok
    return res, tracer


# ----------------------------------------------------------------------
# Span records
# ----------------------------------------------------------------------
def test_every_pe_records_top_level_spans(ditric_run):
    res, _ = ditric_run
    for pe in res.metrics.per_pe:
        names = {s.name for s in pe.spans if s.depth == 0}
        assert {"preprocessing", "local", "global"} <= names


def test_span_decomposition_is_consistent(ditric_run):
    res, _ = ditric_run
    for s in res.metrics.merged_spans():
        assert s.end >= s.start
        assert s.compute_time >= 0.0
        parts = s.compute_time + s.comm_time + s.wait_time + s.retransmit_time
        assert parts == pytest.approx(s.elapsed, abs=1e-12)


def test_nested_spans_get_increasing_depth(small_dist):
    # cetric2 routes the global phase through the grid router, whose
    # hop spans open inside the 'global' span.
    res = run_algorithm(small_dist, "cetric2")
    nested = [s for s in res.metrics.merged_spans() if s.depth > 0]
    assert nested
    assert {s.name for s in nested} >= {"grid-row-hop", "grid-col-hop"}
    for s in nested:
        enclosing = [
            o
            for o in res.metrics.per_pe[s.rank].spans
            if o.depth < s.depth and o.start <= s.start and o.end >= s.end
        ]
        assert enclosing, f"nested span {s} has no enclosing span"


def test_phase_times_unchanged_by_span_recording(ditric_run):
    # phase() is now an alias of span(); the phase_times attribution
    # the rest of the repo depends on must be exactly the span sums.
    res, _ = ditric_run
    for pe in res.metrics.per_pe:
        by_name: dict[str, float] = {}
        for s in pe.spans:
            by_name[s.name] = by_name.get(s.name, 0.0) + s.elapsed
        for name, total in by_name.items():
            assert pe.phase_times[name] == pytest.approx(total)


# ----------------------------------------------------------------------
# Chrome-trace export
# ----------------------------------------------------------------------
def test_chrome_trace_schema(ditric_run):
    res, tracer = ditric_run
    trace = chrome_trace(res.metrics, tracer, run_name="unit")
    events = trace["traceEvents"]
    assert events, "trace must contain events"
    for ev in events:
        assert ev["ph"] in ("M", "X", "i")
        assert ev["pid"] == 0
        assert isinstance(ev["tid"], int) and 0 <= ev["tid"] < res.num_pes
        if ev["ph"] != "M":
            assert isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0
        if ev["ph"] == "X":
            assert ev["dur"] >= 0
            assert ev["cat"] == "span"
            assert ev["args"]["depth"] >= 0
        if ev["ph"] == "i":
            assert ev["s"] == "t"
    # Thread metadata names every PE.
    names = [
        e["args"]["name"] for e in events if e["ph"] == "M" and e["name"] == "thread_name"
    ]
    assert names == [f"PE {r}" for r in range(res.num_pes)]


def test_chrome_trace_round_trips_through_json(ditric_run, tmp_path):
    res, tracer = ditric_run
    path = write_chrome_trace(tmp_path / "trace.json", res.metrics, tracer)
    loaded = json.loads(path.read_text())
    assert loaded == chrome_trace(res.metrics, tracer)
    x_events = [e for e in loaded["traceEvents"] if e["ph"] == "X"]
    assert len(x_events) == len(res.metrics.merged_spans())
    # Events are time-sorted within each kind (viewer requirement).
    ts = [e["ts"] for e in x_events]
    assert ts == sorted(ts)


def test_chrome_trace_is_deterministic(small_dist):
    def one():
        tracer = Tracer()
        res = run_algorithm(small_dist, "ditric", tracer=tracer)
        return chrome_trace_json(res.metrics, tracer, run_name="det")

    assert one() == one()


def test_chrome_trace_without_tracer_has_no_instants(ditric_run):
    res, _ = ditric_run
    trace = chrome_trace(res.metrics)
    assert all(e["ph"] != "i" for e in trace["traceEvents"])


# ----------------------------------------------------------------------
# Phase profiler + renderers
# ----------------------------------------------------------------------
def test_profile_partitions_the_critical_clock(ditric_run):
    res, _ = ditric_run
    profile = profile_metrics(res.metrics)
    assert profile.makespan == pytest.approx(res.time)
    assert sum(profile.categories.values()) == pytest.approx(profile.makespan, rel=1e-9)
    assert sum(profile.percentages().values()) == pytest.approx(100.0, abs=1e-6)
    assert {"local", "global", "communication", "wait"} <= set(profile.categories)
    text = profile.format(title="unit")
    assert "unit" in text and "100.00 %" in text


def test_flamegraph_renders_every_pe(ditric_run):
    res, _ = ditric_run
    text = render_flamegraph(res.metrics, width=60)
    for rank in range(res.num_pes):
        assert f"PE {rank}" in text
    assert "d0 |" in text


def test_csv_exports(ditric_run):
    res, _ = ditric_run
    table = spans_csv(res.metrics)
    header, *rows = table.strip().split("\n")
    assert header.startswith("rank,name,depth,start_s")
    assert len(rows) == len(res.metrics.merged_spans())
    summary = summary_csv([res.as_dict()])
    assert "algorithm" in summary.splitlines()[0]
    assert "ditric" in summary


# ----------------------------------------------------------------------
# BENCH records and the regression gate
# ----------------------------------------------------------------------
def test_bench_record_round_trip(ditric_run, tmp_path):
    res, _ = ditric_run
    rec = record_from_run("unit:gnm", res, wall_seconds=0.5, graph="gnm", seed=3)
    assert rec.simulated_time == res.time
    assert rec.params["algorithm"] == "ditric"
    path = write_bench_json([rec], tmp_path / "BENCH_unit.json")
    (loaded,) = load_bench_json(path)
    assert loaded == rec


def test_bench_json_append_merges_by_key(tmp_path):
    a = BenchRecord(name="x", params={"p": 2}, simulated_time=1.0)
    b = BenchRecord(name="x", params={"p": 4}, simulated_time=2.0)
    path = write_bench_json([a, b], tmp_path / "BENCH_m.json")
    a2 = BenchRecord(name="x", params={"p": 2}, simulated_time=1.5)
    write_bench_json([a2], path)
    by_key = {r.key: r for r in load_bench_json(path)}
    assert len(by_key) == 2
    assert by_key[a.key].simulated_time == 1.5
    assert by_key[b.key].simulated_time == 2.0


def test_failed_runs_record_without_costs(small_dist):
    from repro.analysis.runner import memory_limited_spec

    spec = memory_limited_spec(small_dist, words_per_local_arc=0.001)
    res = run_algorithm(small_dist, "tric", spec=spec)
    assert not res.ok
    rec = record_from_run("unit:oom", res)
    assert rec.simulated_time is None
    assert rec.params["failed"] == "out-of-memory"


def test_diff_gate_passes_on_identical_and_trips_on_regression():
    base = [
        BenchRecord(name="s", params={"p": 4}, simulated_time=1.0),
        BenchRecord(name="s", params={"p": 8}, simulated_time=2.0),
    ]
    same = diff_records(base, base)
    assert same == []
    worse = [
        BenchRecord(name="s", params={"p": 4}, simulated_time=1.2),
        BenchRecord(name="s", params={"p": 8}, simulated_time=2.1),
    ]
    regs = diff_records(base, worse, threshold=0.15)
    assert [r.params["p"] for r in regs] == [4]
    assert regs[0].ratio == pytest.approx(1.2)
    text = format_diff(regs, compared=2)
    assert "1 regression(s)" in text and "+20.0%" in text


def test_drifts_name_every_simulated_field_below_the_gate():
    base = [
        BenchRecord(name="s", params={"p": 4}, simulated_time=1.0, total_volume=10),
        BenchRecord(name="s", params={"p": 8}, simulated_time=2.0, wall_seconds=1.0),
    ]
    current = [
        BenchRecord(name="s", params={"p": 4}, simulated_time=1.0000001, total_volume=11),
        BenchRecord(name="s", params={"p": 8}, simulated_time=3.0, wall_seconds=9.0),
        BenchRecord(name="new", params={}, simulated_time=5.0),
    ]
    assert drifts(base, base) == []
    # p=8 is a regression (the gate reports it) and wall time is not simulated.
    assert drifts(base, current) == [
        "s (p=4): simulated_time 1.0 -> 1.0000001",
        "s (p=4): total_volume 10 -> 11",
    ]


def test_diff_gate_ignores_unmatched_and_wall_only_records():
    base = [BenchRecord(name="old", params={}, simulated_time=1.0)]
    current = [
        BenchRecord(name="new", params={}, simulated_time=99.0),
        BenchRecord(name="old", params={}, wall_seconds=50.0),  # no simulated time
    ]
    assert diff_records(base, current) == []


def test_span_record_is_hashable_value_object():
    s = SpanRecord(rank=1, name="local", start=0.5, end=1.0, depth=0, comm_time=0.2)
    assert s.elapsed == pytest.approx(0.5)
    assert s.compute_time == pytest.approx(0.3)
    assert hash(s) == hash(
        SpanRecord(rank=1, name="local", start=0.5, end=1.0, depth=0, comm_time=0.2)
    )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_bench_single_run(tmp_path, capsys, monkeypatch):
    from repro.cli import main as repro_main

    monkeypatch.setenv("REPRO_BENCH_DATE", "unit")
    rc = repro_main(
        [
            "bench",
            "--algo",
            "ditric",
            "--gen",
            "gnm",
            "--size",
            "128",
            "--seed",
            "3",
            "-p",
            "4",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "critical path" in out and "100.00 %" in out
    bench_file = tmp_path / "BENCH_unit.json"
    assert bench_file.exists()
    (rec,) = load_bench_json(bench_file)
    assert rec.params["algorithm"] == "ditric"
    traces = list(tmp_path.glob("trace_*.json"))
    assert len(traces) == 1
    trace = json.loads(traces[0].read_text())
    assert any(e["ph"] == "X" for e in trace["traceEvents"])


def test_cli_bench_baseline_gate(tmp_path, capsys, monkeypatch):
    from repro.cli import main as repro_main

    monkeypatch.setenv("REPRO_BENCH_DATE", "unit")
    common = ["bench", "--algo", "ditric", "--gen", "gnm", "--size", "128",
              "--seed", "3", "-p", "4"]
    baseline_dir = tmp_path / "base"
    assert repro_main(common + ["--out", str(baseline_dir)]) == 0
    baseline = baseline_dir / "BENCH_unit.json"

    # Identical rerun: gate passes.
    rc = repro_main(
        common + ["--out", str(tmp_path / "a"), "--baseline", str(baseline)]
    )
    assert rc == 0
    assert "no simulated-cost regression" in capsys.readouterr().out

    # Synthetic 20% cost inflation: gate fails.
    rc = repro_main(
        common
        + ["--out", str(tmp_path / "b"), "--baseline", str(baseline),
           "--scale-time", "1.2"]
    )
    assert rc == 1
    assert "+20.0%" in capsys.readouterr().out
