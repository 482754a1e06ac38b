"""Checks of the end-to-end benchmark itself, on RMAT-8 toys at p=4.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (a few
seconds).
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict

import pytest

import layers
import run as bench
from repro.analysis.runner import run_algorithm
from repro.core.backends import resolve_backend
from repro.graphs.generators import rmat

TOYS = {
    algorithm: bench.Workload(
        f"toy-{algorithm}", lambda seed: rmat(8, 16, seed=seed), algorithm, 4, "numpy"
    )
    for algorithm in ("ditric", "cetric", "ditric2")
}


@pytest.fixture(autouse=True)
def toy_workloads(monkeypatch, tmp_path):
    for workload in TOYS.values():
        monkeypatch.setitem(bench.WORKLOADS, workload.name, workload)
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    monkeypatch.setenv("TMPDIR", str(tmp_path))  # main() points it into OUT_DIR


def invoke(capsys, workload: str, trace: int) -> tuple[int, dict]:
    code = bench.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    )
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def modelled(result):
    return (
        result.triangles,
        result.time,
        result.bottleneck_volume,
        result.max_messages,
        result.total_messages,
        result.total_volume,
        result.total_ops,
    )


@pytest.mark.parametrize("algorithm", sorted(TOYS))
def test_tracing_is_transparent(algorithm):
    graph = rmat(8, 16, seed=3)
    plain = run_algorithm(graph, algorithm, num_pes=4)
    rec = layers.SpanRecorder()
    with layers.recording(rec, "numpy"):
        traced = run_algorithm(graph, algorithm, num_pes=4)
    assert modelled(traced) == modelled(plain)
    names = {span[0] for span in rec.spans}
    assert {"engine.run", "engine.program", "kernels.remote", "backend.kernel"} <= names
    assert {span[4] for span in rec.spans if span[0] == "engine.program"} == set(range(4))


def test_traced_invocation_passes_the_gate(capsys):
    code, result = invoke(capsys, "toy-ditric2", trace=1)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5


def test_patched_attributes_are_restored(capsys):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in layers.ENTRY_POINTS]
    backend = resolve_backend(None).name
    invoke(capsys, "toy-cetric", trace=1)
    with pytest.raises(RuntimeError):
        with layers.recording(layers.SpanRecorder(), "numpy"):
            raise RuntimeError("run failed mid-trace")
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} left patched"
    assert resolve_backend(None).name == backend


def test_self_times_are_nonnegative_and_within_the_run(capsys, tmp_path):
    code, result = invoke(capsys, "toy-ditric", trace=1)
    assert code == 0
    runs = json.loads((tmp_path / "trace-toy-ditric.json").read_text())["runs"]
    assert runs
    for run in runs:
        spans = run["spans"]
        children = defaultdict(float)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        own = [end - start - children[i] for i, (_, start, end, _, _) in enumerate(spans)]
        assert min(own) >= -1e-9
        assert sum(own) <= run["wall_s"]
    assert 0 < result["metrics"]["trace.attributed_frac"]["value"] <= 1


def test_wrong_oracle_fails_every_run(capsys, monkeypatch):
    truth = bench.ground_truth_triangles
    monkeypatch.setattr(
        bench, "ground_truth_triangles", lambda graph, **kw: truth(graph, **kw) + 1
    )
    code, result = invoke(capsys, "toy-ditric", trace=0)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_changed_modelled_metrics_fail(capsys, monkeypatch):
    real = bench.run_algorithm
    calls = itertools.count()

    def drifting(*args, **kwargs):
        result = real(*args, **kwargs)
        result.bottleneck_volume += next(calls)
        return result

    monkeypatch.setattr(bench, "run_algorithm", drifting)
    code, result = invoke(capsys, "toy-ditric", trace=0)
    assert code != 0
    # Every run after the first, which sets the reference, differs.
    assert result["failed"] == result["attempted"] - 1 >= 1


def test_fallback_backend_is_refused(capsys, monkeypatch):
    monkeypatch.setattr(bench, "resolve_backend", lambda name=None: resolve_backend("numpy"))
    with pytest.raises(SystemExit, match="'native'.*resolved to 'numpy'"):
        bench.main(["--workload", "rmat14-ditric", "--seconds", "0"])
    assert capsys.readouterr().out == ""


def test_output_names_every_benchmark_metric(capsys):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == {
        name for name in bench.WORKLOADS if not name.startswith("toy-")
    }
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, result = invoke(capsys, "toy-ditric", trace=trace)
        assert code == 0
        assert set(result["metrics"]) == {m["name"] for m in spec[key]}
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
