"""End-to-end benchmark: one workload, timed ``run_algorithm`` calls, checked.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload rmat14-ditric [--seed 1] [--seconds 20] [--trace 0|1]

One process, one thread, a closed loop: a single caller makes one
``run_algorithm(graph, algorithm, num_pes=p)`` call at a time, so the
graph is distributed again on every call, as a user pays it.  Every
call is checked against the oracle count, and its modelled time,
bottleneck volume and max messages must equal the first run's.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
set-up time (median of the generate+distribute calls), the median run
time over ``--seconds`` of timed runs, the ``tracemalloc`` peak of one
extra run, and the paper's modelled metrics.  The two times are
host-speed normalised: a fixed reference task is timed before and
after every set-up and run, and each wall time is scaled by
``REFERENCE_S`` over the mean of its two reference times (see
``reference_seconds``).  The raw wall times are kept in the result
file.  ``--trace 1`` alternates untraced and traced runs and reports
host time per layer (see ``layers.py``).  Progress and a fingerprint go to stdout first;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A result file and, with ``--trace 1``,
the spans land in ``benchmarks/e2e/out/``.  The exit code is non-zero
when any run raised or was wrong.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
try:
    import numpy as np

    from repro.analysis.runner import RunResult, run_algorithm
    from repro.analysis.verify import ground_truth_triangles
    from repro.core.backends import resolve_backend, use_backend
    from repro.graphs.csr import CSRGraph
    from repro.graphs.distributed import distribute
    from repro.graphs.generators import gnm, rgg2d, rmat
except ImportError as exc:
    sys.exit(f"benchmarks/e2e: cannot import the repro package from {SRC}: {exc}")

import layers  # noqa: E402  (needs the src path above)

#: Generate+distribute repetitions whose median is ``setup_s``.
SETUP_REPS = 5
#: Timed runs made even when ``--seconds`` runs out first.
MIN_RUNS = 3
#: Nominal duration of one reference task: normalised times are the
#: seconds a run would take on a host that does the task this fast.
REFERENCE_S = 0.12
#: Untraced/traced pairs made even when ``--seconds`` runs out first.
MIN_TRACE_PAIRS = 2


@dataclass(frozen=True)
class Workload:
    """One input family × algorithm × PE count × kernel backend."""

    name: str
    graph: Callable[[int], CSRGraph]
    algorithm: str
    num_pes: int
    backend: str


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("rmat14-ditric", lambda seed: rmat(14, 16, seed=seed), "ditric", 16, "native"),
        Workload("rmat14-cetric", lambda seed: rmat(14, 16, seed=seed), "cetric", 16, "native"),
        Workload(
            "rgg15-ditric-numpy",
            lambda seed: rgg2d(2**15, expected_edges=2**19, seed=seed),
            "ditric",
            16,
            "numpy",
        ),
        Workload("gnm14-ditric2-p64", lambda seed: gnm(2**14, 2**17, seed=seed), "ditric2", 64, "native"),
    )
}


@functools.cache
def _reference_inputs() -> tuple:
    rng = np.random.default_rng(0)
    small = [rng.integers(0, 1 << 20, size=512) for _ in range(64)]
    mid = rng.integers(0, 1 << 24, size=(12, 20_000))
    table = rng.integers(0, 1 << 30, size=1 << 23)  # 64 MiB, past the caches
    index = rng.integers(0, 1 << 23, size=1 << 21)
    return small, mid, table, index


def reference_seconds() -> float:
    """Wall time of one pass of a fixed task that reads the host's speed.

    The host is a share of a machine whose speed drifts by up to 1.6x
    within seconds as other tenants come and go, which no median over
    one invocation removes.  This task mixes what the workloads spend
    their time on — interpreted dict and generator code, many small
    numpy calls, sort and unique on mid-sized arrays, random gathers
    from an array larger than the caches — and depends on nothing in
    ``src/``, so a change to the program cannot move it.  The
    interpreted part is about 40% of it: most of a run is interpreted
    code, which the host's slow phases hit hardest.
    """
    small, mid, table, index = _reference_inputs()
    t0 = perf_counter()
    counts: dict[int, int] = {}
    for i in range(150_000):
        counts[i & 4095] = counts.get(i & 4095, 0) + len(str(i))
    sum(k * 2 for k in range(150_000))
    for _ in range(20):
        for a in small:
            b = np.sort(a)
            np.searchsorted(b, a[:64])
            np.concatenate((a, b))
    for row in mid:
        np.searchsorted(np.unique(row), row[:4096])
    table[index].sum()
    return perf_counter() - t0


class HostClock:
    """Scales wall times to a host that runs the reference task in ``REFERENCE_S``.

    Call ``normalise`` right after each timed region: the region is
    scaled by the mean of the reference times just before and just after it.
    """

    def __init__(self) -> None:
        self.last = reference_seconds()
        self.references = [self.last]

    def normalise(self, wall: float) -> float:
        after = reference_seconds()
        self.references.append(after)
        before, self.last = self.last, after
        return wall * REFERENCE_S / ((before + after) / 2)


class Gate:
    """Runs ``run_algorithm`` and checks every result.

    A run fails when it raises, does not complete, miscounts against
    the oracle, or reports modelled metrics (simulated time, bottleneck
    volume, max messages) that differ from the first correct run's.
    """

    def __init__(self, workload: Workload, graph: CSRGraph, oracle: int):
        self.workload = workload
        self.graph = graph
        self.oracle = oracle
        self.reference: tuple | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, label: str) -> tuple[float, RunResult] | None:
        """One timed call; ``None`` when it raised."""
        w = self.workload
        gc.collect()
        self.attempted += 1
        try:
            t0 = perf_counter()
            result = run_algorithm(self.graph, w.algorithm, num_pes=w.num_pes)
            elapsed = perf_counter() - t0
        except Exception:
            self.failures.append(f"{label}: raised\n{traceback.format_exc()}")
            return None
        problem = self._problem(result)
        if problem is not None:
            self.failures.append(f"{label}: {problem}")
        return elapsed, result

    def _problem(self, result: RunResult) -> str | None:
        if not result.ok:
            return f"run failed ({result.failed})"
        if result.triangles != self.oracle:
            return f"counted {result.triangles} triangles, oracle says {self.oracle}"
        modelled = (result.time, result.bottleneck_volume, result.max_messages)
        if self.reference is None:
            self.reference = modelled
        elif modelled != self.reference:
            return f"modelled (time, volume, messages) {modelled} != first run's {self.reference}"
        return None


def select_backend(name: str):
    """``use_backend(name)``, refusing a silent fallback to another backend."""
    resolved = resolve_backend(name).name  # builds the native kernels if needed
    if resolved != name:
        raise SystemExit(
            f"benchmarks/e2e: the workload needs the {name!r} kernel backend but it "
            f"resolved to {resolved!r} (see the warning above); refusing to report "
            f"{resolved} numbers under a {name} label"
        )
    return use_backend(name)


def setup(workload: Workload, seed: int) -> tuple[CSRGraph, dict[str, list[float]]]:
    """Generate and distribute the input ``SETUP_REPS`` times.

    Returns the graph and, per repetition, the normalised and the wall
    generate+distribute time, the wall generate time alone, and the
    reference times taken around them.
    """
    clock = HostClock()
    samples: dict[str, list[float]] = {"setup_s": [], "setup_wall_s": [], "generate_s": []}
    for _ in range(SETUP_REPS):
        graph = None  # free the previous copy before timing the next
        gc.collect()
        t0 = perf_counter()
        graph = workload.graph(seed)
        t1 = perf_counter()
        distribute(graph, num_pes=workload.num_pes)
        wall = perf_counter() - t0
        samples["setup_s"].append(clock.normalise(wall))
        samples["setup_wall_s"].append(wall)
        samples["generate_s"].append(t1 - t0)
    samples["setup_reference_s"] = clock.references
    return graph, samples


def measure(gate: Gate, seconds: float, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics: one ``tracemalloc`` run, then timed runs."""
    tracemalloc.start()
    try:
        gate.run("memory")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    times, walls = [], []
    clock = HostClock()
    start, attempts = perf_counter(), 0
    while attempts < MIN_RUNS or perf_counter() - start < seconds:
        attempts += 1
        out = gate.run(f"run {attempts}")
        if out is None:
            clock.normalise(0.0)  # the next run's "before" reading
        else:
            times.append(clock.normalise(out[0]))
            walls.append(out[0])
    metrics = {"setup_s": (setup_s, "s")}
    if times:
        metrics["run_s"] = (statistics.median(times), "s")
    metrics["peak_mem_mb"] = (peak / 2**20, "MiB")
    if gate.reference is not None:
        sim_time, volume, _ = gate.reference
        metrics["sim_time_s"] = (sim_time, "s")
        metrics["bottleneck_words"] = (volume, "words")
    return metrics, {"run_s": times, "run_wall_s": walls, "run_reference_s": clock.references}


def measure_traced(
    gate: Gate, seconds: float, generate_s: float
) -> tuple[dict, dict, list[dict]]:
    """Per-layer metrics: alternate untraced and traced runs."""
    w = gate.workload
    gate.run("warm-up")
    plain, traced, per_run, span_runs = [], [], [], []
    start, pairs = perf_counter(), 0
    while pairs < MIN_TRACE_PAIRS or perf_counter() - start < seconds:
        pairs += 1
        out = gate.run(f"untraced {pairs}")
        if out is not None:
            plain.append(out[0])
        rec = layers.SpanRecorder()
        with layers.recording(rec, w.backend):
            out = gate.run(f"traced {pairs}")
        if out is not None:
            wall, result = out
            traced.append(wall)
            per_run.append(layers.run_metrics(rec, wall, result))
            span_runs.append({"wall_s": wall, "spans": [s[:5] for s in rec.spans]})
    dist = distribute(gate.graph, num_pes=w.num_pes)
    metrics = {
        "graphs.generate_s": (generate_s, "s"),
        "graphs.cut_arcs": (sum(v.num_cut_edges for v in dist.views), "count"),
        "graphs.ghosts": (sum(v.num_ghosts for v in dist.views), "count"),
    }
    if per_run:
        for name in per_run[0]:
            metrics[name] = (statistics.median(r[name] for r in per_run), _unit(name))
    if plain and traced:
        metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    return metrics, {"untraced_s": plain, "traced_s": traced}, span_runs


def _unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_frac", "ratio"), ("_per_element", "ns"), ("_words", "words")):
        if name.endswith(suffix):
            return unit
    return "count"


def fingerprint(workload: Workload, seed: int) -> dict:
    """What produced the numbers: code, inputs, software, host."""
    try:
        import cffi

        cffi_version = cffi.__version__
    except ImportError:
        cffi_version = "absent"
    return {
        "commit": _git_commit(),
        "workload": workload.name,
        "seed": seed,
        "algorithm": workload.algorithm,
        "num_pes": workload.num_pes,
        "backend": resolve_backend(None).name,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cffi": cffi_version,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
    }


def _git_commit() -> str:
    # The ceiling keeps git from reporting an enclosing repository when
    # the checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def report(metrics: dict, *, shares_of: str | None = None) -> None:
    base = metrics.get(shares_of, (0.0,))[0] if shares_of else 0.0
    for name, (value, unit) in metrics.items():
        share = f"  ({100 * value / base:5.1f}% of {shares_of})" if unit == "s" and base else ""
        shown = f"{int(value):>16d}" if float(value).is_integer() else f"{value:>16.6g}"
        print(f"  {name:28s} {shown} {unit}{share}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="timed-loop length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    # A C compiler run by the native build writes its temporaries here.
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)

    with select_backend(workload.backend):
        info = fingerprint(workload, args.seed)
        print("e2e " + " ".join(f"{k}={v}" for k, v in info.items()), flush=True)
        graph, setup_samples = setup(workload, args.seed)
        oracle = ground_truth_triangles(graph, cross_check=False)
        graph_info = {"n": graph.num_vertices, "m": graph.num_edges, "triangles": oracle}
        print("graph " + " ".join(f"{k}={v}" for k, v in graph_info.items()), flush=True)
        gate = Gate(workload, graph, oracle)
        if args.trace:
            metrics, samples, span_runs = measure_traced(
                gate, args.seconds, statistics.median(setup_samples["generate_s"])
            )
            trace_file = OUT_DIR / f"trace-{workload.name}.json"
            trace_file.write_text(json.dumps({**info, "runs": span_runs}))
        else:
            metrics, samples = measure(gate, args.seconds, statistics.median(setup_samples["setup_s"]))
    samples.update(setup_samples)
    info["runs"] = len(samples.get("run_s", samples.get("traced_s", [])))

    failed = len(gate.failures)
    print(f"runs: {gate.attempted} attempted, {failed} failed "
          f"(failed_frac {failed / max(gate.attempted, 1):.3f}), R={info['runs']} timed")
    for failure in gate.failures:
        print(f"FAILED {failure}")
    modelled = dict(zip(("sim_time_s", "bottleneck_words", "max_messages"), gate.reference or ()))
    print("modelled " + " ".join(f"{k}={v}" for k, v in modelled.items()))
    report(metrics, shares_of="trace.run_s" if args.trace else None)
    result = {
        "correct": failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_file = OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(
        {**result, "fingerprint": info, "graph": graph_info, "modelled": modelled,
         "samples": samples, "failures": gate.failures},
        indent=1,
    ))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
