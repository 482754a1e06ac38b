"""Normalized benchmark records and the ``BENCH_<date>.json`` pipeline.

Every benchmark in ``benchmarks/`` (via ``benchmarks/harness.py``) and
every ``repro-tc bench`` invocation emits :class:`BenchRecord` rows —
one normalized measurement each: a *name*, the identifying *params*
(graph, algorithm, PE count, seed, ...), the paper's simulated-cost
metrics (modelled time, communication volume, peak buffer words), and
the Python wall time of the run.

Records accumulate into ``BENCH_<date>.json`` files.  A committed
baseline (``benchmarks/baseline/BENCH_baseline.json``) is the
regression gate: :func:`diff_records` compares the *simulated* cost of
matching records — the simulation is deterministic, so any drift is a
real algorithmic change, and ``make bench-smoke`` fails CI when a
record's simulated time regresses by more than the threshold (15% by
default).  Wall times are recorded for trend inspection but never
gated (they depend on the host).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.runner import RunResult

__all__ = [
    "BenchRecord",
    "Regression",
    "record_from_run",
    "write_bench_json",
    "load_bench_json",
    "bench_json_name",
    "diff_records",
    "drifts",
    "format_diff",
    "smoke_suite",
    "DEFAULT_THRESHOLD",
]

#: Relative simulated-cost increase that fails the regression gate.
DEFAULT_THRESHOLD = 0.15

#: BENCH fields the simulation determines, compared exactly by :func:`drifts`.
SIMULATED_FIELDS = (
    "simulated_time", "total_volume", "bottleneck_volume", "max_messages", "peak_words", "triangles"
)

#: Schema tag written into every BENCH_*.json file.
SCHEMA = "repro-bench-v1"


@dataclass(frozen=True)
class BenchRecord:
    """One normalized benchmark measurement."""

    #: Stable record name, e.g. ``"fig6_strong:orkut:cetric"``.
    name: str
    #: Identifying parameters (graph, p, seed, ...); part of the match
    #: key when diffing against a baseline.
    params: dict = field(default_factory=dict)
    #: Modelled running time in seconds (None for wall-time-only rows).
    simulated_time: float | None = None
    #: Total words sent across the machine.
    total_volume: int | None = None
    #: Max words sent by any PE (the paper's bottleneck metric).
    bottleneck_volume: int | None = None
    #: Max messages sent by any PE.
    max_messages: int | None = None
    #: Aggregation-buffer high-water mark (words) over PEs.
    peak_words: int | None = None
    #: Python wall-clock seconds of the experiment body (not gated,
    #: excluded from :func:`diff_records` — it depends on the host).
    wall_seconds: float | None = None
    #: Triangle count, when the benchmark produced one (sanity anchor).
    triangles: int | None = None

    @property
    def key(self) -> tuple:
        """Identity for baseline matching: name + sorted params."""
        return (self.name, tuple(sorted(self.params.items())))

    def to_dict(self) -> dict:
        """JSON-ready dict (schema of ``BENCH_<date>.json`` records)."""
        return {
            "name": self.name,
            "params": dict(self.params),
            "simulated_time": self.simulated_time,
            "total_volume": self.total_volume,
            "bottleneck_volume": self.bottleneck_volume,
            "max_messages": self.max_messages,
            "peak_words": self.peak_words,
            "wall_seconds": self.wall_seconds,
            "triangles": self.triangles,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchRecord":
        """Inverse of :meth:`to_dict` (ignores unknown keys)."""
        return cls(
            name=data["name"],
            params=dict(data.get("params", {})),
            simulated_time=data.get("simulated_time"),
            total_volume=data.get("total_volume"),
            bottleneck_volume=data.get("bottleneck_volume"),
            max_messages=data.get("max_messages"),
            peak_words=data.get("peak_words"),
            wall_seconds=data.get("wall_seconds"),
            triangles=data.get("triangles"),
        )


def record_from_run(
    name: str, result: "RunResult", *, wall_seconds: float | None = None, **params
) -> BenchRecord:
    """Normalize a :class:`~repro.analysis.runner.RunResult` row.

    Failed runs (e.g. TriC out-of-memory points) normalize to records
    with ``None`` costs and a ``failed`` param, so baselines keep the
    failure boundary visible without gating on it.
    """
    params = {"algorithm": result.algorithm, "p": result.num_pes, **params}
    if not result.ok:
        params["failed"] = result.failed
        return BenchRecord(name=name, params=params, wall_seconds=wall_seconds)
    return BenchRecord(
        name=name,
        params=params,
        simulated_time=result.time,
        total_volume=result.total_volume,
        bottleneck_volume=result.bottleneck_volume,
        max_messages=result.max_messages,
        peak_words=result.peak_buffer_words,
        wall_seconds=wall_seconds,
        triangles=result.triangles,
    )


def bench_json_name(date: str | None = None) -> str:
    """``BENCH_<date>.json`` — date from ``REPRO_BENCH_DATE`` or today."""
    if date is None:
        date = os.environ.get("REPRO_BENCH_DATE") or time.strftime("%Y-%m-%d")
    return f"BENCH_{date}.json"


def write_bench_json(
    records: Iterable[BenchRecord],
    path: str | Path | None = None,
    *,
    date: str | None = None,
    append: bool = True,
) -> Path:
    """Write (or extend) a ``BENCH_*.json`` file; returns its path.

    With ``append`` (the default) existing records in the target file
    are kept and records with an identical key are replaced — so a day
    of repeated ``repro-tc bench`` runs accumulates one file.
    """
    out = Path(path) if path is not None else Path(bench_json_name(date))
    merged: dict[tuple, BenchRecord] = {}
    if append and out.exists():
        for old in load_bench_json(out):
            merged[old.key] = old
    for rec in records:
        merged[rec.key] = rec
    payload = {
        "schema": SCHEMA,
        "records": [r.to_dict() for r in merged.values()],
    }
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return out


def load_bench_json(path: str | Path) -> list[BenchRecord]:
    """Read the records of one ``BENCH_*.json`` file."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        rows = data.get("records", [])
    else:  # bare list — accepted for hand-written baselines
        rows = data
    return [BenchRecord.from_dict(r) for r in rows]


@dataclass(frozen=True)
class Regression:
    """One simulated-cost regression against the baseline."""

    name: str
    params: dict
    baseline_time: float
    current_time: float

    @property
    def ratio(self) -> float:
        """current / baseline simulated time."""
        return self.current_time / self.baseline_time

    def format(self) -> str:
        """One diagnostic line."""
        return (
            f"{_label(self.name, self.params)}: simulated time "
            f"{self.baseline_time:.6f}s -> {self.current_time:.6f}s "
            f"({(self.ratio - 1.0):+.1%})"
        )


def diff_records(
    baseline: Iterable[BenchRecord],
    current: Iterable[BenchRecord],
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[Regression]:
    """Simulated-cost regressions of ``current`` vs ``baseline``.

    Records match by :attr:`BenchRecord.key`; a record is a regression
    when its simulated time exceeds the baseline's by more than
    ``threshold`` (relative).  Records missing on either side never
    fail the gate (new benchmarks appear, old ones retire), and rows
    without a simulated time (wall-time-only microbenchmarks) are
    skipped.
    """
    base = {r.key: r for r in baseline}
    out: list[Regression] = []
    for rec in current:
        old = base.get(rec.key)
        if old is None or old.simulated_time is None or rec.simulated_time is None:
            continue
        if old.simulated_time <= 0:
            continue
        if rec.simulated_time > old.simulated_time * (1.0 + threshold):
            out.append(
                Regression(
                    name=rec.name,
                    params=dict(rec.params),
                    baseline_time=old.simulated_time,
                    current_time=rec.simulated_time,
                )
            )
    out.sort(key=lambda r: r.ratio, reverse=True)
    return out


def drifts(
    baseline: Iterable[BenchRecord],
    current: Iterable[BenchRecord],
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[str]:
    """One line per simulated field of a matched record that differs from
    the baseline without failing the gate: the simulation is
    deterministic, so such drift is a real cost change too."""
    base = {r.key: r for r in baseline}
    out: list[str] = []
    for rec in current:
        old = base.get(rec.key, rec)  # an unmatched record has no drift
        for name in SIMULATED_FIELDS:
            was, now = getattr(old, name), getattr(rec, name)
            gated = name == "simulated_time" and was and now and now > was * (1.0 + threshold)
            if was != now and not gated:
                out.append(f"{_label(rec.name, rec.params)}: {name} {was!r} -> {now!r}")
    return out


def _label(name: str, params: dict) -> str:
    return f"{name} ({', '.join(f'{k}={v}' for k, v in sorted(params.items()))})"


def format_diff(
    regressions: list[Regression],
    *,
    compared: int,
    threshold: float = DEFAULT_THRESHOLD,
) -> str:
    """Human-readable gate verdict."""
    if not regressions:
        return (
            f"bench diff: {compared} record(s) compared, no simulated-cost "
            f"regression above {threshold:.0%}"
        )
    lines = [
        f"bench diff: {len(regressions)} regression(s) above {threshold:.0%} "
        f"({compared} record(s) compared):"
    ]
    lines.extend("  " + r.format() for r in regressions)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The smoke suite behind `make bench-smoke`
# ----------------------------------------------------------------------
def smoke_suite(*, scale_time: float = 1.0) -> list[BenchRecord]:
    """Tiny fixed-seed instances covering the algorithm families.

    Deterministic by construction (seeded generators, simulated costs),
    so the committed baseline matches bit-for-bit until an algorithm or
    cost-model change shifts simulated costs.  ``scale_time``
    multiplies the recorded simulated times — the injection hook the
    regression-gate tests use to prove the gate trips (see
    ``docs/BENCHMARKS.md``).
    """
    from ..analysis.runner import run_algorithm
    from ..graphs import generators as gen
    from ..graphs.distributed import distribute

    cases = [
        ("gnm", gen.gnm(256, 2048, seed=1), 4, ("ditric", "cetric", "tric")),
        ("rmat", gen.rmat(8, 16, seed=1), 4, ("cetric", "cetric2")),
        ("rgg2d", gen.rgg2d(256, expected_edges=2048, seed=1), 8, ("ditric2",)),
    ]
    records: list[BenchRecord] = []
    for graph_name, graph, p, algorithms in cases:
        dist = distribute(graph, num_pes=p)
        for algo in algorithms:
            t0 = time.perf_counter()
            res = run_algorithm(dist, algo)
            wall = time.perf_counter() - t0
            rec = record_from_run(
                f"smoke:{graph_name}", res, wall_seconds=wall, graph=graph_name, seed=1
            )
            if rec.simulated_time is not None and scale_time != 1.0:
                rec = BenchRecord(
                    name=rec.name,
                    params=rec.params,
                    simulated_time=rec.simulated_time * scale_time,
                    total_volume=rec.total_volume,
                    bottleneck_volume=rec.bottleneck_volume,
                    max_messages=rec.max_messages,
                    peak_words=rec.peak_words,
                    wall_seconds=rec.wall_seconds,
                    triangles=rec.triangles,
                )
            records.append(rec)
    return records
