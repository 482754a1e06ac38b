"""Benchmark-side adapter for the ``BENCH_<date>.json`` pipeline.

Thin wrapper over :mod:`repro.obs.bench` (the implementation shared
with ``repro-tc bench``): benchmarks call :func:`emit_run` /
:func:`emit_rows` / :func:`emit` as they produce results, the records
accumulate in-process, and the ``pytest_sessionfinish`` hook in
``conftest.py`` flushes them into ``results/BENCH_<date>.json`` (date
overridable via ``REPRO_BENCH_DATE``).  Diff any two such files — or a
file against ``baseline/BENCH_baseline.json`` — with
``repro-tc bench --baseline`` (see ``docs/BENCHMARKS.md``).
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.bench import (
    BenchRecord,
    bench_json_name,
    record_from_run,
    write_bench_json,
)

__all__ = ["emit", "emit_run", "emit_rows", "emit_wall", "flush", "pending"]

#: Records accumulated by the current pytest session.
_RECORDS: list[BenchRecord] = []


def emit(
    name: str,
    *,
    simulated_time: float | None = None,
    wall_seconds: float | None = None,
    triangles: int | None = None,
    total_volume: int | None = None,
    bottleneck_volume: int | None = None,
    max_messages: int | None = None,
    peak_words: int | None = None,
    **params,
) -> BenchRecord:
    """Log one hand-rolled measurement (e.g. a kernel wall time)."""
    rec = BenchRecord(
        name=name,
        params=params,
        simulated_time=simulated_time,
        total_volume=total_volume,
        bottleneck_volume=bottleneck_volume,
        max_messages=max_messages,
        peak_words=peak_words,
        wall_seconds=wall_seconds,
        triangles=triangles,
    )
    _RECORDS.append(rec)
    return rec


def emit_wall(name: str, benchmark, **params) -> BenchRecord:
    """Log a pytest-benchmark mean wall time (kernels only).

    The stats object is probed defensively — its layout differs across
    pytest-benchmark versions and is absent under ``--benchmark-disable``.
    """
    stats = getattr(benchmark, "stats", None)
    mean = None
    if stats is not None:
        inner = getattr(stats, "stats", stats)
        mean = getattr(inner, "mean", None)
    return emit(name, wall_seconds=mean, **params)


def emit_run(name: str, result, *, wall_seconds: float | None = None, **params) -> BenchRecord:
    """Normalize one :class:`~repro.analysis.runner.RunResult` row."""
    rec = record_from_run(
        name, result, wall_seconds=wall_seconds, graph=result.graph, **params
    )
    _RECORDS.append(rec)
    return rec


def emit_rows(name: str, rows, *, wall_seconds: float | None = None, **params) -> None:
    """Normalize a list of run rows (one record per row)."""
    for row in rows:
        emit_run(name, row, wall_seconds=wall_seconds, **params)


def pending() -> list[BenchRecord]:
    """Records emitted so far (the session-finish hook reads this)."""
    return list(_RECORDS)


def flush(directory: Path) -> Path | None:
    """Write accumulated records to ``<directory>/BENCH_<date>.json``.

    Appends/merges into an existing same-day file and clears the
    in-process buffer; returns the path, or ``None`` when nothing was
    emitted (e.g. a ``-k`` filtered run touching no instrumented
    benchmark).
    """
    if not _RECORDS:
        return None
    directory.mkdir(exist_ok=True)
    out = write_bench_json(_RECORDS, directory / bench_json_name())
    _RECORDS.clear()
    return out
