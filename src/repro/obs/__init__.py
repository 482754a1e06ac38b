"""Observability: structured tracing, exporters, and the phase profiler.

This package unifies the raw plumbing of :mod:`repro.net.trace`
(message event streams) and :mod:`repro.net.metrics` (per-PE
counters and :class:`~repro.net.trace.SpanRecord` lists) behind the
interfaces the evaluation needs:

* :mod:`repro.obs.chrome` — Chrome trace-event JSON export; the files
  load directly in ``chrome://tracing`` and `Perfetto
  <https://ui.perfetto.dev>`_;
* :mod:`repro.obs.csvexport` — flat CSV tables of spans and run
  summaries for the analysis scripts;
* :mod:`repro.obs.render` — terminal timeline / flamegraph renderer;
* :mod:`repro.obs.profiler` — per-phase breakdown of the critical-path
  PE (local / contraction / global / communication / wait /
  retransmit), percentages summing to 100% of simulated time;
* :mod:`repro.obs.bench` — normalized benchmark records, the
  ``BENCH_<date>.json`` writer, and the baseline-diff regression gate
  behind ``repro-tc bench`` and ``make bench-smoke``.

Spans are produced by SPMD programs via ``with ctx.span("label")``
(see :meth:`repro.net.machine.PEContext.span`); lint rule R6 enforces
context-manager usage and rank-invariant literal labels.  All event
streams carry *simulated* timestamps owned by the event engine of
:mod:`repro.sim`, so traces are byte-identical across reruns —
pinned by ``tests/test_machine.py`` / ``tests/test_faults.py``.  Usage
guide:
``docs/OBSERVABILITY.md``.
"""

from ..net.trace import SpanRecord
from .bench import (
    BenchRecord,
    Regression,
    diff_records,
    drifts,
    format_diff,
    load_bench_json,
    record_from_run,
    smoke_suite,
    write_bench_json,
)
from .chrome import chrome_trace, chrome_trace_json, write_chrome_trace
from .csvexport import spans_csv, summary_csv
from .profiler import PhaseProfile, profile_metrics
from .render import render_flamegraph

__all__ = [
    "SpanRecord",
    "BenchRecord",
    "Regression",
    "diff_records",
    "drifts",
    "format_diff",
    "load_bench_json",
    "record_from_run",
    "smoke_suite",
    "write_bench_json",
    "chrome_trace",
    "chrome_trace_json",
    "write_chrome_trace",
    "spans_csv",
    "summary_csv",
    "PhaseProfile",
    "profile_metrics",
    "render_flamegraph",
]
