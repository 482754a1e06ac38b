"""Chrome trace-event JSON export.

Produces the `trace-event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_:

* one *process* (pid 0) models the simulated machine, one *thread* per
  PE (tid = rank), named via ``M`` metadata events;
* every closed :class:`~repro.net.trace.SpanRecord` becomes a complete
  ``"ph": "X"`` duration event (microsecond timestamps on the simulated
  clock) whose ``args`` carry the compute/communication/wait/retransmit
  decomposition;
* message events from an attached :class:`~repro.net.trace.Tracer`
  (send / recv / drop / retry) become thread-scoped instant events
  (``"ph": "i"``, ``"s": "t"``).

Output is deterministic: events are sorted by timestamp with stable
tie-breakers and serialized with sorted keys, so a fixed-seed run
always produces a byte-identical trace file.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..net.metrics import RunMetrics
from ..net.trace import Tracer

__all__ = ["chrome_trace", "chrome_trace_json", "write_chrome_trace"]

#: Process id used for the whole simulated machine.
MACHINE_PID = 0

_INSTANT_LABEL = {
    "send": "send",
    "recv": "recv",
    "drop": "drop (fault)",
    "retry": "retransmit",
}


def _us(seconds: float) -> float:
    """Simulated seconds -> trace microseconds (rounded for stability)."""
    return round(seconds * 1e6, 6)


def chrome_trace(
    metrics: RunMetrics, tracer: Tracer | None = None, *, run_name: str = "repro"
) -> dict:
    """Build the trace dict (``{"traceEvents": [...], ...}``) for a run."""
    events: list[dict] = []
    num_pes = metrics.num_pes
    events.append(
        {
            "ph": "M",
            "pid": MACHINE_PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": f"simulated machine ({run_name}, p={num_pes})"},
        }
    )
    for rank in range(num_pes):
        events.append(
            {
                "ph": "M",
                "pid": MACHINE_PID,
                "tid": rank,
                "name": "thread_name",
                "args": {"name": f"PE {rank}"},
            }
        )
        events.append(
            {
                "ph": "M",
                "pid": MACHINE_PID,
                "tid": rank,
                "name": "thread_sort_index",
                "args": {"sort_index": rank},
            }
        )

    spans = []
    for span in metrics.merged_spans():
        spans.append(
            {
                "ph": "X",
                "pid": MACHINE_PID,
                "tid": span.rank,
                "name": span.name,
                "cat": "span",
                "ts": _us(span.start),
                "dur": _us(span.elapsed),
                "args": {
                    "depth": span.depth,
                    "compute_us": _us(span.compute_time),
                    "comm_us": _us(span.comm_time),
                    "wait_us": _us(span.wait_time),
                    "retransmit_us": _us(span.retransmit_time),
                    "recovery_us": _us(span.recovery_time),
                },
            }
        )

    messages = []
    if tracer is not None:
        for e in tracer.events:
            messages.append(
                {
                    "ph": "i",
                    "s": "t",
                    "pid": MACHINE_PID,
                    "tid": e.rank,
                    "name": f"{_INSTANT_LABEL.get(e.kind, e.kind)} tag={e.tag!r}",
                    "cat": f"msg.{e.kind}",
                    "ts": _us(e.time),
                    "args": {"peer": e.peer, "words": e.words},
                }
            )

    # Deterministic ordering: spans outermost-first at equal timestamps
    # (so viewers nest them correctly), instants after spans.
    spans.sort(key=lambda ev: (ev["ts"], ev["tid"], ev["args"]["depth"], ev["name"]))
    messages.sort(key=lambda ev: (ev["ts"], ev["tid"], ev["cat"], ev["name"]))
    events.extend(spans)
    events.extend(messages)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "makespan_us": _us(metrics.makespan),
            "num_pes": num_pes,
            "source": "repro.obs.chrome",
        },
    }


def chrome_trace_json(
    metrics: RunMetrics, tracer: Tracer | None = None, *, run_name: str = "repro"
) -> str:
    """The trace serialized deterministically (sorted keys, fixed layout)."""
    return json.dumps(
        chrome_trace(metrics, tracer, run_name=run_name),
        sort_keys=True,
        indent=1,
    )


def write_chrome_trace(
    path: str | Path,
    metrics: RunMetrics,
    tracer: Tracer | None = None,
    *,
    run_name: str = "repro",
) -> Path:
    """Write the trace file; returns the path for chaining/logging."""
    out = Path(path)
    out.write_text(chrome_trace_json(metrics, tracer, run_name=run_name) + "\n")
    return out
