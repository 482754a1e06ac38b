"""Host-time spans around the layer entry points of ``run_algorithm``.

:func:`recording` wraps each layer's public function where its caller
looks it up (``repro.core.engine.count_csr_pairs``,
``repro.core.kernels.gather_blocks``, ...), so the program runs
unchanged and only the lookups are redirected.  The kernel backend is
timed through a wrapping backend registered with the public
``register_backend``.  Generator entry points (the SPMD program,
collectives, aggregation ``finalize``) are timed per resumption: every
``next``/``send`` the engine or a ``yield from`` makes is one span.

Each span holds its name, start, end, parent span and the PE rank it
ran for; a layer's self time is its spans' durations minus the part
their child spans cover.  Counters (pairs, words, records) are taken at
the same boundaries.  All of it stays in memory until the run ends.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from repro.analysis import runner
from repro.core import engine as core_engine
from repro.core import kernels, preprocessing
from repro.core.backends import KernelBackend, register_backend, resolve_backend, use_backend
from repro.net import aggregation, indirect
from repro.net.machine import Machine

__all__ = ["SpanRecorder", "ENTRY_POINTS", "recording", "run_metrics"]


class SpanRecorder:
    """Spans and counters of one traced ``run_algorithm`` call.

    A span is ``[name, start, end, parent, rank, child_seconds]``;
    ``parent`` indexes :attr:`spans` (-1 at the top) and
    ``child_seconds`` accumulates the durations of its direct children.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: Entries into each span name (a generator counts once, at creation).
        self.calls: Counter[str] = Counter()
        #: Work counters taken at the layer boundaries.
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def open(self, name: str, rank: int | None) -> list:
        parent = self._stack[-1] if self._stack else -1
        if rank is None:
            rank = self.spans[parent][4] if parent >= 0 else -1
        self._stack.append(len(self.spans))
        span = [name, 0.0, 0.0, parent, rank, 0.0]
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def close(self, span: list) -> None:
        span[2] = end = perf_counter()
        self._stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += end - span[1]

    def self_seconds(self) -> Counter[str]:
        """Self time per span name."""
        out: Counter[str] = Counter()
        for name, start, end, _, _, child in self.spans:
            out[name] += end - start - child
        return out


def _rank_of(args: tuple) -> int | None:
    """The PE rank of a call whose first argument is a ``PEContext`` or holds one."""
    if args:
        ctx = getattr(args[0], "ctx", args[0])
        rank = getattr(ctx, "rank", None)
        if isinstance(rank, int):
            return rank
    return None


class _TimedGenerator:
    """Delegating generator that records one span per resumption."""

    __slots__ = ("_gen", "_rec", "_name", "_rank")

    def __init__(self, gen, rec: SpanRecorder, name: str, rank: int | None):
        self._gen, self._rec, self._name, self._rank = gen, rec, name, rank

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        span = self._rec.open(self._name, self._rank)
        try:
            return self._gen.send(value)
        finally:
            self._rec.close(span)

    def throw(self, *exc):
        span = self._rec.open(self._name, self._rank)
        try:
            return self._gen.throw(*exc)
        finally:
            self._rec.close(span)

    def close(self):
        self._gen.close()


def _timed_call(rec: SpanRecorder, name: str, fn, tally=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.calls[name] += 1
        span = rec.open(name, _rank_of(args))
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if tally is not None:
            tally(rec.counts, args, result)
        return result

    return wrapper


def _timed_generator(rec: SpanRecorder, name: str, fn, tally=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.calls[name] += 1
        return _TimedGenerator(fn(*args, **kwargs), rec, name, _rank_of(args))

    return wrapper


def _counted_flush(rec: SpanRecorder, name: str, flush, tally=None):
    # Not a span: a flush runs inside post_many or finalize and its time
    # belongs to that caller; only flushes that sent something count.
    @functools.wraps(flush)
    def wrapper(self):
        before = self.flushes
        flush(self)
        rec.counts["aggregation.flushes"] += self.flushes - before

    return wrapper


def _gathered(counts, args, result):
    counts["intersect.gathered_words"] += result[0].size


def _dispatched(counts, args, result):
    counts["intersect.pairs"] += len(args[1]) - 1
    counts["intersect.ops"] += result.ops


def _posted(counts, args, result):
    counts["aggregation.records"] += len(args[1])


#: ``(owner, attribute, span name, wrapper factory, tally)``: each layer
#: entry point, on the object its caller looks it up from.
ENTRY_POINTS = (
    (runner, "distribute", "graphs.distribute", _timed_call, None),
    (Machine, "run", "engine.run", _timed_call, None),
    (runner, "counting_program", "engine.program", _timed_generator, None),
    (core_engine, "exchange_ghost_degrees", "preprocessing.exchange", _timed_generator, None),
    (core_engine, "build_oriented", "preprocessing.orient", _timed_call, None),
    (core_engine, "count_csr_pairs", "kernels.local", _timed_call, None),
    (core_engine, "count_record_pairs", "kernels.remote", _timed_call, None),
    (core_engine, "gather_blocks", "intersect.gather", _timed_call, _gathered),
    (kernels, "gather_blocks", "intersect.gather", _timed_call, _gathered),
    (kernels, "batch_intersect_count", "intersect.dispatch", _timed_call, _dispatched),
    (aggregation.BufferedMessageQueue, "post_many", "aggregation.post", _timed_call, _posted),
    (aggregation.BufferedMessageQueue, "finalize", "aggregation.finalize", _timed_generator, None),
    (aggregation.BufferedMessageQueue, "flush", "aggregation.flush", _counted_flush, None),
    (indirect.GridRouter, "post_many", "aggregation.post", _timed_call, None),
    (indirect.GridRouter, "finalize", "aggregation.finalize", _timed_generator, None),
    (core_engine, "allreduce", "comm.collective", _timed_generator, None),
    (preprocessing, "alltoallv_dense", "comm.collective", _timed_generator, None),
    (preprocessing, "sparse_alltoall", "comm.collective", _timed_generator, None),
    (aggregation, "barrier", "comm.collective", _timed_generator, None),
    (aggregation, "drain", "comm.collective", _timed_call, None),
)


class _BackendTimer:
    """A base backend whose count kernel is timed into the active recorder.

    Counting runs call only ``count``; the enumeration kernels pass
    through untimed.
    """

    def __init__(self, base: KernelBackend):
        self.base = base
        self.rec: SpanRecorder | None = None

    def count(self, a_concat, a_xadj, b_concat, b_xadj, vertex_bound):
        rec = self.rec
        if rec is None:
            return self.base.count(a_concat, a_xadj, b_concat, b_xadj, vertex_bound)
        span = rec.open("backend.kernel", None)
        try:
            counts = self.base.count(a_concat, a_xadj, b_concat, b_xadj, vertex_bound)
        finally:
            rec.close(span)
        rec.counts["backend.elements"] += a_concat.size + b_concat.size
        rec.counts["backend.hits"] += int(counts.sum())
        return counts

    def backend(self) -> KernelBackend:
        base = self.base
        return KernelBackend(f"traced-{base.name}", self.count, base.elements, base.count_elements)


#: One timer per base backend: the registry caches a loaded backend by
#: name for the life of the process, so the timer outlives a recording.
_BACKEND_TIMERS: dict[str, _BackendTimer] = {}


def _traced_backend(base_name: str) -> tuple[str, _BackendTimer]:
    timer = _BACKEND_TIMERS.get(base_name)
    if timer is None:
        timer = _BACKEND_TIMERS[base_name] = _BackendTimer(resolve_backend(base_name))
        register_backend(f"traced-{base_name}", timer.backend)
    return f"traced-{base_name}", timer


@contextmanager
def recording(rec: SpanRecorder, backend: str):
    """Route every layer entry point and the ``backend`` kernels through ``rec``.

    Every patched attribute is put back on exit, and the backend
    selection reverts to what it was.
    """
    name, timer = _traced_backend(backend)
    originals = []
    try:
        for owner, attr, span_name, factory, tally in ENTRY_POINTS:
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, factory(rec, span_name, original, tally))
        timer.rec = rec
        with use_backend(name):
            yield rec
    finally:
        timer.rec = None
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def run_metrics(rec: SpanRecorder, wall_s: float, result) -> dict[str, float]:
    """Per-layer metrics of one traced run that took ``wall_s`` seconds."""
    own = rec.self_seconds()
    counts = rec.counts
    kernel_s = own["backend.kernel"]
    elements = counts["backend.elements"]
    machine_s = sum(end - start for name, start, end, *_ in rec.spans if name == "engine.run")
    return {
        "graphs.distribute_s": own["graphs.distribute"],
        "preprocessing.exchange_s": own["preprocessing.exchange"],
        "preprocessing.orient_s": own["preprocessing.orient"],
        "kernels.local_s": own["kernels.local"],
        "kernels.remote_s": own["kernels.remote"],
        "intersect.gather_s": own["intersect.gather"],
        "intersect.gathered_words": counts["intersect.gathered_words"],
        "intersect.dispatch_s": own["intersect.dispatch"],
        "intersect.calls": rec.calls["intersect.dispatch"],
        "intersect.pairs": counts["intersect.pairs"],
        "intersect.ops": counts["intersect.ops"],
        "backend.kernel_s": kernel_s,
        "backend.elements": elements,
        "backend.ns_per_element": 1e9 * kernel_s / elements if elements else 0.0,
        "backend.hits": counts["backend.hits"],
        "aggregation.post_s": own["aggregation.post"],
        "aggregation.finalize_s": own["aggregation.finalize"],
        "aggregation.records": counts["aggregation.records"],
        "aggregation.flushes": counts["aggregation.flushes"],
        "comm.collective_s": own["comm.collective"],
        "comm.calls": rec.calls["comm.collective"],
        "engine.run_s": machine_s,
        "engine.program_self_s": own["engine.program"],
        # PE steps are the only direct children of Machine.run, so its
        # self time is the engine's own scheduling work.
        "engine.sched_s": own["engine.run"],
        "engine.resumptions": sum(1 for span in rec.spans if span[0] == "engine.program"),
        "engine.messages": result.total_messages,
        "engine.max_messages": result.max_messages,
        "engine.volume_words": result.total_volume,
        "trace.run_s": wall_s,
        "trace.attributed_frac": sum(own.values()) / wall_s,
    }
