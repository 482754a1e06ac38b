"""Tests for the opt-in event tracer."""

import pytest

from repro.core.engine import EngineConfig, counting_program
from repro.graphs import distribute
from repro.graphs import generators as gen
from repro.net import Machine
from repro.net.trace import Tracer, render_timeline


def _traced_run(p=3):
    g = gen.gnm(120, 700, seed=4)
    dist = distribute(g, num_pes=p)
    tracer = Tracer()
    res = Machine(p, tracer=tracer).run(
        counting_program, dist, EngineConfig(contraction=True)
    )
    return tracer, res


def test_trace_counts_match_metrics():
    tracer, res = _traced_run()
    sends = [e for e in tracer.events if e.kind == "send"]
    recvs = [e for e in tracer.events if e.kind == "recv"]
    assert len(sends) == res.metrics.total_messages
    assert len(recvs) == sum(m.messages_received for m in res.metrics.per_pe)
    assert sum(e.words for e in sends) == res.metrics.total_volume


def test_trace_phase_spans_match_phase_times():
    _, res = _traced_run()
    for rank, m in enumerate(res.metrics.per_pe):
        by_name = {}
        for span in m.spans:
            by_name[span.name] = by_name.get(span.name, 0.0) + span.elapsed
        assert by_name == pytest.approx(dict(m.phase_times), abs=1e-12), rank


def test_messages_between_endpoints():
    tracer, _ = _traced_run(p=2)
    forward = tracer.messages_between(0, 1)
    backward = tracer.messages_between(1, 0)
    assert forward and backward
    assert all(e.rank == 0 and e.peer == 1 for e in forward)


def test_words_by_tag_includes_protocol_classes():
    tracer, _ = _traced_run()
    by_tag = tracer.words_by_tag()
    tags = {t if isinstance(t, str) else t[0] for t in by_tag}
    assert any("deg-xchg" in str(t) for t in by_tag)
    assert "nbh" in tags or any("nbh" in str(t) for t in by_tag)


def test_render_timeline_truncates():
    tracer, _ = _traced_run()
    text = render_timeline(tracer, max_events=10)
    assert "time [us]" in text
    assert "more events" in text
    assert "PE0" in text


def test_tracing_off_by_default_and_costless():
    g = gen.ring(12)
    dist = distribute(g, num_pes=2)
    machine = Machine(2)
    assert machine.tracer is None
    res = machine.run(counting_program, dist, EngineConfig())
    assert res.values[0].triangles_total == 0


def test_tracing_does_not_change_results():
    g = gen.rmat(8, 8, seed=7)
    dist = distribute(g, num_pes=4)
    plain = Machine(4).run(counting_program, dist, EngineConfig())
    traced = Machine(4, tracer=Tracer()).run(counting_program, dist, EngineConfig())
    assert plain.values[0].triangles_total == traced.values[0].triangles_total
    assert plain.metrics.makespan == traced.metrics.makespan
