"""Direct unit tests for metrics, messages and cost-model helpers."""

import pytest

from repro.net.costmodel import CLOUD, LAN, SUPERMUC, MachineSpec
from repro.net.messages import HEADER_WORDS
from repro.net.metrics import PEMetrics, RunMetrics


# ------------------------------------------------------------- costmodel
def test_message_time_formula():
    spec = MachineSpec(alpha=2.0, beta=0.5)
    assert spec.message_time(10) == pytest.approx(2.0 + 5.0)
    assert spec.message_time(0) == pytest.approx(2.0)


def test_compute_time_formula():
    spec = MachineSpec(flop_time=1e-6)
    assert spec.compute_time(1000) == pytest.approx(1e-3)


def test_preset_names():
    assert SUPERMUC.name == "supermuc-ng"
    assert LAN.name == "lan"
    assert CLOUD.name == "cloud"


def test_scaled_returns_new_instance():
    s = SUPERMUC.scaled(memory_words=10)
    assert s.memory_words == 10
    assert SUPERMUC.memory_words != 10  # frozen original untouched


# ------------------------------------------------------------- messages
def test_header_words_constant():
    assert HEADER_WORDS == 2


# ------------------------------------------------------------- metrics
def _pe(rank, **kw):
    m = PEMetrics(rank=rank)
    for k, v in kw.items():
        setattr(m, k, v)
    return m


def test_note_buffer_tracks_high_water():
    m = PEMetrics(rank=0)
    m.note_buffer(10)
    m.note_buffer(5)
    m.note_buffer(20)
    assert m.peak_buffer_words == 20


def test_run_metrics_aggregations():
    rm = RunMetrics(
        per_pe=[
            _pe(0, clock=1.0, messages_sent=3, words_sent=10, local_ops=100),
            _pe(1, clock=2.5, messages_sent=7, words_sent=5, local_ops=50),
        ]
    )
    assert rm.num_pes == 2
    assert rm.makespan == 2.5
    assert rm.max_messages_sent == 7
    assert rm.bottleneck_volume == 10
    assert rm.total_volume == 15
    assert rm.total_messages == 10
    assert rm.total_ops == 150


def test_run_metrics_empty():
    rm = RunMetrics(per_pe=[])
    assert rm.makespan == 0.0
    assert rm.max_messages_sent == 0
    assert rm.bottleneck_volume == 0
    assert rm.phase_breakdown() == {}


def test_phase_breakdown_is_max_over_pes():
    a = PEMetrics(rank=0)
    a.phase_times["local"] = 3.0
    b = PEMetrics(rank=1)
    b.phase_times["local"] = 5.0
    b.phase_times["global"] = 1.0
    rm = RunMetrics(per_pe=[a, b])
    assert rm.phase_breakdown() == {"local": 5.0, "global": 1.0}


def test_summary_contains_phases():
    a = PEMetrics(rank=0)
    a.clock = 2.0
    a.phase_times["local"] = 2.0
    rm = RunMetrics(per_pe=[a])
    s = rm.summary()
    assert s["time"] == 2.0
    assert s["phase_local"] == 2.0
    assert "num_pes" in s and "bottleneck_volume" in s
