"""Golden fingerprints of the non-counting CETRIC/DITRIC programs.

Exact LCC, enumeration and the two AMQ programs run the same phase
skeleton as :func:`repro.core.engine.counting_program` with other
kernels.  Each digest below covers, per run: every PE's return value
(Δ and LCC arrays, triangle rows, estimates, exact-local and remote
parts), the modelled time and per-phase breakdown, and the message
and volume metrics (total and max messages, total and bottleneck
volume, plus each PE's clock, words, messages and charged ops).  A
refactor of the shared skeleton must leave all of them unchanged.
"""

import hashlib

import numpy as np
import pytest

from repro.core.approx import amq_cetric_program, amq_lcc_program
from repro.core.engine import EngineConfig
from repro.core.enumerate import enumerate_program
from repro.core.lcc import lcc_program
from repro.graphs import distribute
from repro.graphs import generators as gen
from repro.net import Machine

GOLDEN_PROGRAMS = {
    "lcc-ditric": (
        "9586ec80e9513550ce1c43b53e51b556"
        "125812fe331192ae3567623c989881d0"
    ),
    "lcc-ditric2": (
        "74f4b6352f8f9d496b1b73458006d3a5"
        "2cb651e043b0b0bf8e00d6af09378026"
    ),
    "lcc-cetric": (
        "fadcd0d203d1b8d388b133ce176089e6"
        "32ab3980f5f9c652eefcba527a9ac5c2"
    ),
    "lcc-cetric2": (
        "0cf8f6091851ac4300132b30c6e97ef4"
        "41082af8166bdace4f9db075d1b24841"
    ),
    "enumerate-ditric": (
        "d3acd322ebdf8e553370386c456b7a3b"
        "c0d20714dca76679bc5885f4c5ea4e81"
    ),
    "enumerate-ditric2": (
        "a75914acae892e19b0560be4f639ff10"
        "34d19af3985db916b86aef99f38e2a3b"
    ),
    "enumerate-cetric": (
        "9c3febc9a7815cc404bd6d62cde44dc9"
        "8dc60d2fed837c84e25b4f4b3e9ad14c"
    ),
    "enumerate-cetric2": (
        "7971eb94289bbca4b132db53df365b5e"
        "dfb38eaf76e379f3815ca175e98120a5"
    ),
    "amq-cetric-bloom": (
        "2c8bb2477e693560b957a039b8e8e58c"
        "7edb0abcd6a85e1353c6d0bc2cfda6c3"
    ),
    "amq-cetric-bloom-indirect": (
        "d3853f5628a6057b34fa116e7eb91b3e"
        "01aeeadab7fce07c9fe154859b9263ce"
    ),
    "amq-cetric-ssbf": (
        "355e1455ea5d62c5fbd6a0ee5a6128e4"
        "3322a05579fa34226d416569c51d0914"
    ),
    "amq-cetric-ssbf-indirect": (
        "c4a67c3783e558f9956f326e6ea782a5"
        "6d2bcbfdc0c764c62ae3a0d6c09f6dd4"
    ),
    "amq-lcc-bloom": (
        "f570a0a8770e61e9e67d7568526cca61"
        "b55645d5e7aa301279e7860c51567b92"
    ),
    "amq-lcc-ssbf": (
        "663205b867c97da0580c1c5290d61415"
        "ef85735eec533d1e363d0e6e55c28cb8"
    ),
}

_CONFIGS = {
    "ditric": EngineConfig(),
    "ditric2": EngineConfig(indirect=True),
    "cetric": EngineConfig(contraction=True),
    "cetric2": EngineConfig(contraction=True, indirect=True),
}
GOLDEN_PES = (4, 6)


def _program(name):
    """``(program, args, kwargs)`` of one golden run."""
    family, _, variant = name.partition("-")
    if family in ("lcc", "enumerate"):
        program = lcc_program if family == "lcc" else enumerate_program
        return program, (_CONFIGS[variant],), {}
    kind = "ssbf" if "ssbf" in variant else "bloom"
    if variant.startswith("cetric"):
        config = EngineConfig(contraction=True, indirect=variant.endswith("indirect"))
        return amq_cetric_program, (), {"amq_kind": kind, "config": config}
    return amq_lcc_program, (), {"amq_kind": kind}


def _digest_value(h, value):
    for field, x in sorted(vars(value).items()):
        if isinstance(x, np.ndarray):
            h.update(f"{field}|{x.dtype}|{x.shape}|".encode() + x.tobytes())
        elif isinstance(x, float):
            h.update(f"{field}|{x.hex()}".encode())
        else:
            h.update(f"{field}|{int(x)}".encode())
        h.update(b"\n")


@pytest.mark.parametrize("name", list(GOLDEN_PROGRAMS))
def test_program_runs_match_golden_fingerprint(name):
    program, args, kwargs = _program(name)
    h = hashlib.sha256()
    for graph in (gen.gnm(160, 720, seed=3), gen.rmat(7, 6, seed=5)):
        for p in GOLDEN_PES:
            dist = distribute(graph, num_pes=p)
            res = Machine(p).run(program, dist, *args, **kwargs)
            for value in res.values:
                _digest_value(h, value)
            m = res.metrics
            h.update(
                f"{res.time.hex()}|{m.total_messages}|{m.max_messages_sent}"
                f"|{m.total_volume}|{m.bottleneck_volume}\n".encode()
            )
            for phase, t in sorted(m.phase_breakdown().items()):
                h.update(f"{phase}|{t.hex()}\n".encode())
            for pe in m.per_pe:
                h.update(
                    f"{pe.clock.hex()}|{pe.words_sent}|{pe.messages_sent}"
                    f"|{pe.local_ops}\n".encode()
                )
    assert h.hexdigest() == GOLDEN_PROGRAMS[name]
