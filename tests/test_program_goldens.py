"""Golden fingerprints of the non-counting programs.

Exact LCC, enumeration and the two AMQ programs run the same phase
skeleton as :func:`repro.core.engine.counting_program` with other
kernels; k-core and connected components run rounds of the halo
exchange of :mod:`repro.core.preprocessing`.  Each digest below covers,
per run: every PE's return value (Δ and LCC arrays, triangle rows,
estimates, exact-local and remote parts, core numbers, labels and
round counts), the modelled time and per-phase breakdown, and the message
and volume metrics (total and max messages, total and bottleneck
volume, plus each PE's clock, words, messages and charged ops).  A
refactor of the shared skeleton must leave all of them unchanged.
"""

import hashlib

import numpy as np
import pytest

from repro.core.approx import amq_cetric_program, amq_lcc_program
from repro.core.components import components_program
from repro.core.engine import CONFIGS, EngineConfig
from repro.core.enumerate import enumerate_program
from repro.core.kcore import kcore_program
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
        "cbead4d51aaeb3d429c76c27ed20898d"
        "0562a33480e14027976bf67d35c502cd"
    ),
    "amq-cetric-bloom-indirect": (
        "307c1bbd137e0e3088093c98ea0cf37a"
        "37cf1635aead5e33258b46b36f9a33d8"
    ),
    "amq-cetric-ssbf": (
        "7919d0d268ca95714b05c891e1375198"
        "57f0652d87c7d389715e82830f543cad"
    ),
    "amq-cetric-ssbf-indirect": (
        "5dd169229a441c389a9a3661c7d40494"
        "c6838c778b58b1199919d9095e534d68"
    ),
    "amq-lcc-bloom": (
        "b3f2ac0f2a7309a0a01f843dfa71c4c9"
        "331ec9642b6bac0b90e0a29a1b01cf93"
    ),
    "amq-lcc-ssbf": (
        "e22406a314750d32432f9f7e348b4b39"
        "d6c3abada0d552ef273115ca3c29c9aa"
    ),
    "kcore": (
        "269e33a2af74e426d429ae9449587e35"
        "a461e04cd3c0033e895ff49f8b836a35"
    ),
    "components": (
        "c67e7b47f592f8132aa6d556d56fcb0f"
        "2be71f9c53b10429c5bed7b5bbc167f4"
    ),
}

#: The AMQ runs without clocks: the same fields minus the modelled time,
#: the phase times and each PE's clock.  These hold across a change that
#: only reorders charges within a PE (e.g. a flush's send cost moving
#: past a filter-construction charge), which shifts clocks by rounding.
GOLDEN_CLOCK_FREE = {
    "amq-cetric-bloom": (
        "c08556b3f1941733ad5af0d6b252b07d"
        "54255bbbc998babeec12794888b75bde"
    ),
    "amq-cetric-bloom-indirect": (
        "599bcf97ede944d44f76eb1dedcb46bc"
        "58a9ecae4c622de128c10c6800956a73"
    ),
    "amq-cetric-ssbf": (
        "d7213f61dc4a1d956ca1a591380a6bb6"
        "d9a4c9419a42f430b35e5613845bc406"
    ),
    "amq-cetric-ssbf-indirect": (
        "46973b54d1c0fa3f996767946d54e445"
        "6422ad84eb235ce9aaa6ad4c1be0d46e"
    ),
    "amq-lcc-bloom": (
        "25ee4520e064eeadecf006fe1830a32e"
        "f82aaac8a01784be27a91517acdc81a9"
    ),
    "amq-lcc-ssbf": (
        "c9bba1ead7bb3c2cc41a5b14407fec97"
        "4243e80c324d1e5d599d4464a40b9704"
    ),
}

GOLDEN_PES = (4, 6)
_HALO_PROGRAMS = {"kcore": kcore_program, "components": components_program}


def _program(name):
    """``(program, args, kwargs)`` of one golden run."""
    if name in _HALO_PROGRAMS:
        return _HALO_PROGRAMS[name], (), {}
    family, _, variant = name.partition("-")
    if family in ("lcc", "enumerate"):
        program = lcc_program if family == "lcc" else enumerate_program
        return program, (CONFIGS[variant],), {}
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


def _fingerprint(name, *, clocks=True):
    """sha256 over the golden runs of ``name``; ``clocks=False`` leaves out
    the modelled time, the phase times and every PE's clock."""
    program, args, kwargs = _program(name)
    h = hashlib.sha256()
    for graph in (gen.gnm(160, 720, seed=3), gen.rmat(7, 6, seed=5)):
        for p in GOLDEN_PES:
            dist = distribute(graph, num_pes=p)
            res = Machine(p).run(program, dist, *args, **kwargs)
            for value in res.values:
                _digest_value(h, value)
            m = res.metrics
            time = f"{res.time.hex()}|" if clocks else ""
            h.update(
                f"{time}{m.total_messages}|{m.max_messages_sent}"
                f"|{m.total_volume}|{m.bottleneck_volume}\n".encode()
            )
            if clocks:
                for phase, t in sorted(m.phase_breakdown().items()):
                    h.update(f"{phase}|{t.hex()}\n".encode())
            for pe in m.per_pe:
                clock = f"{pe.clock.hex()}|" if clocks else ""
                h.update(
                    f"{clock}{pe.words_sent}|{pe.messages_sent}"
                    f"|{pe.local_ops}\n".encode()
                )
    return h.hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN_PROGRAMS))
def test_program_runs_match_golden_fingerprint(name):
    assert _fingerprint(name) == GOLDEN_PROGRAMS[name]


@pytest.mark.parametrize("name", list(GOLDEN_CLOCK_FREE))
def test_amq_runs_match_clock_free_fingerprint(name):
    assert _fingerprint(name, clocks=False) == GOLDEN_CLOCK_FREE[name]
