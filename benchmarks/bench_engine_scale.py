"""Event-engine scaling: idle PEs must cost (almost) nothing.

A polling scheduler resumes every live PE once per round, so a
mostly-idle machine — two PEs exchanging messages while thousands wait
in a collective — would pay O(rounds * p) generator resumptions.  The
event engine parks blocked PEs on the tag they wait for and resumes
them only on delivery, so the same run costs O(rounds + p).

The toy instance makes the gap extreme on purpose: ranks 0 and 1
ping-pong ``ROUNDS`` messages on per-round tags while every other PE
sits blocked in a binomial broadcast from rank 0, which only completes
after the ping-pong.

Asserted (all exact and deterministic — no wall-clock gate):

* engine resumptions and simulated time equal their golden values at
  every p, frozen when a strict round-robin loop still ran next to the
  engine and agreed with it bit for bit;
* engine resumptions grow sub-linearly in idle PEs: the marginal cost
  of an extra parked PE is a small constant (its broadcast hops), not
  a per-round poll.
"""

import time

import harness
from conftest import run_once, save_artifact

from repro.analysis.tables import format_table
from repro.net import Machine
from repro.net.comm import bcast

PE_COUNTS = (256, 1024, 4096)
ROUNDS = 2000
#: Golden engine resumptions per p.
GOLDEN_STEPS = {256: 4510, 1024: 6046, 4096: 12190}
#: Golden simulated makespan per p (``float.hex``).
GOLDEN_TIME = {
    256: "0x1.06c09979c250bp-6",
    1024: "0x1.06e22a28b3b8bp-6",
    4096: "0x1.0703bad7a520bp-6",
}
#: Ceiling on marginal engine resumptions per additional idle PE.  A
#: parked PE costs its broadcast participation (recv park + resume +
#: child sends) — a handful of steps, independent of ROUNDS.
MARGINAL_STEPS_CEILING = 8.0


def _ping_pong_fleet(ctx, rounds):
    """Two chatty PEs, p - 2 idle ones blocked in a broadcast."""
    if ctx.rank == 0:
        for i in range(rounds):
            ctx.send(1, ("ping", i), None, 1)
            yield from ctx.recv(("pong", i))
    elif ctx.rank == 1:
        for i in range(rounds):
            yield from ctx.recv(("ping", i))
            ctx.send(0, ("pong", i), None, 1)
    result = yield from bcast(ctx, "done")
    return result


def _experiment():
    rows = []
    for p in PE_COUNTS:
        machine = Machine(p, protocol_check=False)
        t0 = time.perf_counter()
        res = machine.run(_ping_pong_fleet, ROUNDS)
        wall = time.perf_counter() - t0
        rows.append(
            {
                "p": p,
                "wall s": wall,
                "engine steps": res.engine.steps,
                "steps/PE": res.engine.steps / p,
                "simulated time": res.time,
            }
        )
    return rows


def test_engine_scale_idle_pes_are_cheap(benchmark, results_dir):
    rows = run_once(benchmark, _experiment)
    text = format_table(
        rows, ["p", "wall s", "engine steps", "steps/PE", "simulated time"]
    )
    save_artifact(results_dir, "engine_scale.txt", text)
    for row in rows:
        harness.emit(
            "engine_scale",
            simulated_time=row["simulated time"],
            wall_seconds=row["wall s"],
            p=row["p"],
            rounds=ROUNDS,
        )

    for row in rows:
        p = row["p"]
        assert row["engine steps"] == GOLDEN_STEPS[p], f"engine steps moved at p={p}"
        assert row["simulated time"].hex() == GOLDEN_TIME[p], (
            f"simulated time moved at p={p}"
        )

    # Marginal resumptions per extra idle PE: a constant, not ~ROUNDS.
    lo, hi = rows[0], rows[-1]
    marginal = (hi["engine steps"] - lo["engine steps"]) / (hi["p"] - lo["p"])
    assert marginal <= MARGINAL_STEPS_CEILING, (
        f"{marginal:.1f} engine steps per additional idle PE — idle PEs "
        f"are not cheap (ceiling {MARGINAL_STEPS_CEILING})"
    )
