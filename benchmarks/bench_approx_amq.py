"""Section IV-E extension — approximate counting with an AMQ global phase.

Not a numbered figure in the paper (the AMQ variant is described but
not evaluated there), so this benchmark defines the obvious experiment
the text implies: accuracy and communication volume of the
Bloom-filter and compressed-single-shot-Bloom-filter global phases
versus the exact CETRIC run, across filter budgets, plus the DOULION
and colorful-counting baselines of Section III-B.

Asserted shapes:

* the truthful (bias-corrected) estimator stays within a few percent
  of the exact count at reasonable budgets;
* volume decreases as the budget shrinks, below the exact volume;
* the compressed single-shot filter needs fewer wire words than the
  plain Bloom filter at comparable FPR (the footnote-2 claim);
* DOULION/colorful trade accuracy much less favourably at comparable
  reduction factors (they only approximate the *global* count).
"""

import harness
from conftest import run_once, save_artifact

from repro.analysis.tables import format_table
from repro.core.approx import amq_cetric_program, colorful, doulion
from repro.core.edge_iterator import edge_iterator
from repro.core.engine import CONFIGS, counting_program
from repro.graphs.datasets import dataset
from repro.graphs.distributed import distribute
from repro.net import Machine

P = 16


def _experiment():
    g = dataset("friendster", scale=1.0)
    truth = edge_iterator(g).triangles
    dist = distribute(g, num_pes=P)
    exact = Machine(P).run(counting_program, dist, CONFIGS["cetric"])
    rows = []
    for kind, budgets in (("bloom", (4.0, 8.0, 16.0)), ("ssbf", (8.0, 16.0, 32.0))):
        for budget in budgets:
            res = Machine(P).run(
                amq_cetric_program, dist, amq_kind=kind, budget=budget
            )
            est = res.values[0].estimate_total
            rows.append(
                {
                    "method": f"{kind}({budget:g})",
                    "estimate": est,
                    "rel. error %": 100.0 * abs(est - truth) / truth,
                    "bottleneck volume": res.metrics.bottleneck_volume,
                    "volume vs exact": res.metrics.bottleneck_volume
                    / max(exact.metrics.bottleneck_volume, 1),
                }
            )
    for q in (0.5, 0.25):
        d = doulion(g, q, seed=1)
        rows.append(
            {
                "method": f"doulion(q={q})",
                "estimate": d.estimate,
                "rel. error %": 100.0 * abs(d.estimate - truth) / truth,
                "bottleneck volume": None,
                "volume vs exact": d.reduced_edges / g.num_edges,
            }
        )
    for n_colors in (2, 4):
        c = colorful(g, n_colors, seed=1)
        rows.append(
            {
                "method": f"colorful(N={n_colors})",
                "estimate": c.estimate,
                "rel. error %": 100.0 * abs(c.estimate - truth) / truth,
                "bottleneck volume": None,
                "volume vs exact": c.reduced_edges / g.num_edges,
            }
        )
    return truth, exact.metrics.bottleneck_volume, rows


def test_amq_approximation_tradeoff(benchmark, results_dir):
    truth, exact_volume, rows = run_once(benchmark, _experiment)
    text = format_table(
        [{"method": "exact cetric", "estimate": truth, "rel. error %": 0.0,
          "bottleneck volume": exact_volume, "volume vs exact": 1.0}] + rows,
        ["method", "estimate", "rel. error %", "bottleneck volume", "volume vs exact"],
        title="Section IV-E: AMQ-approximate global phase vs sampling baselines "
        f"(friendster stand-in, p={P})",
    )
    save_artifact(results_dir, "approx_amq.txt", text)
    for r in rows:
        harness.emit(
            "approx_amq",
            bottleneck_volume=r["bottleneck volume"],
            method=r["method"],
        )

    amq_rows = [r for r in rows if r["method"].startswith(("bloom", "ssbf"))]
    # Truthful estimator: within 5 % at every tested budget.
    assert all(r["rel. error %"] < 5.0 for r in amq_rows)
    # The AMQ phase saves communication volume vs the exact run.
    assert min(r["volume vs exact"] for r in amq_rows) < 0.9
    # Tighter budgets -> less volume (bloom series is budget-monotone).
    blooms = [r for r in amq_rows if r["method"].startswith("bloom")]
    vols = [r["bottleneck volume"] for r in blooms]
    assert vols[0] <= vols[1] <= vols[2]
    # SSBF at budget 16 beats Bloom at budget 16 on wire size while
    # keeping a comparable error (footnote 2).
    bloom16 = next(r for r in rows if r["method"] == "bloom(16)")
    ssbf16 = next(r for r in rows if r["method"] == "ssbf(16)")
    assert ssbf16["bottleneck volume"] < bloom16["bottleneck volume"]
    # Sampling baselines pay far more error for comparable reduction.
    sampling = [r for r in rows if r["method"].startswith(("doulion", "colorful"))]
    assert max(r["rel. error %"] for r in sampling) > max(
        r["rel. error %"] for r in amq_rows
    )
