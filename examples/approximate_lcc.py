"""Approximate counting: the AMQ global phase vs sampling baselines.

The paper's Section IV-E argues its AMQ scheme is "particularly
interesting" because — unlike DOULION / colorful sampling, which only
estimate the *global* triangle count — it keeps type-1/2 triangles
exact and only approximates the cross-PE part, so accuracy stays high
at large communication savings.

This example sweeps the filter budget on a friendster-like graph and
contrasts accuracy/volume with DOULION and colorful counting at a
comparable reduction of processed data.

Run with::

    python examples/approximate_lcc.py
"""

from repro.analysis.tables import format_table
from repro.core.approx import amq_cetric_program, colorful, doulion
from repro.core.edge_iterator import edge_iterator
from repro.core.engine import CONFIGS, counting_program
from repro.graphs import dataset, distribute
from repro.net import Machine

P = 8


def main() -> None:
    graph = dataset("friendster", scale=0.5)
    truth = edge_iterator(graph).triangles
    dist = distribute(graph, num_pes=P)
    exact = Machine(P).run(counting_program, dist, CONFIGS["cetric"])
    exact_volume = exact.metrics.bottleneck_volume
    print(
        f"input: {graph.name} (n={graph.num_vertices:,}, m={graph.num_edges:,}); "
        f"exact triangles = {truth:,}; exact bottleneck volume = {exact_volume:,} words\n"
    )

    rows = []
    for kind in ("bloom", "ssbf"):
        for budget in (4.0, 8.0, 16.0):
            res = Machine(P).run(amq_cetric_program, dist, amq_kind=kind, budget=budget)
            est = res.values[0].estimate_total
            rows.append(
                {
                    "method": f"AMQ {kind} (budget {budget:g})",
                    "estimate": round(est),
                    "error %": 100 * abs(est - truth) / truth,
                    "volume vs exact": res.metrics.bottleneck_volume / max(exact_volume, 1),
                }
            )
    for q in (0.5, 0.25):
        d = doulion(graph, q, seed=5)
        rows.append(
            {
                "method": f"DOULION q={q}",
                "estimate": round(d.estimate),
                "error %": 100 * abs(d.estimate - truth) / truth,
                "volume vs exact": d.reduced_edges / graph.num_edges,
            }
        )
    for colors in (2, 3):
        c = colorful(graph, colors, seed=5)
        rows.append(
            {
                "method": f"colorful N={colors}",
                "estimate": round(c.estimate),
                "error %": 100 * abs(c.estimate - truth) / truth,
                "volume vs exact": c.reduced_edges / graph.num_edges,
            }
        )

    print(
        format_table(
            rows,
            ["method", "estimate", "error %", "volume vs exact"],
            title=f"approximate triangle counting (p={P}; 'volume vs exact' = "
            "communication (AMQ) or surviving-edge fraction (sampling))",
        )
    )

    amq_err = max(r["error %"] for r in rows if r["method"].startswith("AMQ"))
    sample_err = max(r["error %"] for r in rows if not r["method"].startswith("AMQ"))
    print(
        f"\nworst AMQ error {amq_err:.2f}% vs worst sampling error "
        f"{sample_err:.2f}% — exact local counting keeps the AMQ estimator tight ✓"
    )


if __name__ == "__main__":
    main()
