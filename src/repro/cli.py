"""Command-line interface: ``repro-tc`` / ``python -m repro``.

Subcommands
-----------
``count``
    Count triangles on a dataset stand-in, generator instance, or
    graph file with any algorithm.
``lcc``
    Print local-clustering-coefficient statistics.
``sweep``
    Strong-scaling sweep over PE counts, printed as a figure panel.
``datasets``
    The Table-I stand-in statistics next to the paper's numbers.
``lint``
    Static SPMD-protocol checks (rules R1-R14) over source trees.
``chaos``
    Fault-injection campaign: sweep seeds x drop rates (plus one
    scheduled PE crash) and assert exact counts; ``--recovery
    localized`` recovers crashes in place instead of restarting
    (``docs/FAULTS.md``).
``bench``
    Instrumented benchmark run: emit a normalized record into
    ``BENCH_<date>.json``, write a Chrome/Perfetto trace, print the
    critical-path phase profile; ``--suite smoke`` runs the fixed
    regression-gate suite and ``--baseline`` diffs against a committed
    baseline (``docs/BENCHMARKS.md``).

Examples
--------
::

    repro-tc count --graph rgg2d:4096 --algorithm cetric -p 16
    repro-tc sweep --graph dataset:webbase-2001 --max-pes 32
    repro-tc datasets --scale 0.5
    repro-tc chaos --seeds 5 --drop-rates 0,0.05 --algorithms cetric
    repro-tc chaos --seeds 5 --drop-rates 0 --recovery localized
    repro-tc bench --algo cetric --gen rmat -p 16
    repro-tc bench --suite smoke --baseline benchmarks/baseline/BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from .analysis import (
    ALGORITHMS,
    format_scaling_table,
    graph_stats,
    pe_counts_powers_of_two,
    strong_scaling,
)
from .api import count_triangles, local_clustering_coefficients
from .graphs import dataset as load_dataset
from .graphs import generators as gen
from .graphs.csr import CSRGraph
from .graphs.datasets import DATASET_NAMES, PAPER_STATS
from .graphs.io import load as load_file

__all__ = ["main", "parse_graph_spec"]


def parse_graph_spec(spec: str) -> CSRGraph:
    """Parse a graph specifier.

    Accepted forms::

        dataset:<name>[:scale]   Table-I stand-in (e.g. dataset:orkut)
        rgg2d:<n>[:seed]         generators with the paper defaults
        rhg:<n>[:seed]
        gnm:<n>[:seed]
        rmat:<scale>[:seed]      (vertex count 2**scale)
        <path>                   edge-list / METIS / .npz file
    """
    parts = spec.split(":")
    kind = parts[0]
    if kind == "dataset":
        if len(parts) < 2:
            raise ValueError("dataset spec needs a name, e.g. dataset:orkut")
        scale = float(parts[2]) if len(parts) > 2 else 1.0
        return load_dataset(parts[1], scale=scale)
    if kind in ("rgg2d", "rhg", "gnm", "rmat"):
        if len(parts) < 2:
            raise ValueError(f"{kind} spec needs a size, e.g. {kind}:4096")
        size = int(parts[1])
        seed = int(parts[2]) if len(parts) > 2 else 1
        if kind == "rgg2d":
            return gen.rgg2d(size, expected_edges=16 * size, seed=seed)
        if kind == "rhg":
            return gen.rhg(size, avg_degree=32.0, seed=seed)
        if kind == "gnm":
            return gen.gnm(size, 16 * size, seed=seed)
        return gen.rmat(size, 16, seed=seed)
    return load_file(spec)


def _cmd_count(args: argparse.Namespace) -> int:
    graph = parse_graph_spec(args.graph)
    res = count_triangles(graph, algorithm=args.algorithm, num_pes=args.pes)
    if not res.ok:
        print(f"{args.algorithm} failed: {res.failed}")
        return 1
    print(f"graph        : {graph.name} (n={graph.num_vertices}, m={graph.num_edges})")
    print(f"algorithm    : {args.algorithm} (p={res.num_pes})")
    print(f"triangles    : {res.triangles}")
    if args.algorithm != "sequential":
        print(f"modelled time: {res.time:.6f} s")
        print(f"max messages : {res.max_messages}")
        print(f"bottleneck communication volume: {res.bottleneck_volume} words")
        for name, t in sorted(res.phases.items()):
            print(f"  phase {name:<14s}: {t:.6f} s")
    return 0


def _cmd_lcc(args: argparse.Namespace) -> int:
    graph = parse_graph_spec(args.graph)
    lcc = local_clustering_coefficients(
        graph, num_pes=args.pes if args.pes > 0 else None
    )
    print(f"graph : {graph.name} (n={graph.num_vertices}, m={graph.num_edges})")
    print(f"mean LCC   : {lcc.mean():.6f}")
    print(f"median LCC : {np.median(lcc):.6f}")
    print(f"max LCC    : {lcc.max(initial=0):.6f}")
    hist, edges = np.histogram(lcc, bins=10, range=(0.0, 1.0))
    for lo, hi, count in zip(edges[:-1], edges[1:], hist):
        bar = "#" * int(50 * count / max(hist.max(), 1))
        print(f"  [{lo:4.2f},{hi:4.2f}) {count:8d} {bar}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    graph = parse_graph_spec(args.graph)
    pes = pe_counts_powers_of_two(args.max_pes, start=args.min_pes)
    algos = args.algorithms.split(",") if args.algorithms else [
        "ditric", "ditric2", "cetric", "cetric2", "tric", "havoqgt",
    ]
    rows = strong_scaling(graph, algos, pes)
    print(format_scaling_table(rows, "time", title=f"time [s] on {graph.name}"))
    print()
    print(format_scaling_table(rows, "max_messages", title="max #messages over PEs"))
    print()
    print(
        format_scaling_table(
            rows, "bottleneck_volume", title="bottleneck communication volume [words]"
        )
    )
    if args.plot:
        from .analysis.plot import plot_results

        print()
        print(plot_results(rows, "time", title=f"time vs p on {graph.name}"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import generate_report

    text = generate_report(
        scale=args.scale,
        pe_counts=tuple(int(p) for p in args.pes.split(",")),
    )
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_types(args: argparse.Namespace) -> int:
    graph = parse_graph_spec(args.graph)
    from .analysis.triangle_types import classify_triangles

    print(f"graph : {graph.name} (n={graph.num_vertices}, m={graph.num_edges})")
    print(f"{'p':>4s} {'type1':>10s} {'type2':>10s} {'type3':>10s} {'local %':>8s}")
    p = args.min_pes
    while p <= args.max_pes:
        counts = classify_triangles(graph, num_pes=p)
        print(
            f"{p:>4d} {counts.type1:>10d} {counts.type2:>10d} "
            f"{counts.type3:>10d} {counts.local_fraction:>8.1%}"
        )
        p *= 2
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    graph = parse_graph_spec(args.graph)
    from .analysis.verify import ground_truth_triangles

    truth = ground_truth_triangles(graph, cross_check=True)
    print(f"graph : {graph.name} (n={graph.num_vertices}, m={graph.num_edges})")
    print(f"oracle triangle count: {truth}")
    failures = 0
    algos = args.algorithms.split(",") if args.algorithms else [
        a for a in ALGORITHMS if a != "sequential"
    ]
    for algo in algos:
        res = count_triangles(graph, algorithm=algo, num_pes=args.pes)
        if not res.ok:
            print(f"  {algo:18s}: FAILED ({res.failed})")
            failures += 1
        elif res.triangles != truth:
            print(f"  {algo:18s}: MISMATCH ({res.triangles} != {truth})")
            failures += 1
        else:
            print(f"  {algo:18s}: ok ({res.time:.6f} s modelled)")
    return 1 if failures else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import main as lint_main

    argv = list(args.paths)
    if args.list_rules:
        argv.append("--list-rules")
    if args.strict:
        argv.append("--strict")
    if args.no_flow:
        argv.append("--no-flow")
    if args.format != "text":
        argv.extend(["--format", args.format])
    if args.baseline:
        argv.extend(["--baseline", args.baseline])
    if args.update_baseline:
        argv.extend(["--update-baseline", args.update_baseline])
    return lint_main(argv)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import format_campaign, run_campaign

    graph = parse_graph_spec(args.graph) if args.graph else None
    outcomes = run_campaign(
        algorithms=tuple(args.algorithms.split(",")),
        seeds=range(args.seeds),
        drop_rates=tuple(float(r) for r in args.drop_rates.split(",")),
        duplicate_rate=args.duplicate_rate,
        crash_fraction=None if args.no_crash else args.crash_fraction,
        graph=graph,
        num_pes=args.pes,
        recovery=args.recovery,
    )
    print(format_campaign(outcomes))
    return 0 if all(o.exact for o in outcomes) else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    import time as _time
    from pathlib import Path

    from .analysis.runner import run_algorithm
    from .net.trace import Tracer
    from .obs import (
        bench,
        profile_metrics,
        record_from_run,
        write_chrome_trace,
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    bench_path = out_dir / bench.bench_json_name()

    def _print_bench_table(records) -> None:
        print(f"{'record':<28s} {'algorithm':<10s} {'sim time [s]':>14s} "
              f"{'wall [s]':>10s} {'triangles':>10s}")
        for rec in records:
            sim = f"{rec.simulated_time:.6f}" if rec.simulated_time is not None else "-"
            wall = f"{rec.wall_seconds:.3f}" if rec.wall_seconds is not None else "-"
            tri = str(rec.triangles) if rec.triangles is not None else "-"
            algo = str(rec.params.get("algorithm", "-"))
            print(f"{rec.name:<28s} {algo:<10s} {sim:>14s} {wall:>10s} {tri:>10s}")

    if args.suite:
        if args.suite != "smoke":
            print(f"unknown suite {args.suite!r}; available: smoke")
            return 2
        records = bench.smoke_suite(scale_time=args.scale_time)
        bench.write_bench_json(records, bench_path)
        _print_bench_table(records)
        print(f"{len(records)} record(s) written to {bench_path}")
    else:
        spec_parts = [args.gen]
        if args.size:
            spec_parts.append(str(args.size))
        elif ":" not in args.gen and args.gen in ("rgg2d", "rhg", "gnm", "rmat"):
            spec_parts.append("10" if args.gen == "rmat" else "4096")
        spec_parts.append(str(args.seed))
        graph = parse_graph_spec(":".join(spec_parts))
        tracer = Tracer()
        t0 = _time.perf_counter()
        res = run_algorithm(graph, args.algo, num_pes=args.pes, tracer=tracer)
        wall = _time.perf_counter() - t0
        if not res.ok:
            print(f"{args.algo} failed: {res.failed}")
            return 1
        record = record_from_run(
            f"bench:{args.gen}", res, wall_seconds=wall, graph=graph.name, seed=args.seed
        )
        if args.scale_time != 1.0 and record.simulated_time is not None:
            record = bench.BenchRecord.from_dict(
                {**record.to_dict(), "simulated_time": record.simulated_time * args.scale_time}
            )
        bench.write_bench_json([record], bench_path)
        slug = re.sub(r"[^A-Za-z0-9._-]+", "-", graph.name).strip("-")
        trace_path = Path(
            args.trace or out_dir / f"trace_{args.algo}_{slug}_p{res.num_pes}.json"
        )
        write_chrome_trace(
            trace_path, res.metrics, tracer, run_name=f"{args.algo} on {graph.name}"
        )
        profile = profile_metrics(res.metrics)
        print(
            profile.format(
                title=f"{args.algo} on {graph.name} (p={res.num_pes}), "
                f"{res.triangles} triangles"
            )
        )
        _print_bench_table([record])
        print(f"bench record appended to {bench_path}")
        print(f"Chrome trace written to {trace_path} (open in https://ui.perfetto.dev)")
        records = [record]

    if args.baseline:
        baseline = bench.load_bench_json(args.baseline)
        regressions = bench.diff_records(
            baseline, records, threshold=args.threshold
        )
        compared = len(
            {r.key for r in records if r.simulated_time is not None}
            & {b.key for b in baseline if b.simulated_time is not None}
        )
        print(bench.format_diff(regressions, compared=compared, threshold=args.threshold))
        for line in bench.drifts(baseline, records, threshold=args.threshold):
            print(f"  drift below the gate: {line}")
        if regressions:
            return 1
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    from .core import backends

    active = backends.get_backend()
    explicit = backends._ACTIVE or os.environ.get(backends.ENV_BACKEND, "").strip()
    via = (
        "set_backend()" if backends._ACTIVE
        else backends.ENV_BACKEND if explicit
        else "default: native if it loads, else numpy"
    )
    print(f"{'backend':<10s} {'status':<44s} {'in-place':<8s}")
    for name, status in backends.backend_status().items():
        backend = backends._BACKENDS.get(name)
        in_place = "yes" if backend is not None and backend.csr_pairs else "-"
        marker = " *" if name == (explicit or active.name) else ""
        print(f"{name:<10s} {status:<44s} {in_place:<8s}{marker}")
    print(f"\nactive: {active.name} (via {via})")
    if explicit and active.name != explicit:
        print(f"  note: {explicit!r} selected but unavailable; warn-once "
              f"fallback to numpy is in effect")
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    print(f"{'instance':<14s} {'n':>8s} {'m':>9s} {'wedges':>12s} {'triangles':>10s}"
          f"   | paper (millions): n, m, wedges, triangles")
    for name in DATASET_NAMES:
        g = load_dataset(name, scale=args.scale)
        s = graph_stats(g)
        p = PAPER_STATS[name]
        print(
            f"{name:<14s} {s.n:>8d} {s.m:>9d} {s.wedges:>12d} {s.triangles:>10d}"
            f"   | {p.n:g}, {p.m:g}, {p.wedges:g}, {p.triangles:g}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-tc`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-tc",
        description="Distributed-memory triangle counting (Sanders & Uhl reproduction)",
    )
    parser.add_argument(
        "--kernel-backend",
        default="",
        metavar="NAME",
        help="intersection kernel backend for this run (numpy, native, "
        "or a registered extra backend; see docs/KERNELS.md and "
        "'repro-tc backends').  Equivalent to setting "
        "REPRO_KERNEL_BACKEND.  Default: native if it loads, else numpy; "
        "an unavailable selection logs one warning and falls back to "
        "numpy.  Simulated costs are identical either way.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="count triangles")
    c.add_argument("--graph", required=True, help="graph spec (see parse_graph_spec)")
    c.add_argument("--algorithm", default="cetric", choices=ALGORITHMS)
    c.add_argument("-p", "--pes", type=int, default=4, help="simulated PEs")
    c.set_defaults(func=_cmd_count)

    l = sub.add_parser("lcc", help="local clustering coefficients")
    l.add_argument("--graph", required=True)
    l.add_argument("-p", "--pes", type=int, default=0, help="0 = sequential")
    l.set_defaults(func=_cmd_lcc)

    s = sub.add_parser("sweep", help="strong-scaling sweep")
    s.add_argument("--graph", required=True)
    s.add_argument("--min-pes", type=int, default=1)
    s.add_argument("--max-pes", type=int, default=16)
    s.add_argument("--algorithms", default="", help="comma-separated names")
    s.add_argument("--plot", action="store_true", help="append an ASCII log-log plot")
    s.set_defaults(func=_cmd_sweep)

    r = sub.add_parser("report", help="quick full-evaluation markdown report")
    r.add_argument("--scale", type=float, default=0.25)
    r.add_argument("--pes", default="2,4,8", help="comma-separated PE counts")
    r.add_argument("-o", "--output", default="", help="write to file instead of stdout")
    r.set_defaults(func=_cmd_report)

    t = sub.add_parser("types", help="triangle-type (Fig. 4) breakdown per p")
    t.add_argument("--graph", required=True)
    t.add_argument("--min-pes", type=int, default=2)
    t.add_argument("--max-pes", type=int, default=16)
    t.set_defaults(func=_cmd_types)

    v = sub.add_parser("verify", help="check every algorithm against the oracle")
    v.add_argument("--graph", required=True)
    v.add_argument("-p", "--pes", type=int, default=4)
    v.add_argument("--algorithms", default="", help="comma-separated names")
    v.set_defaults(func=_cmd_verify)

    d = sub.add_parser("datasets", help="Table-I stand-in statistics")
    d.add_argument("--scale", type=float, default=1.0)
    d.set_defaults(func=_cmd_datasets)

    be = sub.add_parser(
        "backends",
        help="list kernel backends (availability, fallback, active "
        "selection); see docs/KERNELS.md",
    )
    be.set_defaults(func=_cmd_backends)

    li = sub.add_parser("lint", help="static SPMD protocol checks (R1-R14)")
    li.add_argument("paths", nargs="*", default=["src"], help="files/dirs to lint")
    li.add_argument("--list-rules", action="store_true", help="print rule catalogue")
    li.add_argument("--strict", action="store_true", help="fail on stale baseline entries too")
    li.add_argument("--no-flow", action="store_true", help="skip dataflow rules R8-R12")
    li.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text", help="output format"
    )
    li.add_argument("--baseline", metavar="FILE", help="filter findings in this baseline")
    li.add_argument(
        "--update-baseline", metavar="FILE", help="rewrite FILE from current findings"
    )
    li.set_defaults(func=_cmd_lint)

    ch = sub.add_parser(
        "chaos", help="fault-injection campaign asserting exact counts"
    )
    ch.add_argument(
        "--graph", default="", help="graph spec (default: built-in GNM instance)"
    )
    ch.add_argument("--algorithms", default="ditric,cetric", help="comma-separated")
    ch.add_argument("--seeds", type=int, default=10, help="fault-plan seeds 0..N-1")
    ch.add_argument("--drop-rates", default="0,0.01,0.05", help="comma-separated")
    ch.add_argument("--duplicate-rate", type=float, default=0.0)
    ch.add_argument(
        "--crash-fraction",
        type=float,
        default=0.5,
        help="crash one PE at this fraction of the run",
    )
    ch.add_argument("--no-crash", action="store_true", help="disable the PE crash")
    ch.add_argument("-p", "--pes", type=int, default=4, help="simulated PEs")
    ch.add_argument(
        "--recovery",
        choices=("global", "localized"),
        default="global",
        help="crash recovery: restart from the last stable checkpoint "
        "(global) or heartbeat-detect + partner-restore + log-replay "
        "in place (localized)",
    )
    ch.set_defaults(func=_cmd_chaos)

    b = sub.add_parser(
        "bench",
        help="instrumented benchmark run: BENCH_<date>.json record + "
        "Chrome trace + phase profile (docs/BENCHMARKS.md)",
    )
    b.add_argument("--algo", default="cetric", choices=ALGORITHMS, help="algorithm")
    b.add_argument(
        "--gen",
        default="rmat",
        help="generator name (rmat/gnm/rgg2d/rhg) or full graph spec",
    )
    b.add_argument("--size", type=int, default=0, help="generator size (0 = default)")
    b.add_argument("--seed", type=int, default=1, help="generator seed")
    b.add_argument("-p", "--pes", type=int, default=16, help="simulated PEs")
    b.add_argument("--out", default=".", help="directory for BENCH_<date>.json")
    b.add_argument("--trace", default="", help="Chrome trace path (default: auto)")
    b.add_argument(
        "--suite", default="", help="run a fixed record suite instead ('smoke')"
    )
    b.add_argument(
        "--baseline",
        default="",
        help="BENCH_*.json baseline to diff against (exit 1 on regression)",
    )
    b.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="relative simulated-cost regression that fails the gate",
    )
    b.add_argument(
        "--scale-time",
        type=float,
        default=1.0,
        help="multiply recorded simulated times (synthetic-regression "
        "injection hook for validating the gate)",
    )
    b.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.kernel_backend:
        from .core.backends import set_backend

        # Select in-process and export so ProcessMachine workers (and
        # anything the command spawns) inherit the same choice.
        os.environ["REPRO_KERNEL_BACKEND"] = args.kernel_backend
        set_backend(args.kernel_backend)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
