"""Kernel microbenchmarks — real wall-time measurements.

Unlike the figure benchmarks (which report *modelled* times from the
simulation), these measure actual NumPy kernel throughput: the batch
intersection engine, the orientation filter and the sequential
counter.  They exist to catch performance regressions in the
vectorized hot paths the HPC-Python guides call out.
"""

import time

import harness
import numpy as np
import pytest
from conftest import save_artifact

from repro.analysis.tables import format_table
from repro.core import backends
from repro.core.edge_iterator import edge_iterator, matrix_count
from repro.core.intersect import batch_intersect_count, gather_blocks
from repro.core.kernels import intersect_csr_pairs
from repro.core.orientation import orient_by_degree
from repro.graphs import generators as gen


@pytest.fixture(scope="module")
def medium_graph():
    return gen.rmat(13, 16, seed=1)


@pytest.fixture(scope="module")
def intersection_batch(medium_graph):
    og = orient_by_degree(medium_graph)
    src = np.repeat(og.vertices(), og.degrees)
    a_cat, a_x = gather_blocks(og.xadj, og.adjncy, og.adjncy)
    b_cat, b_x = gather_blocks(og.xadj, og.adjncy, src)
    return a_cat, a_x, b_cat, b_x, og.num_vertices


@pytest.fixture(scope="module")
def rmat16_pairs():
    """The backend-comparison workload: every arc pair of RMAT scale 16.

    ~900k pairs / ~160M block elements — large enough that kernel
    throughput, not dispatch overhead, decides the ranking (the regime
    the paper's graphs live in).  Pair ``i`` is arc ``(src[i], dst[i])``
    read in place from the oriented CSR: ``A(dst[i]) ∩ A(src[i])``.
    """
    og = orient_by_degree(gen.rmat(16, 16, seed=1))
    src = np.repeat(og.vertices(), og.degrees)
    return (og.xadj, og.adjncy, og.adjncy, og.xadj, og.adjncy, src), og.num_vertices


def test_bench_batch_intersection(benchmark, intersection_batch):
    a_cat, a_x, b_cat, b_x, n = intersection_batch
    result = benchmark(batch_intersect_count, a_cat, a_x, b_cat, b_x, n)
    assert result.total > 0
    harness.emit_wall("kernel:batch_intersect", benchmark)


def test_bench_batched_side_swap(benchmark):
    """Adaptive side swap: searchsorted probes from the smaller side.

    The batch has one side ~32x heavier than the other; the swap in
    :func:`batch_intersect_count` keeps the binary-search side small,
    and (asserted here) the result is identical either way because the
    merge is symmetric.
    """
    rng = np.random.default_rng(3)
    n, big, small = 20_000, 64, 2
    # Strictly increasing rows -> sorted unique blocks after ravel.
    a_cat = np.cumsum(rng.integers(1, 5, size=(n, big)), axis=1).ravel()
    b_cat = np.cumsum(rng.integers(1, 5, size=(n, small)), axis=1).ravel()
    a_x = np.arange(n + 1, dtype=np.int64) * big
    b_x = np.arange(n + 1, dtype=np.int64) * small
    bound = int(max(a_cat.max(), b_cat.max())) + 1
    result = benchmark(batch_intersect_count, a_cat, a_x, b_cat, b_x, bound)
    swapped = batch_intersect_count(b_cat, b_x, a_cat, a_x, bound)
    assert np.array_equal(result.counts, swapped.counts)
    assert result.ops == swapped.ops
    harness.emit_wall(
        "kernel:batch_intersect_asymmetric", benchmark, pairs=n, ratio=big // small
    )


def test_bench_kernel_backends(rmat16_pairs, results_dir):
    """Pluggable kernel backends on the RMAT scale-16 arc pairs.

    Times ``intersect_csr_pairs`` (the backend's in-place ``csr_pairs``
    kernel, or the gather fallback for a backend without one) under
    every *loadable* backend (``numpy`` always; ``native`` when
    cffi and a C compiler are installed) and pins the bit-identity
    contract: same counts, same charged ops — the ops are block sizes,
    computed before any backend runs.  ``native`` must beat numpy by
    >= 2x (the acceptance bar for shipping a C extension at all); when
    the toolchain is missing, the committed artifact records the skip
    instead of silently shrinking the table.
    """
    pairs, n = rmat16_pairs
    rows = []
    results = {}
    skipped = []
    status = backends.backend_status()
    for name in backends.available_backends():
        if status.get(name) != "ok":
            skipped.append(f"{name}: {status.get(name, 'unknown')}")
            continue
        with backends.use_backend(name):
            intersect_csr_pairs(*pairs, n)  # warm-up / build
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                ops, counts, _ = intersect_csr_pairs(*pairs, n)
                best = min(best, time.perf_counter() - t0)
        results[name] = (ops, counts)
        rows.append({"backend": name, "wall time [s]": best, "ops": ops})
        harness.emit("kernel_backends", wall_seconds=best, backend=name)
    ref_ops, ref_counts = results["numpy"]
    for name, (ops, counts) in results.items():
        assert np.array_equal(counts, ref_counts), name
        assert ops == ref_ops, name
    baseline = next(r["wall time [s]"] for r in rows if r["backend"] == "numpy")
    for r in rows:
        r["speedup vs numpy"] = baseline / r["wall time [s]"]
    text = format_table(
        rows,
        ["backend", "wall time [s]", "ops", "speedup vs numpy"],
        title=(
            f"Kernel backends: csr_pairs in place on RMAT scale 16 "
            f"({pairs[2].size} pairs, {ref_ops} block elements) "
            f"- outputs and charged ops bit-identical"
        ),
    )
    for note in skipped:
        text += f"\n\nbackend {note} - not loadable in this environment (skipped)"
    save_artifact(results_dir, "kernel_backends.txt", text)
    if "native" not in results:
        pytest.skip("native backend not loadable; numpy-only table committed")
    native_wall = next(r["wall time [s]"] for r in rows if r["backend"] == "native")
    assert native_wall * 2.0 <= baseline, (
        f"native must be >= 2x numpy on this batch "
        f"(native {native_wall:.4f}s vs numpy {baseline:.4f}s)"
    )


def test_bench_orientation(benchmark, medium_graph):
    og = benchmark(orient_by_degree, medium_graph)
    assert og.num_arcs == medium_graph.num_edges


def test_bench_sequential_count(benchmark, medium_graph):
    res = benchmark(edge_iterator, medium_graph)
    assert res.triangles == matrix_count(medium_graph)
    harness.emit_wall("kernel:sequential_count", benchmark, triangles=res.triangles)


def test_bench_gather_blocks(benchmark, medium_graph):
    og = orient_by_degree(medium_graph)
    ids = np.arange(og.num_vertices, dtype=np.int64)
    cat, xadj = benchmark(gather_blocks, og.xadj, og.adjncy, ids)
    assert cat.size == og.num_arcs


def test_bench_rmat_generation(benchmark):
    g = benchmark.pedantic(
        lambda: gen.rmat(12, 16, seed=9), rounds=3, iterations=1
    )
    assert g.num_vertices == 4096


def test_bench_rgg_generation(benchmark):
    g = benchmark.pedantic(
        lambda: gen.rgg2d(1 << 12, expected_edges=16 << 12, seed=9),
        rounds=3,
        iterations=1,
    )
    assert g.num_vertices == 4096


def test_bench_rhg_generation(benchmark):
    g = benchmark.pedantic(
        lambda: gen.rhg(1 << 12, avg_degree=32, seed=9), rounds=3, iterations=1
    )
    assert g.num_vertices == 4096


def test_bench_bloom_filter(benchmark):
    from repro.amq import BloomFilter

    keys = np.arange(1 << 14, dtype=np.int64)

    def build_and_query():
        f = BloomFilter.for_elements(keys.size, bits_per_element=8, seed=1)
        f.add(keys)
        return int(np.count_nonzero(f.query(keys)))

    assert benchmark(build_and_query) == keys.size
