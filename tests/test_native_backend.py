"""The cffi/C ``native`` kernel backend: build, cache, contract, fallback.

Split from ``test_kernel_backends.py`` because everything here depends
on a working C toolchain; the whole module skips cleanly (except the
fallback tests) when cffi or a compiler is missing, which is itself a
supported configuration — the registry degrades to numpy with one
warning and the rest of the suite stays green.
"""

import logging
import os

import numpy as np
import pytest
from backend_utils import ChargeLog

from repro.core import backends, kernels
from repro.core.backends import resolve_backend, set_backend, use_backend
from repro.core.intersect import (
    batch_intersect_count,
    batch_intersect_count_elements,
    batch_intersect_elements,
    concat_xadj,
    gather_blocks,
    merge_cost,
)
from repro.core.native import build_key, builder, native_available

HAVE_NATIVE = native_available()

needs_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="no C toolchain / cffi: native backend unavailable"
)


@pytest.fixture(autouse=True)
def _reset_selection():
    yield
    set_backend(None)


def _batch(rng, k, bound, max_len, min_len=0):
    blocks_a = [
        np.unique(rng.integers(0, bound, size=rng.integers(min_len, max_len + 1)))
        for _ in range(k)
    ]
    blocks_b = [
        np.unique(rng.integers(0, bound, size=rng.integers(min_len, max_len + 1)))
        for _ in range(k)
    ]
    a = np.concatenate(blocks_a) if k else np.empty(0, dtype=np.int64)
    b = np.concatenate(blocks_b) if k else np.empty(0, dtype=np.int64)
    ax = concat_xadj([blk.size for blk in blocks_a])
    bx = concat_xadj([blk.size for blk in blocks_b])
    return a.astype(np.int64), ax, b.astype(np.int64), bx


@needs_native
def test_native_backend_loads_and_reports_fused():
    backend = resolve_backend("native")
    assert backend.name == "native"
    assert backend.count_elements is not None


@needs_native
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_native_matches_numpy_on_random_batches(seed):
    rng = np.random.default_rng(seed)
    a, ax, b, bx = _batch(rng, 50, 2000, 40)
    ref_cnt = batch_intersect_count(a, ax, b, bx, 2000)
    ref_pair, ref_elem, _ = batch_intersect_elements(a, ax, b, bx, 2000)
    with use_backend("native"):
        cnt = batch_intersect_count(a, ax, b, bx, 2000)
        pair, elem, _ = batch_intersect_elements(a, ax, b, bx, 2000)
        fused = batch_intersect_count_elements(a, ax, b, bx, 2000)
    np.testing.assert_array_equal(cnt.counts, ref_cnt.counts)
    assert cnt.ops == ref_cnt.ops
    np.testing.assert_array_equal(pair, ref_pair)
    np.testing.assert_array_equal(elem, ref_elem)
    np.testing.assert_array_equal(fused[0], ref_cnt.counts)
    np.testing.assert_array_equal(fused[1], ref_pair)
    np.testing.assert_array_equal(fused[2], ref_elem)


@needs_native
def test_native_gallop_path_matches_merge_results():
    """Heavily skewed pairs take the galloping branch (>=16x imbalance)."""
    rng = np.random.default_rng(9)
    small = np.sort(rng.choice(100_000, size=5, replace=False))
    big = np.sort(rng.choice(100_000, size=20_000, replace=False))
    # force some guaranteed hits
    small[:3] = big[[10, 500, 19_000]]
    small = np.unique(small)
    for a, ax, b, bx in [
        (small, concat_xadj([small.size]), big, concat_xadj([big.size])),
        (big, concat_xadj([big.size]), small, concat_xadj([small.size])),
    ]:
        ref = batch_intersect_count(a, ax, b, bx, 100_000)
        with use_backend("native"):
            got = batch_intersect_count(a, ax, b, bx, 100_000)
            pair, elem, _ = batch_intersect_elements(a, ax, b, bx, 100_000)
        np.testing.assert_array_equal(got.counts, ref.counts)
        assert elem.size == int(ref.counts.sum())
        assert np.all(np.isin(elem, small)) and np.all(np.isin(elem, big))


@needs_native
def test_native_accepts_readonly_inputs():
    """Received shm frames surface as read-only views; the C wrappers
    must take them without copying (require_writable=False)."""
    rng = np.random.default_rng(4)
    a, ax, b, bx = _batch(rng, 8, 300, 10)
    for arr in (a, ax, b, bx):
        arr.setflags(write=False)
    ref = batch_intersect_count(a, ax, b, bx, 300)
    with use_backend("native"):
        got = batch_intersect_count(a, ax, b, bx, 300)
    np.testing.assert_array_equal(got.counts, ref.counts)


@needs_native
def test_native_handles_duplicate_hits_across_pairs():
    """Same element matching in many pairs keeps (pair, element) order."""
    blk = np.array([3, 7, 11], dtype=np.int64)
    a = np.tile(blk, 4)
    ax = concat_xadj([3, 3, 3, 3])
    with use_backend("native"):
        counts, pair, elem, _ = batch_intersect_count_elements(a, ax, a, ax, 16)
    np.testing.assert_array_equal(counts, [3, 3, 3, 3])
    np.testing.assert_array_equal(pair, np.repeat(np.arange(4), 3))
    np.testing.assert_array_equal(elem, np.tile(blk, 4))


# ---------------------------------------------------------------------------
# In-place CSR-pair kernel vs the gathered path (the set-reference
# property over every in-place backend is in test_kernel_backends.py)
# ---------------------------------------------------------------------------


def _csr(rng, num_blocks, bound, min_len, max_len, empty_frac=0.3):
    """Random CSR of sorted unique blocks, about ``empty_frac`` of them empty."""
    blocks = [
        np.unique(rng.integers(0, bound, size=rng.integers(min_len, max_len + 1)))
        if rng.random() >= empty_frac
        else np.empty(0, dtype=np.int64)
        for _ in range(num_blocks)
    ]
    adj = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
    return concat_xadj([b.size for b in blocks]), adj.astype(np.int64)


def _csr_cases():
    rng = np.random.default_rng(21)
    a_x, a_adj = _csr(rng, 40, 500, 0, 30)
    b_x, b_adj = _csr(rng, 30, 500, 0, 30)

    def ids(num_blocks, k):  # drawn with replacement: ids repeat
        return rng.integers(0, num_blocks, size=k)

    big_x, big_adj = _csr(rng, 20, 5000, 400, 800, empty_frac=0.0)
    # Each small block shares two elements with its big block, so the
    # gallop branch (one side >= 16x the other) has hits to find.
    small = [
        np.unique(
            np.concatenate(
                [rng.choice(big_adj[big_x[j] : big_x[j + 1]], 2), rng.integers(0, 5000, 3)]
            )
        )
        for j in range(20)
    ]
    small_x, small_adj = concat_xadj([b.size for b in small]), np.concatenate(small)
    empty_x, empty_adj = np.zeros(11, dtype=np.int64), np.empty(0, dtype=np.int64)
    skew = ids(20, 200)
    return {
        "random-repeated-ids": (a_x, a_adj, ids(40, 500), b_x, b_adj, ids(30, 500)),
        "k=0": (a_x, a_adj, ids(40, 0), b_x, b_adj, ids(30, 0)),
        "one-side-all-empty": (a_x, a_adj, ids(40, 50), empty_x, empty_adj, ids(10, 50)),
        "skewed-small-first": (small_x, small_adj, skew, big_x, big_adj, skew),
        "skewed-big-first": (big_x, big_adj, skew, small_x, small_adj, skew),
    }


def _gathered_counts(a_x, a_adj, a_ids, b_x, b_adj, b_ids, bound):
    lcat, lx = gather_blocks(a_x, a_adj, a_ids)
    rcat, rx = gather_blocks(b_x, b_adj, b_ids)
    return batch_intersect_count(lcat, lx, rcat, rx, bound).counts, merge_cost(lcat.size, rcat.size)


@needs_native
@pytest.mark.parametrize("readonly", [False, True])
@pytest.mark.parametrize("case", sorted(_csr_cases()))
def test_csr_count_matches_gathered_path(case, readonly):
    arrays = _csr_cases()[case]
    if readonly:  # received shm frames are read-only views
        for arr in arrays:
            arr.setflags(write=False)
    ref_counts, gathered_cost = _gathered_counts(*arrays, 5001)
    np.testing.assert_array_equal(resolve_backend("native").csr_pairs(*arrays, 5001), ref_counts)
    log = ChargeLog()
    with use_backend("native"):
        total = kernels.count_csr_pairs(log, *arrays, 5001)
    assert total == int(ref_counts.sum())
    # Degree-sum ops charged in place == merge_cost of the gathered sizes.
    assert sum(log.charges) == gathered_cost


@needs_native
@pytest.mark.parametrize("case", sorted(_csr_cases()))
def test_count_csr_pairs_charges_identically_per_chunk(case, monkeypatch):
    """The in-place and gathered paths charge the same ops chunk by chunk."""
    real_chunked = kernels.chunked
    monkeypatch.setattr(kernels, "chunked", lambda total: real_chunked(total, 37))
    arrays = _csr_cases()[case]
    runs = {}
    for name in ("numpy", "native"):
        log = ChargeLog()
        with use_backend(name):
            total = kernels.count_csr_pairs(log, *arrays, 5001)
        runs[name] = (total, log.charges)
    assert runs["native"] == runs["numpy"]
    assert len(runs["native"][1]) == -(-arrays[2].size // 37)


@needs_native
def test_csr_count_rejects_out_of_range_blocks():
    x, adj = np.array([0, 2, 3]), np.array([1, 4, 2])
    csr_pairs = resolve_backend("native").csr_pairs
    with pytest.raises(IndexError):
        csr_pairs(x, adj, np.array([2]), x, adj, np.array([0]), 5)
    with pytest.raises(IndexError):
        csr_pairs(x, adj, np.array([0]), x, adj, np.array([-1]), 5)
    with pytest.raises(IndexError):
        csr_pairs(x, adj[:2], np.array([0]), x, adj, np.array([0]), 5)
    with pytest.raises(ValueError):
        csr_pairs(x, adj, np.array([0, 1]), x, adj, np.array([0]), 5)


@needs_native
@pytest.mark.parametrize("elements", [False, True])
@pytest.mark.parametrize(
    "a_block,b_block,bound",
    [
        ([1, 5], [2, 5], 5),  # a marked value equal to bound
        ([1, 3], [2, 3, 7], 7),  # a probed value equal to bound
        ([-1, 3], [2, 3], 8),  # a negative value
        ([1, 3], [1, 3], 0),  # a bound of 0
    ],
)
def test_csr_pairs_rejects_values_outside_bound(a_block, b_block, bound, elements):
    """A value outside [0, bound) raises; it never yields a short count."""
    a_x, b_x = concat_xadj([len(a_block)]), concat_xadj([len(b_block)])
    ids = np.zeros(1, dtype=np.int64)
    csr_pairs = resolve_backend("native").csr_pairs
    with pytest.raises(ValueError, match="bound"):
        csr_pairs(a_x, np.array(a_block), ids, b_x, np.array(b_block), ids, bound, elements=elements)


@needs_native
def test_csr_pairs_elements_never_overrun_on_duplicate_values():
    """A block that repeats a value (outside the contract) raises
    instead of writing past the hit buffer."""
    ids = np.zeros(1, dtype=np.int64)
    a, b = np.array([5]), np.array([5, 5])
    with pytest.raises(ValueError, match="repeats a value"):
        resolve_backend("native").csr_pairs(
            concat_xadj([1]), a, ids, concat_xadj([2]), b, ids, 8, elements=True
        )


# ---------------------------------------------------------------------------
# Build cache
# ---------------------------------------------------------------------------


@needs_native
def test_build_artifact_cached_and_reused(tmp_path, monkeypatch):
    monkeypatch.setenv(builder.ENV_BUILD_DIR, str(tmp_path))
    monkeypatch.setattr(builder, "_LIB", None)
    module = builder.load_lib()
    artifact = builder._artifact_path(tmp_path)
    assert artifact.exists()
    stamp = artifact.stat().st_mtime_ns
    # a fresh process (simulated by clearing the memo) reuses the file
    monkeypatch.setattr(builder, "_LIB", None)
    compiled = []
    real_compile = builder._compile
    monkeypatch.setattr(
        builder, "_compile", lambda d: compiled.append(d) or real_compile(d)
    )
    again = builder.load_lib()
    assert not compiled, "existing artifact must be reused, not rebuilt"
    assert artifact.stat().st_mtime_ns == stamp
    assert again.lib is module.lib  # same extension module via sys.modules


@needs_native
def test_forced_rebuild(tmp_path, monkeypatch):
    monkeypatch.setenv(builder.ENV_BUILD_DIR, str(tmp_path))
    monkeypatch.setattr(builder, "_LIB", None)
    builder.load_lib()
    stamp = builder._artifact_path(tmp_path).stat().st_mtime_ns
    monkeypatch.setenv(builder.ENV_REBUILD, "1")
    monkeypatch.setattr(builder, "_LIB", None)
    builder.load_lib()
    assert builder._artifact_path(tmp_path).stat().st_mtime_ns > stamp


def test_build_key_tracks_source():
    key = build_key()
    assert len(key) == 16
    # stable within a process (same source, same toolchain)
    assert build_key() == key


# ---------------------------------------------------------------------------
# Graceful degradation (runs everywhere, including toolchain-less CI)
# ---------------------------------------------------------------------------


def test_native_fallback_warns_once_when_unbuildable(monkeypatch, caplog):
    """An unbuildable native backend degrades to numpy with one warning."""
    import repro.core.native as native_pkg

    def boom():
        raise ImportError("native kernel build failed: no compiler")

    monkeypatch.setattr(native_pkg, "load_native_kernels", boom)
    monkeypatch.delenv(backends.ENV_FALLBACK_WARNED, raising=False)
    monkeypatch.delitem(backends._BACKENDS, "native", raising=False)
    backends._FAILED.pop("native", None)
    try:
        with caplog.at_level(logging.WARNING, logger="repro.kernels"):
            assert resolve_backend("native").name == "numpy"
            assert resolve_backend("native").name == "numpy"  # second resolve
        warnings = [
            r for r in caplog.records if "falling back to numpy" in r.message
        ]
        assert len(warnings) == 1, "warn-once violated"
        assert "native" in os.environ[backends.ENV_FALLBACK_WARNED].split(",")
    finally:
        backends._FAILED.pop("native", None)


def test_selecting_native_never_raises():
    """Known-backend selection must not raise, available or not."""
    set_backend("native")
    assert backends.get_backend().name in ("native", "numpy")


def test_load_lib_raises_importerror_on_compile_failure(tmp_path, monkeypatch):
    pytest.importorskip("cffi", exc_type=ImportError)
    monkeypatch.setenv(builder.ENV_BUILD_DIR, str(tmp_path))
    monkeypatch.setattr(builder, "_LIB", None)

    def broken_compile(directory):
        raise RuntimeError("cc: command not found")

    monkeypatch.setattr(builder, "_compile", broken_compile)
    with pytest.raises(ImportError, match="native kernel build failed"):
        builder.load_lib()
