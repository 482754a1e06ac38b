"""Kernel backend registry: selection, fallback, and bit-identity.

The ``batch_intersect_*`` dispatcher owns validation, the side swap and
the charged ops; a backend only produces counts / hit streams.  These
tests pin the registry semantics (env/explicit selection, the
native-if-loadable default, logged fallback to numpy, third-party
registration) and the contract itself —
every loadable backend must return byte-identical results on the same
pre-conditioned inputs.
"""

import logging
import os

from unittest import mock

import numpy as np
import pytest
from backend_utils import ChargeLog, register_pymerge
from hypothesis import given, settings, strategies as st

from repro.core import backends, kernels
from repro.core.backends import (
    available_backends,
    backend_status,
    get_backend,
    resolve_backend,
    set_backend,
    use_backend,
)
from repro.core.intersect import (
    batch_intersect_count,
    batch_intersect_count_elements,
    batch_intersect_elements,
    concat_xadj,
)
from repro.core.native import native_available

HAVE_NATIVE = native_available()


@pytest.fixture(autouse=True)
def _reset_selection():
    yield
    set_backend(None)


def _random_batch(rng, k, bound, max_len):
    """k pairs of sorted-unique blocks over [0, bound)."""
    a_blocks = [
        np.unique(rng.integers(0, bound, size=rng.integers(0, max_len)))
        for _ in range(k)
    ]
    b_blocks = [
        np.unique(rng.integers(0, bound, size=rng.integers(0, max_len)))
        for _ in range(k)
    ]
    a = np.concatenate(a_blocks) if k else np.empty(0, dtype=np.int64)
    b = np.concatenate(b_blocks) if k else np.empty(0, dtype=np.int64)
    ax = concat_xadj([blk.size for blk in a_blocks])
    bx = concat_xadj([blk.size for blk in b_blocks])
    return a.astype(np.int64), ax, b.astype(np.int64), bx


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------


def _unloadable(name, monkeypatch):
    """Register ``name`` with a loader that raises ``ImportError``.

    Returns the list the loader appends to on every call.
    """
    calls = []

    def loader():
        calls.append(1)
        raise ImportError("toolchain missing")

    monkeypatch.setitem(backends._LOADERS, name, loader)
    monkeypatch.delitem(backends._BACKENDS, name, raising=False)
    monkeypatch.setattr(backends, "_FAILED", {})  # the memoized failure dies with the test
    monkeypatch.delenv(backends.ENV_FALLBACK_WARNED, raising=False)
    return calls


def test_registry_lists_shipped_backends():
    names = available_backends()
    for shipped in ("numpy", "native"):
        assert shipped in names
    assert backend_status()["numpy"] == "ok"


@pytest.mark.skipif(not HAVE_NATIVE, reason="native backend unavailable")
def test_default_backend_is_native_when_it_loads(monkeypatch):
    monkeypatch.delenv(backends.ENV_BACKEND, raising=False)
    assert get_backend().name == "native"


def test_default_falls_back_to_numpy_silently(caplog, monkeypatch):
    """An unloadable ``native`` default degrades without a warning."""
    monkeypatch.delenv(backends.ENV_BACKEND, raising=False)
    calls = _unloadable("native", monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="repro.kernels"):
        assert get_backend().name == "numpy"
        assert get_backend().name == "numpy"
    assert not caplog.records
    assert backends.ENV_FALLBACK_WARNED not in os.environ
    assert len(calls) == 1, "a failed load must not be retried per dispatch"


def test_explicit_selection_bypasses_default(monkeypatch):
    """An explicit selection never loads ``native`` to find the default."""
    calls = []
    monkeypatch.setitem(
        backends._LOADERS, "native", lambda: calls.append(1) or resolve_backend("numpy")
    )
    monkeypatch.delitem(backends._BACKENDS, "native", raising=False)
    rng = np.random.default_rng(3)
    a, ax, b, bx = _random_batch(rng, 10, 100, 8)
    with use_backend("numpy"):
        batch_intersect_count(a, ax, b, bx, 100)
    monkeypatch.setenv(backends.ENV_BACKEND, "numpy")
    batch_intersect_count(a, ax, b, bx, 100)
    assert not calls


def test_unknown_backend_raises():
    default = get_backend().name
    with pytest.raises(KeyError, match="unknown kernel backend"):
        set_backend("no-such-backend")
    # and the selection was not clobbered by the failed attempt
    assert get_backend().name == default


def test_env_selection(monkeypatch):
    name = register_pymerge()
    monkeypatch.setenv(backends.ENV_BACKEND, name)
    assert get_backend().name == name


def test_explicit_selection_beats_env(monkeypatch):
    name = register_pymerge()
    monkeypatch.setenv(backends.ENV_BACKEND, name)
    set_backend("numpy")
    assert get_backend().name == "numpy"


def test_use_backend_restores_previous():
    default = get_backend().name
    name = register_pymerge()
    with use_backend(name):
        assert get_backend().name == name
    assert get_backend().name == default


def test_missing_backend_falls_back_with_logged_warning(caplog, monkeypatch):
    name = "missing-accel"
    _unloadable(name, monkeypatch)
    with caplog.at_level(logging.WARNING, logger="repro.kernels"):
        backend = resolve_backend(name)
        assert resolve_backend(name).name == "numpy"
    assert backend.name == "numpy"
    warnings = [r for r in caplog.records if "falling back to numpy" in r.message]
    assert len(warnings) == 1, "warn-once violated"
    # the warning is recorded in the environment for child processes
    assert name in os.environ[backends.ENV_FALLBACK_WARNED].split(",")
    # selecting it process-wide degrades the same way instead of raising
    set_backend(name)
    assert get_backend().name == "numpy"


def test_fallback_warning_suppressed_when_env_flag_set(caplog, monkeypatch):
    """A process whose parent already warned stays silent."""
    backends._FAILED.pop("nope-backend", None)
    backends.register_backend(
        "nope-backend", lambda: (_ for _ in ()).throw(ImportError("missing"))
    )
    try:
        monkeypatch.setenv(backends.ENV_FALLBACK_WARNED, "nope-backend")
        with caplog.at_level(logging.WARNING, logger="repro.kernels"):
            backend = resolve_backend("nope-backend")
        assert backend.name == "numpy"
        assert not any(
            "falling back to numpy" in r.message for r in caplog.records
        )
    finally:
        backends._LOADERS.pop("nope-backend", None)
        backends._FAILED.pop("nope-backend", None)


def test_third_backend_registration_and_dispatch():
    name = register_pymerge()
    a, ax, b, bx = _random_batch(np.random.default_rng(7), 13, 100, 12)
    base = batch_intersect_count(a, ax, b, bx, 100)
    with use_backend(name):
        assert get_backend().name == name
        got = batch_intersect_count(a, ax, b, bx, 100)
    np.testing.assert_array_equal(got.counts, base.counts)
    assert got.ops == base.ops


# ---------------------------------------------------------------------------
# Cross-backend bit-identity on the kernel contract
# ---------------------------------------------------------------------------


def _loadable_backends():
    names = ["numpy", register_pymerge()]
    if HAVE_NATIVE:
        names.append("native")
    return names


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backends_agree_on_random_batches(seed):
    rng = np.random.default_rng(seed)
    a, ax, b, bx = _random_batch(rng, 40, 1000, 30)
    results = {}
    for name in _loadable_backends():
        with use_backend(name):
            cnt = batch_intersect_count(a, ax, b, bx, 1000)
            pair, elem, ops = batch_intersect_elements(a, ax, b, bx, 1000)
        results[name] = (cnt.counts, cnt.ops, pair, elem, ops)
    ref = results["numpy"]
    for name, got in results.items():
        np.testing.assert_array_equal(got[0], ref[0], err_msg=name)
        assert got[1] == ref[1], name
        np.testing.assert_array_equal(got[2], ref[2], err_msg=name)
        np.testing.assert_array_equal(got[3], ref[3], err_msg=name)
        assert got[4] == ref[4], name


def test_backends_agree_on_lopsided_sides():
    """The dispatcher's side swap must be backend-invariant."""
    rng = np.random.default_rng(3)
    a, ax, b, bx = _random_batch(rng, 10, 200, 4)
    big, bigx, _, _ = _random_batch(rng, 10, 200, 60)
    for left in [(a, ax, big, bigx), (big, bigx, a, ax)]:
        ref = None
        for name in _loadable_backends():
            with use_backend(name):
                got = batch_intersect_count(*left, 200)
            if ref is None:
                ref = got
            np.testing.assert_array_equal(got.counts, ref.counts)
            assert got.ops == ref.ops


def test_empty_and_degenerate_batches_never_reach_backends():
    """The dispatcher's fast path answers k=0 / empty sides itself."""
    e = np.empty(0, dtype=np.int64)
    z = np.zeros(1, dtype=np.int64)
    for name in _loadable_backends():
        with use_backend(name):
            res = batch_intersect_count(e, z, e, z, 10)
            assert res.counts.size == 0 and res.ops == 0
            pair, elem, ops = batch_intersect_elements(e, z, e, z, 10)
            assert pair.size == 0 and elem.size == 0 and ops == 0


# ---------------------------------------------------------------------------
# Fused count+elements dispatcher
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_dispatcher_consistent_with_unfused(seed):
    """Fused outputs must equal the two unfused calls, on every backend.

    ``pymerge`` ships no fused kernel, so it pins the dispatcher's
    derivation path (counts rebuilt from the hit stream); the others
    pin the genuinely fused kernels against the same reference.
    """
    rng = np.random.default_rng(seed)
    a, ax, b, bx = _random_batch(rng, 40, 1000, 30)
    ref_cnt = batch_intersect_count(a, ax, b, bx, 1000)
    ref_pair, ref_elem, ref_ops = batch_intersect_elements(a, ax, b, bx, 1000)
    for name in _loadable_backends():
        with use_backend(name):
            counts, pair, elem, ops = batch_intersect_count_elements(
                a, ax, b, bx, 1000
            )
        np.testing.assert_array_equal(counts, ref_cnt.counts, err_msg=name)
        np.testing.assert_array_equal(pair, ref_pair, err_msg=name)
        np.testing.assert_array_equal(elem, ref_elem, err_msg=name)
        assert ops == ref_cnt.ops == ref_ops, name
        # internal consistency: counts are the pair_idx multiplicities
        np.testing.assert_array_equal(
            counts, np.bincount(pair, minlength=counts.size), err_msg=name
        )


def test_fused_dispatcher_empty_fast_path():
    e = np.empty(0, dtype=np.int64)
    z = np.zeros(1, dtype=np.int64)
    counts, pair, elem, ops = batch_intersect_count_elements(e, z, e, z, 10)
    assert counts.size == 0 and pair.size == 0 and elem.size == 0 and ops == 0


def test_fused_dispatcher_side_swap_invariant():
    rng = np.random.default_rng(5)
    small, sx, _, _ = _random_batch(rng, 12, 300, 4)
    big, bx, _, _ = _random_batch(rng, 12, 300, 50)
    fwd = batch_intersect_count_elements(small, sx, big, bx, 300)
    rev = batch_intersect_count_elements(big, bx, small, sx, 300)
    for got, ref in zip(rev, fwd):
        np.testing.assert_array_equal(got, ref)



# ---------------------------------------------------------------------------
# The in-place ``csr_pairs`` kernel on every backend that has one
# ---------------------------------------------------------------------------


def _in_place_backends():
    """Every shipped backend with ``csr_pairs``; unloadable ones skip."""
    return [
        pytest.param(
            name,
            marks=pytest.mark.skipif(
                name == "native" and not HAVE_NATIVE, reason="native backend unavailable"
            ),
        )
        for name in ("numpy", "native")
    ]


def test_shipped_backends_carry_csr_pairs_and_others_gather(monkeypatch):
    """numpy and native intersect in place; a backend registered without
    ``csr_pairs`` takes the gather fallback and counts the same."""
    assert resolve_backend("numpy").csr_pairs is not None
    if HAVE_NATIVE:
        assert resolve_backend("native").csr_pairs is not None
    name = register_pymerge()
    assert resolve_backend(name).csr_pairs is None
    gathered = []
    real_gather = kernels.gather_blocks
    monkeypatch.setattr(
        kernels, "gather_blocks", lambda *args: gathered.append(1) or real_gather(*args)
    )
    xadj, adj = concat_xadj([3, 2, 3]), np.array([1, 2, 4, 2, 4, 0, 1, 2])
    ids = np.array([0, 0, 1, 2])
    runs = {}
    for backend in ("numpy", name):
        with use_backend(backend):
            total = kernels.count_csr_pairs(ChargeLog(), xadj, adj, ids, xadj, adj, ids[::-1], 5)
        runs[backend] = (total, len(gathered))
    assert runs == {"numpy": (8, 0), name: (8, 2)}


def _set_reference(a_x, a_adj, a_ids, b_x, b_adj, b_ids):
    """Per-pair counts and (pair, element) hits from Python sets."""
    counts, pair_idx, elements = [], [], []
    for i, (a, b) in enumerate(zip(a_ids, b_ids)):
        common = sorted(
            set(a_adj[a_x[a] : a_x[a + 1]].tolist()) & set(b_adj[b_x[b] : b_x[b + 1]].tolist())
        )
        counts.append(len(common))
        pair_idx += [i] * len(common)
        elements += common
    return counts, pair_idx, elements


#: Block sizes: empty, small, and large enough to be 16x a small block.
_SIZES = st.sampled_from([0, 1, 2, 3, 5, 8, 13, 60, 120])


@st.composite
def _csr_strategy(draw, pool):
    """A CSR of sorted unique blocks drawn from the values in ``pool``
    (a pool barely larger than the biggest block makes hits dense)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = [
        np.sort(rng.choice(pool, size, replace=False))
        for size in draw(st.lists(_SIZES, min_size=1, max_size=8))
    ]
    return concat_xadj([b.size for b in blocks]), np.concatenate(blocks)


@st.composite
def _csr_pair_batches(draw):
    """Two CSRs and pair ids: runs of equal left ids (long and singleton),
    non-contiguous ids drawn from either CSR, skew in both directions,
    and either side the smaller one."""
    bound = draw(st.integers(130, 400))
    pool = np.random.default_rng(bound).choice(bound, 130, replace=False).astype(np.int64)
    a_x, a_adj = draw(_csr_strategy(pool))
    b_x, b_adj = draw(_csr_strategy(pool))
    runs = draw(st.lists(
        st.tuples(st.integers(0, a_x.size - 2), st.sampled_from([1, 1, 2, 7, 25])),
        max_size=12,
    ))
    a_ids = np.array([a for a, length in runs for _ in range(length)], dtype=np.int64)
    b_ids = np.asarray(
        draw(st.lists(st.integers(0, b_x.size - 2), min_size=a_ids.size, max_size=a_ids.size)),
        dtype=np.int64,
    )
    arrays = (a_x, a_adj, a_ids, b_x, b_adj, b_ids)
    if draw(st.booleans()):  # the runs on the right
        arrays = arrays[3:] + arrays[:3]
    return arrays, bound


@pytest.mark.parametrize("name", _in_place_backends())
@settings(max_examples=60, deadline=None)
@given(batch=_csr_pair_batches(), readonly=st.booleans(), chunk=st.integers(1, 9))
def test_csr_pairs_matches_set_reference(name, batch, readonly, chunk):
    """In-place counts and (pair, element) streams equal a pure-Python
    set reference, directly and through the chunked callers (with a
    chunk size that splits runs), charging the block sizes per chunk."""
    arrays, bound = batch
    if readonly:  # received shm frames are read-only views
        for arr in arrays:
            arr.setflags(write=False)
    counts, pair_idx, elements = _set_reference(*arrays)
    csr_pairs = resolve_backend(name).csr_pairs
    assert csr_pairs(*arrays, bound).tolist() == counts
    got = csr_pairs(*arrays, bound, elements=True)
    assert [x.tolist() for x in got] == [counts, pair_idx, elements]
    a_x, _, a_ids, b_x, _, b_ids = arrays
    sizes = np.diff(a_x)[a_ids] + np.diff(b_x)[b_ids]
    log = ChargeLog()
    with mock.patch.object(kernels, "CHUNK_PAIRS", chunk), use_backend(name):
        total = kernels.count_csr_pairs(log, *arrays, bound)
        c, closing = kernels.csr_pairs_elements(log, *arrays, bound)
    assert (total, c.tolist(), closing.tolist()) == (sum(counts), counts, elements)
    per_chunk = [int(sizes[i : i + chunk].sum()) for i in range(0, sizes.size, chunk)]
    assert log.charges == per_chunk * 2


@pytest.mark.parametrize("name", _in_place_backends())
@pytest.mark.parametrize("elements", [False, True])
@pytest.mark.parametrize(
    "a_blocks,b_blocks,bound",
    [
        # Block 0's value 5 == bound must not hit row 1's value 0.
        ([[5], [3]], [[1, 2], [0, 3]], 5),
        ([[1, 2], [0, 3]], [[5], [3]], 5),
        ([[-1, 3]], [[2, 3, 4]], 8),  # a negative value
        ([[1, 3]], [[1, 3]], 0),  # a bound of 0
    ],
    ids=["value-bound-left", "value-bound-right", "negative", "bound-0"],
)
def test_csr_pairs_rejects_values_outside_bound(name, a_blocks, b_blocks, bound, elements):
    """A value outside [0, bound) raises; it never yields an aliased count."""
    ids = np.arange(len(a_blocks), dtype=np.int64)
    a = concat_xadj([len(b) for b in a_blocks]), np.concatenate(a_blocks)
    b = concat_xadj([len(b) for b in b_blocks]), np.concatenate(b_blocks)
    with pytest.raises(ValueError, match="bound"):
        resolve_backend(name).csr_pairs(*a, ids, *b, ids, bound, elements=elements)


@pytest.mark.parametrize("elements", [False, True])
def test_numpy_csr_pairs_checks_every_keyed_partner_row(elements):
    """numpy keys every partner row between the smallest and largest id,
    so an out-of-range value in a row no pair names would alias into the
    next row's keys (9 in row 1 keys like row 2's 1): it raises too."""
    a_x, a_adj = concat_xadj([1, 1]), np.array([1, 1])
    b_x, b_adj = concat_xadj([3, 1, 2]), np.array([1, 2, 3, 9, 0, 2])
    csr_pairs = resolve_backend("numpy").csr_pairs
    with pytest.raises(ValueError, match="bound"):
        csr_pairs(a_x, a_adj, np.array([0, 1]), b_x, b_adj, np.array([0, 2]), 8, elements=elements)


def test_numpy_csr_pairs_rejects_out_of_range_blocks():
    """numpy runs the same id and offset checks as native before it gathers."""
    x, adj = concat_xadj([2, 1]), np.array([1, 4, 2])
    csr_pairs = resolve_backend("numpy").csr_pairs
    with pytest.raises(IndexError, match="block id"):
        csr_pairs(x, adj, np.array([2]), x, adj, np.array([0]), 5)
    with pytest.raises(IndexError, match="offsets"):
        csr_pairs(x, adj[:2], np.array([0]), x, adj, np.array([0]), 5)
    with pytest.raises(ValueError, match="align"):
        csr_pairs(x, adj, np.array([0, 1]), x, adj, np.array([0]), 5)


def test_numpy_csr_pairs_rejects_keys_past_int64():
    x, adj, ids = concat_xadj([1, 1, 1]), np.array([0, 1, 2]), np.array([0, 2])
    with pytest.raises(ValueError, match="overflows"):
        resolve_backend("numpy").csr_pairs(x, adj, ids, x, adj, ids, 2**62)
