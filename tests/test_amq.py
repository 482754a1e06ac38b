"""Tests for the AMQ structures (Bloom, single-shot Bloom, hashing)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.amq import (
    BloomFilter,
    SingleShotBloomFilter,
    false_positive_rate,
    hash_family,
    hash_to_range,
    mix64,
    optimal_num_hashes,
    optimal_rice_parameter,
    rice_encoded_bits,
)


# ---------------------------------------------------------------- hashing
def test_mix64_deterministic_and_seed_dependent():
    x = np.arange(100, dtype=np.int64)
    a = mix64(x, seed=1)
    b = mix64(x, seed=1)
    c = mix64(x, seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mix64_avalanche_roughly_uniform():
    x = np.arange(10000, dtype=np.int64)
    h = mix64(x) % np.uint64(16)
    counts = np.bincount(h.astype(np.int64), minlength=16)
    assert counts.min() > 10000 / 16 * 0.8
    assert counts.max() < 10000 / 16 * 1.2


def test_hash_family_shape_and_independence():
    x = np.arange(50, dtype=np.int64)
    h = hash_family(x, 4, seed=3)
    assert h.shape == (4, 50)
    assert not np.array_equal(h[0], h[1])


def test_hash_to_range_bounds():
    x = np.arange(1000, dtype=np.int64)
    h = hash_to_range(x, 3, 37, seed=5)
    assert h.min() >= 0 and h.max() < 37
    with pytest.raises(ValueError):
        hash_to_range(x, 3, 0)


# ---------------------------------------------------------------- bloom
def test_bloom_no_false_negatives(rng):
    keys = rng.choice(10**6, size=500, replace=False)
    f = BloomFilter.for_elements(500, bits_per_element=8, seed=1)
    f.add(keys)
    assert np.all(f.query(keys))


def test_bloom_fpr_close_to_analytic(rng):
    n = 2000
    keys = np.arange(n, dtype=np.int64)
    f = BloomFilter.for_elements(n, bits_per_element=8, seed=2)
    f.add(keys)
    probe = np.arange(n, n + 20000, dtype=np.int64)
    measured = float(np.count_nonzero(f.query(probe))) / probe.size
    expected = f.expected_fpr()
    assert measured == pytest.approx(expected, rel=0.4, abs=0.01)


def test_bloom_empty_filter_rejects_everything():
    f = BloomFilter(1024, 3)
    assert not np.any(f.query(np.arange(100)))
    assert f.expected_fpr() == 0.0
    assert f.query(np.empty(0, dtype=np.int64)).size == 0


def test_bloom_storage_words():
    f = BloomFilter(640, 4)
    assert f.storage_words == 10


def test_bloom_parameter_validation():
    with pytest.raises(ValueError):
        BloomFilter(0, 1)
    with pytest.raises(ValueError):
        BloomFilter(64, 0)


def test_optimal_num_hashes():
    assert optimal_num_hashes(8.0) == round(8 * 0.6931)
    assert optimal_num_hashes(0.1) == 1


def test_false_positive_rate_limits():
    assert false_positive_rate(1000, 3, 0) == 0.0
    assert false_positive_rate(0, 3, 10) == 1.0
    # More bits -> lower FPR.
    assert false_positive_rate(10000, 5, 100) < false_positive_rate(1000, 5, 100)


def test_bloom_seed_changes_positions():
    keys = np.arange(100, dtype=np.int64)
    f1 = BloomFilter(4096, 3, seed=1)
    f2 = BloomFilter(4096, 3, seed=2)
    f1.add(keys)
    f2.add(keys)
    assert not np.array_equal(f1._words, f2._words)


# ---------------------------------------------------------------- ssbf
def test_ssbf_no_false_negatives(rng):
    keys = rng.choice(10**6, size=300, replace=False)
    f = SingleShotBloomFilter.for_elements(300, cells_per_element=16, seed=3)
    f.add(keys)
    assert np.all(f.query(keys))


def test_ssbf_fpr_close_to_density(rng):
    n = 1000
    f = SingleShotBloomFilter.for_elements(n, cells_per_element=16, seed=4)
    f.add(np.arange(n, dtype=np.int64))
    probe = np.arange(n, n + 20000, dtype=np.int64)
    measured = float(np.count_nonzero(f.query(probe))) / probe.size
    assert measured == pytest.approx(f.expected_fpr(), rel=0.4, abs=0.01)
    assert f.expected_fpr() < 0.08  # ~1/16


def test_ssbf_compressed_smaller_than_bloom_at_same_fpr(rng):
    """The Putze et al. point: near-entropy wire size."""
    n = 4000
    # Bloom at ~1% FPR needs ~9.6 bits/element.
    bloom = BloomFilter.for_elements(n, bits_per_element=10, seed=5)
    bloom.add(np.arange(n, dtype=np.int64))
    ssbf = SingleShotBloomFilter.for_elements(n, cells_per_element=100, seed=5)
    ssbf.add(np.arange(n, dtype=np.int64))
    assert ssbf.expected_fpr() <= 0.012
    assert ssbf.storage_words < bloom.storage_words


def test_ssbf_empty():
    f = SingleShotBloomFilter(64)
    assert not np.any(f.query(np.arange(10)))
    assert f.storage_words >= 1
    assert f.query(np.empty(0, dtype=np.int64)).size == 0


def test_ssbf_validation():
    with pytest.raises(ValueError):
        SingleShotBloomFilter(0)


# ---------------------------------------------------------------- rice
def test_rice_encoded_bits_empty():
    assert rice_encoded_bits(np.empty(0, dtype=np.int64), 2) == 0


def test_rice_encoded_bits_formula():
    pos = np.array([3, 10, 11], dtype=np.int64)
    # gaps: 3, 7, 1; k=1 -> unary sum = 1+3+0 = 4... plus 3*(k+1)=6
    assert rice_encoded_bits(pos, 1) == (3 >> 1) + (7 >> 1) + (1 >> 1) + 3 * 2


def test_optimal_rice_parameter_monotone():
    dense = optimal_rice_parameter(1000, 500)
    sparse = optimal_rice_parameter(100000, 500)
    assert sparse > dense
    assert optimal_rice_parameter(100, 0) == 0


# ---------------------------------------------------------------- wire codec
#: (keys, budget, seed): budgets from below one cell per key (Rice k = 0)
#: up to sparse filters with large k.
_FILTERS = st.tuples(
    st.lists(st.integers(0, 10**9), max_size=300, unique=True),
    st.floats(0.5, 64.0),
    st.integers(0, 2**31),
)
_TRAILING = st.lists(st.integers(-(2**63), 2**63 - 1), max_size=4)
_PROBES = st.lists(st.integers(0, 10**9), max_size=200)


@settings(max_examples=60, deadline=None)
@given(_FILTERS, _TRAILING, _PROBES)
def test_bloom_codec_roundtrip(filter_args, trailing, probes):
    keys, budget, seed = filter_args
    keys = np.array(keys, dtype=np.int64)
    f = BloomFilter.for_elements(keys.size, bits_per_element=budget, seed=seed)
    f.add(keys)
    words = f.to_words()
    assert words.dtype == np.int64 and len(words) == f.storage_words
    block = np.concatenate([words, np.array(trailing, dtype=np.int64)])
    g = BloomFilter.from_words(block, keys.size, bits_per_element=budget, seed=seed)
    queries = np.concatenate([keys, np.array(probes, dtype=np.int64)])
    assert np.array_equal(g.query(queries), f.query(queries))
    assert g.expected_fpr() == f.expected_fpr()


@settings(max_examples=60, deadline=None)
@given(_FILTERS, _TRAILING, _PROBES)
def test_ssbf_codec_roundtrip_ignores_trailing_words(filter_args, trailing, probes):
    keys, budget, seed = filter_args
    keys = np.array(keys, dtype=np.int64)
    f = SingleShotBloomFilter.for_elements(keys.size, cells_per_element=budget, seed=seed)
    f.add(keys)
    words = f.to_words()
    assert words.dtype == np.int64 and len(words) == f.storage_words
    block = np.concatenate([words, np.array(trailing, dtype=np.int64)])
    g, used = SingleShotBloomFilter.from_words(
        block, keys.size, cells_per_element=budget, seed=seed
    )
    assert used == len(words)
    queries = np.concatenate([keys, np.array(probes, dtype=np.int64)])
    assert np.array_equal(g.query(queries), f.query(queries))
    assert g.expected_fpr() == f.expected_fpr()


def test_codecs_reject_truncated_words(rng):
    keys = rng.choice(10**6, size=200, replace=False)
    bloom = BloomFilter.for_elements(keys.size, seed=3)
    bloom.add(keys)
    with pytest.raises(ValueError):
        BloomFilter.from_words(bloom.to_words()[:-1], keys.size, seed=3)
    ssbf = SingleShotBloomFilter.for_elements(keys.size, seed=3)
    ssbf.add(keys)
    with pytest.raises(ValueError):
        SingleShotBloomFilter.from_words(ssbf.to_words()[:-1], keys.size, seed=3)
    with pytest.raises(ValueError):
        SingleShotBloomFilter.from_words(np.empty(0, dtype=np.int64), keys.size, seed=3)
