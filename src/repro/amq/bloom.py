"""Standard Bloom filter (the paper's footnoted AMQ default).

Section IV-E approximates the global phase by replacing each shipped
neighborhood ``A(v)`` with an approximate-membership-query structure
``A'(v)``; "a typical implementation would be a Bloom filter".  Adds
and queries are fully vectorized; the filter serializes to its bit
array (:meth:`BloomFilter.to_words`), whose size in machine words is
what the approximate global phase ships and charges to the wire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hashing import hash_to_range

__all__ = ["BloomFilter", "optimal_num_hashes", "false_positive_rate"]


def optimal_num_hashes(bits_per_element: float) -> int:
    """``k = round(m/n * ln 2)``, at least 1."""
    return max(1, int(round(bits_per_element * math.log(2.0))))


def false_positive_rate(num_bits: int, num_hashes: int, num_elements: int) -> float:
    """Expected FPR ``(1 - e^{-kn/m})^k`` of a standard Bloom filter."""
    if num_elements == 0 or num_bits == 0:
        return 0.0 if num_elements == 0 else 1.0
    return float(
        (1.0 - math.exp(-num_hashes * num_elements / num_bits)) ** num_hashes
    )


@dataclass
class BloomFilter:
    """A fixed-size Bloom filter over int64 keys.

    Parameters
    ----------
    num_bits:
        Filter size in bits (rounded up to a multiple of 64 words
        internally).
    num_hashes:
        Number of hash functions ``k``.
    seed:
        Hash seed — senders and receivers must agree on it (in the
        algorithm both sides derive it from the record vertex).
    """

    num_bits: int
    num_hashes: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_bits < 1:
            raise ValueError("num_bits must be positive")
        if self.num_hashes < 1:
            raise ValueError("num_hashes must be positive")
        self._words = np.zeros((self.num_bits + 63) // 64, dtype=np.uint64)
        self._count = 0

    @classmethod
    def for_elements(
        cls, num_elements: int, bits_per_element: float = 8.0, seed: int = 0
    ) -> "BloomFilter":
        """Size a filter for ``num_elements`` keys at a bits/element budget."""
        bits = max(64, int(math.ceil(max(num_elements, 1) * bits_per_element)))
        return cls(bits, optimal_num_hashes(bits_per_element), seed=seed)

    @classmethod
    def from_words(
        cls,
        words: np.ndarray,
        num_elements: int,
        bits_per_element: float = 8.0,
        seed: int = 0,
    ) -> "BloomFilter":
        """Decode a filter of ``num_elements`` keys from the front of ``words``.

        The inverse of :meth:`to_words` for a filter sized by
        :meth:`for_elements` with the same arguments; words after its
        :attr:`storage_words` are ignored.
        """
        f = cls.for_elements(num_elements, bits_per_element, seed)
        if len(words) < f.storage_words:
            raise ValueError("truncated Bloom filter")
        f._words = np.array(words[: f.storage_words], dtype=np.int64).view(np.uint64)
        f._count = int(num_elements)
        return f

    def to_words(self) -> np.ndarray:
        """The wire form: the bit array's words viewed as ``int64``."""
        return self._words.view(np.int64)

    @property
    def num_elements(self) -> int:
        """Number of keys added so far."""
        return self._count

    @property
    def storage_words(self) -> int:
        """Wire size in 64-bit machine words."""
        return int(self._words.size)

    def add(self, keys: np.ndarray) -> None:
        """Insert an array of keys (vectorized)."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return
        pos = hash_to_range(keys, self.num_hashes, self.num_bits, self.seed).ravel()
        np.bitwise_or.at(self._words, pos // 64, np.uint64(1) << (pos % 64).astype(np.uint64))
        self._count += int(keys.size)

    def query(self, keys: np.ndarray) -> np.ndarray:
        """Membership test per key; true for all inserted keys."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        pos = hash_to_range(keys, self.num_hashes, self.num_bits, self.seed)
        bits = (self._words[pos // 64] >> (pos % 64).astype(np.uint64)) & np.uint64(1)
        return np.all(bits.astype(bool), axis=0)

    def expected_fpr(self) -> float:
        """Analytic FPR at the current fill."""
        return false_positive_rate(self.num_bits, self.num_hashes, self._count)

    def fill_fraction(self) -> float:
        """Fraction of set bits (diagnostic)."""
        if self.num_bits == 0:
            return 0.0
        set_bits = int(np.bitwise_count(self._words).sum()) if hasattr(np, "bitwise_count") else int(
            sum(bin(int(w)).count("1") for w in self._words)
        )
        return set_bits / float(self.num_bits)
