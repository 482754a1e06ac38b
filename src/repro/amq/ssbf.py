"""Compressed single-shot Bloom filter (Putze, Sanders & Singler 2009).

The paper's footnote 2 remarks that a *compressed single-shot Bloom
filter* would be the more appropriate AMQ for the approximate global
phase because it needs less communication volume.  A single-shot
filter uses ``k = 1`` hash function over a large sparse bit range and
ships the *Golomb/Rice-coded gaps* between set positions instead of
the raw bit array — near the information-theoretic minimum of
``n log2(m/n)`` bits for ``n`` keys in ``m`` cells.

The set positions are kept as a sorted array (queries are a
``searchsorted``); the wire carries their Rice code
(:meth:`SingleShotBloomFilter.to_words`), and the cost model charges
its exact size (:func:`rice_encoded_bits` plus a one-word header).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..graphs.builders import sorted_unique
from .hashing import hash_to_range

__all__ = ["SingleShotBloomFilter", "rice_encoded_bits", "optimal_rice_parameter"]


def optimal_rice_parameter(num_cells: int, num_set: int) -> int:
    """Rice parameter ``k`` minimizing the code length for geometric gaps.

    For set density ``p = num_set / num_cells`` the gaps are
    ~geometric; the classic choice is ``k = round(log2(ln 2 / p))``,
    clamped to ``>= 0``.
    """
    if num_set <= 0 or num_cells <= 0:
        return 0
    p = num_set / num_cells
    if p >= 1.0:
        return 0
    return max(0, int(round(math.log2(math.log(2.0) / p))))


def rice_encoded_bits(positions: np.ndarray, rice_k: int) -> int:
    """Exact bit count of Rice-coding the gaps of sorted positions.

    Each gap ``g`` costs ``(g >> k)`` unary bits plus ``k + 1`` bits
    (terminator + remainder).
    """
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size == 0:
        return 0
    gaps = np.diff(np.concatenate([[0], positions]))
    return int((gaps >> rice_k).sum()) + positions.size * (rice_k + 1)


@dataclass
class SingleShotBloomFilter:
    """One-hash Bloom filter with Rice-compressed wire representation.

    Parameters
    ----------
    num_cells:
        Size of the (virtual) bit range; choose ``~ c * n`` cells for
        ``n`` keys to get FPR ``~ 1 - e^{-1/c} ~= 1/c``.
    seed:
        Hash seed shared between sender and receiver.
    """

    num_cells: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_cells < 1:
            raise ValueError("num_cells must be positive")
        self._positions = np.empty(0, dtype=np.int64)
        self._count = 0

    @classmethod
    def for_elements(
        cls, num_elements: int, cells_per_element: float = 16.0, seed: int = 0
    ) -> "SingleShotBloomFilter":
        """Size for a target FPR of roughly ``1 / cells_per_element``."""
        cells = max(2, int(math.ceil(max(num_elements, 1) * cells_per_element)))
        return cls(cells, seed=seed)

    @classmethod
    def from_words(
        cls,
        words: np.ndarray,
        num_elements: int,
        cells_per_element: float = 16.0,
        seed: int = 0,
    ) -> tuple["SingleShotBloomFilter", int]:
        """Decode a filter of ``num_elements`` keys from the front of ``words``.

        The inverse of :meth:`to_words` for a filter sized by
        :meth:`for_elements` with the same arguments.  Returns the filter
        and the number of words its code used; later words are ignored.
        The unary quotients end at the ``n``-th zero bit, and the ``n·k``
        remainder bits follow.
        """
        f = cls.for_elements(num_elements, cells_per_element, seed)
        n = int(words[0]) if len(words) else -1
        if not 0 <= n <= f.num_cells:
            raise ValueError("malformed Rice code header")
        k = optimal_rice_parameter(f.num_cells, n)
        # The quotients sum to at most (num_cells - 1) >> k: that bounds the code.
        max_bits = ((f.num_cells - 1) >> k) + n * (k + 1)
        code = np.asarray(words[1 : 1 + -(-max_bits // 64)], dtype="<i8")
        bits = np.unpackbits(code.view(np.uint8), bitorder="little")
        ends = np.flatnonzero(bits == 0)[:n]
        unary_bits = int(ends[-1]) + 1 if n else 0
        if ends.size < n or bits.size < unary_bits + n * k:
            raise ValueError("truncated Rice code")
        quotients = np.diff(ends, prepend=-1) - 1
        remainders = bits[unary_bits : unary_bits + n * k].reshape(n, k).astype(np.int64)
        gaps = (quotients << k) | (remainders << np.arange(k)).sum(axis=1)
        f._positions = np.cumsum(gaps, dtype=np.int64)
        f._count = int(num_elements)
        return f, 1 + -(-(unary_bits + n * k) // 64)

    def to_words(self) -> np.ndarray:
        """The wire form: ``n``, then the Rice code of the position gaps.

        Word 0 is the number ``n`` of set positions.  Bit ``j`` of the
        code is bit ``j % 64`` of word ``1 + j // 64``.  The code holds
        each gap's quotient ``g >> k`` in unary (that many ones and a
        terminating zero), then the ``n`` remainders of ``k`` bits each,
        least significant bit first, with
        ``k = optimal_rice_parameter(num_cells, n)``; it is zero-padded
        to whole words, so ``len(to_words()) == storage_words``.
        """
        n = int(self._positions.size)
        k = optimal_rice_parameter(self.num_cells, n)
        gaps = np.diff(self._positions, prepend=0)
        quotients = gaps >> k
        unary_bits = int(quotients.sum()) + n
        bits = np.zeros(-(-(unary_bits + n * k) // 64) * 64, dtype=np.uint8)
        bits[:unary_bits] = 1
        bits[np.cumsum(quotients + 1) - 1] = 0
        bits[unary_bits : unary_bits + n * k] = ((gaps[:, None] >> np.arange(k)) & 1).ravel()
        code = np.packbits(bits, bitorder="little").view("<i8")
        return np.concatenate(([n], code)).astype(np.int64)

    @property
    def num_elements(self) -> int:
        """Number of keys added."""
        return self._count

    def add(self, keys: np.ndarray) -> None:
        """Insert keys (vectorized; duplicate cells collapse)."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return
        pos = hash_to_range(keys, 1, self.num_cells, self.seed)[0]
        self._positions = sorted_unique(np.concatenate([self._positions, pos]))
        self._count += int(keys.size)

    def query(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership test (no false negatives)."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        pos = hash_to_range(keys, 1, self.num_cells, self.seed)[0]
        idx = np.searchsorted(self._positions, pos)
        idx_c = np.minimum(idx, max(self._positions.size - 1, 0))
        if self._positions.size == 0:
            return np.zeros(keys.size, dtype=bool)
        return (idx < self._positions.size) & (self._positions[idx_c] == pos)

    @property
    def storage_words(self) -> int:
        """Wire size in 64-bit words: Rice-coded gaps plus a 1-word header."""
        k = optimal_rice_parameter(self.num_cells, self._positions.size)
        bits = rice_encoded_bits(self._positions, k)
        return 1 + (bits + 63) // 64

    def expected_fpr(self) -> float:
        """FPR for a key not in the set: fraction of occupied cells."""
        return self._positions.size / float(self.num_cells)
