"""Compressed single-shot Bloom filter (Putze, Sanders & Singler 2009).

The paper's footnote 2 remarks that a *compressed single-shot Bloom
filter* would be the more appropriate AMQ for the approximate global
phase because it needs less communication volume.  A single-shot
filter uses ``k = 1`` hash function over a large sparse bit range and
ships the *Golomb/Rice-coded gaps* between set positions instead of
the raw bit array — near the information-theoretic minimum of
``n log2(m/n)`` bits for ``n`` keys in ``m`` cells.

For the simulation the set positions are kept as a sorted array
(queries are a ``searchsorted``); what goes on the wire — and what the
cost model charges — is the exact Rice-coded size computed by
:func:`rice_encoded_bits`.
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
