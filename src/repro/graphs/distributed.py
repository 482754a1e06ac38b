"""Per-PE local graph views: ghosts, interface vertices, cut edges.

This module realizes the distributed input format of Section II-B:
PE ``i`` stores the adjacency arrays of its owned contiguous vertex
range ``V_i`` only.  Everything a PE can derive *without
communication* lives here:

* **ghost vertices** ``\\partial V_i`` — neighbors of owned vertices
  that live on other PEs;
* **interface vertices** — owned vertices adjacent to at least one
  ghost;
* **cut edges** — edges with endpoints on two different PEs;
* the **expanded local graph** used by CETRIC's local phase: owned
  vertices plus ghosts, with ghost neighborhoods restricted to local
  vertices (obtained by "rewiring incoming cut edges", no
  communication needed).

One slot table addresses every vertex a PE knows, and this module is
the only code that translates between slots and global ids: slot ``s``
is position ``s`` of :attr:`LocalGraph.ids`, the sorted union of the
owned range and the ghosts, so the owned vertices fill the contiguous
:attr:`LocalGraph.owned_slots` and a sorted neighbourhood stays sorted
once relabelled.  A PE's own adjacency is relabelled once per program
(:meth:`LocalGraph.adj_slots`), ids that arrive in messages are looked
up, checked, with :meth:`LocalGraph.slots_of`, and ``ids[slots]`` gives
global ids back where data leaves the PE or is returned.  Per-vertex
data over owned vertices and ghosts is one slot-indexed array
(:meth:`LocalGraph.by_slot`; :meth:`LocalGraph.ghost_part` inverts it).

The simulation-only escape hatch :func:`distribute` slices a global
:class:`~repro.graphs.csr.CSRGraph` into per-PE views — standing in
for the parallel file/generator input path of the real system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .builders import sorted_unique, unique_of_sorted
from .csr import CSRGraph
from .partition import Partition, partition_by_vertices

__all__ = ["LocalGraph", "DistGraph", "distribute"]


@dataclass
class LocalGraph:
    """The part of the input graph visible to one PE.

    Attributes
    ----------
    rank:
        This PE's index ``i``.
    partition:
        The global 1D partition (every PE knows the ``p + 1`` range
        boundaries; this is ``O(p)`` replicated metadata, exactly as in
        the paper's code).
    xadj, adjncy:
        Adjacency array of the owned vertices.  ``xadj`` has
        ``|V_i| + 1`` entries; vertex ``v`` (global id) is row
        ``v - vlo``.  ``adjncy`` holds *global* neighbor ids, sorted
        ascending within each neighborhood.
    """

    rank: int
    partition: Partition
    xadj: np.ndarray
    adjncy: np.ndarray
    #: Degrees of ghost vertices, aligned with :attr:`ghost_vertices`.
    #: ``None`` until the ghost-degree exchange has run.
    ghost_degrees: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.xadj = np.ascontiguousarray(self.xadj, dtype=np.int64)
        self.adjncy = np.ascontiguousarray(self.adjncy, dtype=np.int64)
        lo, hi = self.partition.owner_range(self.rank)
        if self.xadj.size != hi - lo + 1:
            raise ValueError("xadj length must be |V_i| + 1")
        self._vlo, self._vhi = lo, hi
        self._ghosts: np.ndarray | None = None
        self._ids: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def vlo(self) -> int:
        """First owned global vertex id."""
        return self._vlo

    @property
    def vhi(self) -> int:
        """One past the last owned global vertex id."""
        return self._vhi

    @property
    def num_local_vertices(self) -> int:
        """``|V_i|``."""
        return self._vhi - self._vlo

    @property
    def num_local_arcs(self) -> int:
        """Stored arcs (each owned vertex's full neighborhood)."""
        return self.adjncy.size

    @property
    def degrees(self) -> np.ndarray:
        """Degrees of owned vertices (global degrees — the full ``N_v``)."""
        return np.diff(self.xadj)

    def owned_vertices(self) -> np.ndarray:
        """Global ids of owned vertices."""
        return np.arange(self._vlo, self._vhi, dtype=np.int64)

    def is_local(self, vertices) -> np.ndarray:
        """Vectorized ``v in V_i`` test."""
        v = np.asarray(vertices, dtype=np.int64)
        return (v >= self._vlo) & (v < self._vhi)

    def neighbors(self, v: int) -> np.ndarray:
        """``N_v`` for an owned vertex ``v`` (global ids, sorted)."""
        if not (self._vlo <= v < self._vhi):
            raise KeyError(f"vertex {v} is not local to PE {self.rank}")
        s = v - self._vlo
        return self.adjncy[self.xadj[s] : self.xadj[s + 1]]

    def degree_of(self, v: int) -> int:
        """Degree of an owned vertex (``KeyError`` for any other)."""
        return self.neighbors(v).size

    # ------------------------------------------------------------------
    # Ghost / interface / cut structure
    # ------------------------------------------------------------------
    @property
    def ghost_vertices(self) -> np.ndarray:
        """Sorted global ids of ghost vertices ``\\partial V_i`` (cached)."""
        if self._ghosts is None:
            nonlocal_mask = ~self.is_local(self.adjncy)
            self._ghosts = sorted_unique(self.adjncy[nonlocal_mask])
        return self._ghosts

    @property
    def num_ghosts(self) -> int:
        """``|\\partial V_i|``."""
        return self.ghost_vertices.size

    @property
    def owned_slots(self) -> slice:
        """The contiguous slots of the owned vertices."""
        below = int(np.searchsorted(self.ghost_vertices, self._vlo))
        return slice(below, below + self.num_local_vertices)

    @property
    def ids(self) -> np.ndarray:
        """Global id of every slot: ``sorted(V_i ∪ ∂V_i)`` (cached)."""
        if self._ids is None:
            self._ids = self.by_slot(self.owned_vertices(), self.ghost_vertices)
        return self._ids

    def is_owned(self, slots: np.ndarray) -> np.ndarray:
        """Vectorized ``slot in owned_slots`` test."""
        own = self.owned_slots
        return (slots >= own.start) & (slots < own.stop)

    def adj_slots(self) -> np.ndarray:
        """Slot of every :attr:`adjncy` entry, through a transient n-entry
        map over the ids (relabel once per program; nothing is cached)."""
        index = np.empty(self.partition.num_vertices, dtype=np.int64)
        index[self.ids] = np.arange(self.ids.size, dtype=np.int64)
        return index[self.adjncy]

    def slots_of(self, vertices) -> np.ndarray:
        """Slot of each owned or ghost id that arrived in a message.

        Raises ``KeyError`` for an id that is neither owned nor a ghost.
        """
        v = np.asarray(vertices, dtype=np.int64)
        ids = self.ids
        slots = np.searchsorted(ids, v)
        k = np.minimum(slots, ids.size - 1)
        if v.size and not (ids.size and np.array_equal(ids[k], v)):
            raise KeyError(f"vertex is neither owned by nor a ghost of PE {self.rank}")
        return slots

    def by_slot(self, owned: np.ndarray, ghost: np.ndarray) -> np.ndarray:
        """One slot-indexed array from values aligned with the owned
        vertices and with :attr:`ghost_vertices` (``ghost``'s dtype)."""
        return np.insert(ghost, self.owned_slots.start, owned)

    def ghost_part(self, values: np.ndarray) -> np.ndarray:
        """The ghosts' entries of a slot-indexed array, in
        :attr:`ghost_vertices` order."""
        return np.delete(values, self.owned_slots)

    def interface_vertices(self) -> np.ndarray:
        """Global ids of owned vertices adjacent to at least one ghost."""
        nonlocal_mask = ~self.is_local(self.adjncy)
        src = np.repeat(self.owned_vertices(), self.degrees)
        return unique_of_sorted(src[nonlocal_mask])

    def cut_edges(self) -> np.ndarray:
        """All cut edges with the local endpoint first, one row per arc.

        Rows are ``[v_local, u_ghost]``.  Each undirected cut edge
        appears exactly once per PE (the remote endpoint's PE sees the
        mirrored row).
        """
        nonlocal_mask = ~self.is_local(self.adjncy)
        src = np.repeat(self.owned_vertices(), self.degrees)
        return np.column_stack([src[nonlocal_mask], self.adjncy[nonlocal_mask]])

    @property
    def num_cut_edges(self) -> int:
        """Number of cut arcs seen from this PE."""
        return int(np.count_nonzero(~self.is_local(self.adjncy)))

    def ghost_ranks(self) -> np.ndarray:
        """Owning rank of every ghost vertex (aligned with ghost_vertices)."""
        return self.partition.rank_of(self.ghost_vertices)

    def neighbor_pes(self) -> np.ndarray:
        """Sorted ranks of PEs owning at least one ghost of this PE."""
        # Ghosts are sorted and ranks own ascending id ranges.
        return unique_of_sorted(self.ghost_ranks())

    # ------------------------------------------------------------------
    # CETRIC support: the expanded local graph
    # ------------------------------------------------------------------
    def ghost_local_neighborhoods(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Local neighborhoods of ghosts: ``N_g \\cap V_i`` for each ghost.

        Built purely from local data by inverting cut edges ("rewiring
        incoming cut edges" in Section IV-D): every cut arc
        ``(v, g)`` contributes ``v`` to ghost ``g``'s local
        neighborhood.  ``slots`` is :meth:`adj_slots`.

        Returns
        -------
        (gxadj, gadjncy):
            CSR arrays over the ghosts in :attr:`ghost_vertices` order,
            holding slots; neighborhoods sorted ascending.
        """
        from scipy.sparse import csr_matrix

        # Transposing the owned rows (CSR -> CSC, a linear and stable
        # counting sort) lists each slot's owned neighbours as ascending
        # row numbers; the ghost columns are the cut arcs.  The owned
        # columns sit contiguously between the two runs of ghost columns.
        own = self.owned_slots
        flags = np.ones(slots.size, dtype=bool)
        shape = (self.num_local_vertices, self.ids.size)
        csc = csr_matrix((flags, slots, self.xadj), shape=shape).tocsc()
        colptr = csc.indptr.astype(np.int64)
        lo, hi = colptr[own.start], colptr[own.stop]
        gxadj = np.concatenate((colptr[: own.start], colptr[own.stop :] - (hi - lo)))
        local_nbrs = np.concatenate((csc.indices[:lo], csc.indices[hi:])).astype(np.int64)
        local_nbrs += own.start
        return gxadj, local_nbrs

    def memory_words(self) -> int:
        """Local storage footprint in machine words."""
        return int(self.xadj.size + self.adjncy.size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LocalGraph(rank={self.rank}, V_i=[{self._vlo},{self._vhi}), "
            f"arcs={self.num_local_arcs})"
        )


@dataclass
class DistGraph:
    """A graph distributed over ``p`` PEs (the simulation's world view).

    Holds one :class:`LocalGraph` per PE.  Only the simulation driver
    touches this object; algorithm code receives a single
    :class:`LocalGraph` plus a communicator and must not peek at other
    PEs' views.
    """

    views: list[LocalGraph]
    partition: Partition
    num_vertices: int
    num_edges: int
    name: str = ""

    @property
    def num_pes(self) -> int:
        """Number of PEs ``p``."""
        return len(self.views)

    def view(self, rank: int) -> LocalGraph:
        """The local view of PE ``rank``."""
        return self.views[rank]

    def total_cut_edges(self) -> int:
        """Number of undirected cut edges in the whole graph."""
        return sum(v.num_cut_edges for v in self.views) // 2

    def max_ghosts(self) -> int:
        """``max_i |\\partial V_i|`` — replication pressure indicator."""
        return max((v.num_ghosts for v in self.views), default=0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistGraph(p={self.num_pes}, n={self.num_vertices}, "
            f"m={self.num_edges}, cut={self.total_cut_edges()})"
        )


def distribute(
    graph: CSRGraph,
    num_pes: int | None = None,
    partition: Partition | None = None,
) -> DistGraph:
    """Slice a global graph into per-PE local views.

    Exactly one of ``num_pes`` / ``partition`` must be given.  This is
    the simulation stand-in for distributed input loading (parallel
    file readers or KaGen's communication-free in-situ generation):
    each PE ends up with precisely the data the paper's input format
    prescribes, and nothing else.
    """
    if graph.oriented:
        raise ValueError("distribute expects the undirected input graph")
    if (num_pes is None) == (partition is None):
        raise ValueError("give exactly one of num_pes / partition")
    if partition is None:
        partition = partition_by_vertices(graph.num_vertices, int(num_pes))
    if partition.num_vertices != graph.num_vertices:
        raise ValueError("partition size does not match graph")
    views = []
    for rank in range(partition.num_pes):
        lo, hi = partition.owner_range(rank)
        xadj = graph.xadj[lo : hi + 1] - graph.xadj[lo]
        adjncy = graph.adjncy[graph.xadj[lo] : graph.xadj[hi]]
        views.append(
            LocalGraph(rank=rank, partition=partition, xadj=xadj.copy(), adjncy=adjncy.copy())
        )
    return DistGraph(
        views=views,
        partition=partition,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        name=graph.name,
    )
