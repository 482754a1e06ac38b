"""Graph file IO: edge lists, METIS, and a fast binary format.

The paper reads its real-world inputs from the file system (and notes
that supercomputer IO is expensive enough that synthetic inputs are
generated in situ).  These loaders let a user run the reproduction on
the actual Table-I datasets if they have them on disk; the scaled
stand-ins in :mod:`repro.graphs.datasets` are used otherwise.

Formats
-------
* **edge list** (``.txt`` / ``.el``): one ``u v`` pair per line,
  ``#``/``%`` comments allowed, duplicates and self-loops cleaned on
  load (SNAP/KONECT convention).
* **METIS** (``.metis`` / ``.graph``): header ``n m`` then one
  1-indexed neighbor line per vertex.
* **binary** (``.npz``): the CSR arrays verbatim — round-trips exactly
  and loads orders of magnitude faster than text.
"""

from __future__ import annotations

import io
import os
from pathlib import Path

import numpy as np

from .builders import from_edges
from .csr import CSRGraph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_metis",
    "write_metis",
    "read_binary",
    "write_binary",
    "load",
]


def _ints(tokens: list[str], where: str, lineno: int) -> list[int]:
    """Parse ``tokens`` as integers; a bad one names the file and line."""
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise ValueError(f"{where}:{lineno}: non-integer token {tok!r}") from None
    return values


def read_edge_list(path: str | os.PathLike | io.IOBase, *, name: str = "") -> CSRGraph:
    """Read a whitespace-separated edge list (SNAP/KONECT style).

    A malformed line raises ``ValueError`` naming the file and the
    1-based line number.
    """
    if isinstance(path, io.IOBase):
        text = path.read()
        where = str(getattr(path, "name", "<stream>"))
    else:
        text = Path(path).read_text()
        name = name or Path(path).stem
        where = str(path)
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line[0] in "#%":
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"{where}:{lineno}: malformed edge-list line {line!r}")
        rows.append(_ints(parts[:2], where, lineno))
    edges = np.array(rows, dtype=np.int64).reshape(-1, 2)
    return from_edges(edges, name=name)


def write_edge_list(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write one ``u v`` line per undirected edge."""
    e = graph.undirected_edges()
    with open(path, "w") as fh:
        fh.write(f"# {graph.name or 'graph'}: n={graph.num_vertices} m={graph.num_edges}\n")
        for u, v in e:
            fh.write(f"{u} {v}\n")


def read_metis(path: str | os.PathLike, *, name: str = "") -> CSRGraph:
    """Read a METIS graph file (1-indexed adjacency lines).

    A non-integer token raises ``ValueError`` naming the file and the
    1-based line number.
    """
    lines = Path(path).read_text().splitlines()
    name = name or Path(path).stem
    where = str(path)
    body = [
        (lineno, ln)
        for lineno, ln in enumerate(lines, start=1)
        if ln.strip() and not ln.lstrip().startswith("%")
    ]
    if not body:
        raise ValueError(f"{where}: empty METIS file")
    header_line, header_text = body[0]
    header = header_text.split()
    if len(header) < 2:
        raise ValueError(f"{where}:{header_line}: METIS header needs 'n m', got {header_text!r}")
    n, m = _ints(header[:2], where, header_line)
    if len(header) > 2 and header[2] not in ("0", "00", "000"):
        raise ValueError(f"{where}:{header_line}: weighted METIS graphs are not supported")
    if len(body) - 1 != n:
        raise ValueError(f"{where}: expected {n} adjacency lines, got {len(body) - 1}")
    src, dst = [], []
    for v, (lineno, ln) in enumerate(body[1:]):
        nbrs = _ints(ln.split(), where, lineno)
        src += [v] * len(nbrs)
        dst += [u - 1 for u in nbrs]
    edges = np.column_stack(
        [np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)]
    ) if src else np.empty((0, 2), dtype=np.int64)
    g = from_edges(edges, num_vertices=n, name=name)
    if g.num_edges != m:
        raise ValueError(f"{where}: METIS header says m={m}, file contains {g.num_edges}")
    return g


def write_metis(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write the METIS format (1-indexed, symmetric)."""
    with open(path, "w") as fh:
        fh.write(f"{graph.num_vertices} {graph.num_edges}\n")
        for _, nbrs in graph.iter_neighborhoods():
            fh.write(" ".join(str(int(x) + 1) for x in nbrs) + "\n")


def read_binary(path: str | os.PathLike, *, name: str = "") -> CSRGraph:
    """Read the ``.npz`` binary CSR format written by :func:`write_binary`."""
    with np.load(path) as data:
        return CSRGraph(
            data["xadj"],
            data["adjncy"],
            oriented=bool(data["oriented"]),
            sorted_neighborhoods=bool(data["sorted"]),
            name=name or str(data.get("name", "")),
        )


def write_binary(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write the CSR arrays to a compressed ``.npz`` file."""
    np.savez_compressed(
        path,
        xadj=graph.xadj,
        adjncy=graph.adjncy,
        oriented=np.asarray(graph.oriented),
        sorted=np.asarray(graph.sorted_neighborhoods),
        name=np.asarray(graph.name),
    )


def load(path: str | os.PathLike) -> CSRGraph:
    """Dispatch on file extension: ``.npz``, ``.metis``/``.graph``, else edge list."""
    p = Path(path)
    suffix = p.suffix.lower()
    if suffix == ".npz":
        return read_binary(p)
    if suffix in (".metis", ".graph"):
        return read_metis(p)
    return read_edge_list(p)
