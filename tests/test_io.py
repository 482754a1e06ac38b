"""Round-trip tests for graph file IO."""

import io
import re

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.io import (
    load,
    read_binary,
    read_edge_list,
    read_metis,
    write_binary,
    write_edge_list,
    write_metis,
)


def test_edge_list_roundtrip(tmp_path):
    g = gen.gnm(50, 200, seed=1)
    path = tmp_path / "g.el"
    write_edge_list(g, path)
    h = read_edge_list(path)
    assert np.array_equal(g.xadj, h.xadj)
    assert np.array_equal(g.adjncy, h.adjncy)
    assert h.name == "g"


def test_edge_list_comments_and_duplicates():
    text = "# comment\n% other comment\n0 1\n1 0\n1 2\n\n"
    g = read_edge_list(io.StringIO(text))
    assert g.num_edges == 2


def test_edge_list_malformed_line():
    with pytest.raises(ValueError):
        read_edge_list(io.StringIO("0\n"))


def test_metis_roundtrip(tmp_path):
    g = gen.complete_graph(6)
    path = tmp_path / "g.metis"
    write_metis(g, path)
    h = read_metis(path)
    assert np.array_equal(g.xadj, h.xadj)
    assert np.array_equal(g.adjncy, h.adjncy)


def test_metis_header_mismatch(tmp_path):
    path = tmp_path / "bad.metis"
    path.write_text("2 5\n2\n1\n")
    with pytest.raises(ValueError):
        read_metis(path)


def test_metis_wrong_line_count(tmp_path):
    path = tmp_path / "bad.metis"
    path.write_text("3 1\n2\n1\n")  # 3 vertices but only 2 lines
    with pytest.raises(ValueError):
        read_metis(path)


def test_metis_rejects_weighted(tmp_path):
    path = tmp_path / "w.metis"
    path.write_text("2 1 11\n2 5\n1 5\n")
    with pytest.raises(ValueError):
        read_metis(path)


def test_binary_roundtrip(tmp_path):
    g = gen.rmat(7, 8, seed=9)
    path = tmp_path / "g.npz"
    write_binary(g, path)
    h = read_binary(path)
    assert np.array_equal(g.xadj, h.xadj)
    assert np.array_equal(g.adjncy, h.adjncy)
    assert h.oriented == g.oriented


def test_binary_preserves_orientation_flag(tmp_path):
    from repro.core.orientation import orient_by_degree

    og = orient_by_degree(gen.ring(6))
    path = tmp_path / "o.npz"
    write_binary(og, path)
    h = read_binary(path)
    assert h.oriented


def test_load_dispatch(tmp_path):
    g = gen.ring(8)
    for name in ("a.el", "a.metis", "a.npz"):
        path = tmp_path / name
        if name.endswith(".el"):
            write_edge_list(g, path)
        elif name.endswith(".metis"):
            write_metis(g, path)
        else:
            write_binary(g, path)
        h = load(path)
        assert h.num_edges == g.num_edges


def test_empty_metis_rejected(tmp_path):
    path = tmp_path / "e.metis"
    path.write_text("\n%only comment\n")
    with pytest.raises(ValueError):
        read_metis(path)


def test_edge_list_negative_id_names_the_edge():
    with pytest.raises(ValueError, match=r"negative vertex id in edge 1 \(-1, 3\)"):
        read_edge_list(io.StringIO("0 1\n-1 3\n"))


def test_edge_list_id_too_large_for_edge_key():
    with pytest.raises(ValueError, match="vertex id 3037000499 is too large"):
        read_edge_list(io.StringIO("0 3037000499\n"))


def test_edge_list_errors_name_the_file_and_line(tmp_path):
    path = tmp_path / "bad.el"
    path.write_text("# header\n0 1\n1 x\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:3: non-integer token 'x'"):
        read_edge_list(path)
    path.write_text("0 1\n\n2\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:3: malformed edge-list line '2'"):
        read_edge_list(path)


def test_metis_errors_name_the_file_and_line(tmp_path):
    path = tmp_path / "bad.metis"
    path.write_text("% comment\n3 2\n2\n1 3.5\n2\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:4: non-integer token '3.5'"):
        read_metis(path)
    path.write_text("3 two\n2\n1 3\n2\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:1: non-integer token 'two'"):
        read_metis(path)
