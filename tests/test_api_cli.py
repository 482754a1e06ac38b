"""Tests for the public facade and the command-line interface."""

import numpy as np
import pytest

from repro import count_triangles, local_clustering_coefficients
from repro.cli import build_parser, main, parse_graph_spec
from repro.core.edge_iterator import edge_iterator
from repro.core.lcc import lcc_sequential
from repro.graphs import generators as gen


@pytest.fixture(scope="module")
def g():
    return gen.rgg2d(500, expected_edges=4000, seed=30)


# ---------------------------------------------------------------- api
def test_count_triangles_default(g):
    res = count_triangles(g, num_pes=4)
    assert res.algorithm == "cetric"
    assert res.triangles == edge_iterator(g).triangles


def test_count_triangles_sequential(g):
    res = count_triangles(g, algorithm="sequential")
    assert res.triangles == edge_iterator(g).triangles


def test_count_triangles_all_distributed(g):
    truth = edge_iterator(g).triangles
    for algo in ("ditric", "ditric2", "cetric2", "tric", "havoqgt"):
        assert count_triangles(g, algorithm=algo, num_pes=3).triangles == truth


def test_lcc_facade_sequential_and_distributed(g):
    seq = local_clustering_coefficients(g)
    dist = local_clustering_coefficients(g, num_pes=5)
    assert np.allclose(seq, lcc_sequential(g))
    assert np.allclose(dist, seq)


# ---------------------------------------------------------------- cli
def test_parse_graph_spec_generators():
    assert parse_graph_spec("rgg2d:256").num_vertices == 256
    assert parse_graph_spec("gnm:128:7").num_vertices == 128
    assert parse_graph_spec("rmat:6").num_vertices == 64
    assert parse_graph_spec("rhg:200").num_vertices == 200


def test_parse_graph_spec_dataset():
    g = parse_graph_spec("dataset:europe:0.2")
    assert g.name == "europe"


def test_parse_graph_spec_file(tmp_path):
    from repro.graphs.io import write_edge_list

    path = tmp_path / "t.el"
    write_edge_list(gen.ring(5), path)
    assert parse_graph_spec(str(path)).num_edges == 5


def test_parse_graph_spec_errors():
    with pytest.raises(ValueError):
        parse_graph_spec("dataset")
    with pytest.raises(ValueError):
        parse_graph_spec("rgg2d")


def test_cli_count(capsys):
    rc = main(["count", "--graph", "gnm:256:3", "--algorithm", "ditric", "-p", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "triangles" in out
    assert "bottleneck communication volume" in out


def test_cli_count_sequential(capsys):
    rc = main(["count", "--graph", "rmat:6", "--algorithm", "sequential"])
    assert rc == 0
    assert "triangles" in capsys.readouterr().out


def test_cli_lcc(capsys):
    rc = main(["lcc", "--graph", "gnm:128:3", "-p", "2"])
    assert rc == 0
    assert "mean LCC" in capsys.readouterr().out


def test_cli_sweep(capsys):
    rc = main(
        [
            "sweep",
            "--graph",
            "gnm:128:3",
            "--max-pes",
            "4",
            "--algorithms",
            "ditric,cetric",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "time [s]" in out
    assert "bottleneck communication volume" in out


def test_cli_datasets(capsys):
    rc = main(["datasets", "--scale", "0.05"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "live-journal" in out and "usa" in out


def test_cli_backends_reports_in_place_kernels(capsys):
    """The ``in-place`` column tells a ``csr_pairs`` backend from one
    that takes the gather fallback."""
    from backend_utils import register_pymerge

    register_pymerge()
    rc = main(["backends"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines[0].split() == ["backend", "status", "in-place"]
    rows = {line.split()[0]: line.split()[1:3] for line in lines[1:] if line.split()}
    assert rows["numpy"] == ["ok", "yes"]
    assert rows["pymerge"] == ["ok", "-"]


def test_cli_sweep_with_plot(capsys):
    rc = main(
        [
            "sweep",
            "--graph",
            "gnm:128:3",
            "--max-pes",
            "4",
            "--algorithms",
            "ditric,cetric",
            "--plot",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "log-log" in out
    assert "legend:" in out


def test_cli_verify(capsys):
    rc = main(
        ["verify", "--graph", "gnm:128:3", "-p", "3", "--algorithms", "ditric,cetric"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "oracle triangle count" in out
    assert out.count(": ok") == 2


def test_cli_types(capsys):
    rc = main(["types", "--graph", "rgg2d:256", "--min-pes", "2", "--max-pes", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "type1" in out and "local %" in out
    assert out.count("%") >= 3  # one row per p in {2, 4, 8}


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for sub in ("count", "lcc", "sweep", "types", "verify", "datasets"):
        assert sub in text
