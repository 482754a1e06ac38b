"""Integration tests: every engine variant against sequential truth."""

import pytest

from repro.analysis.runner import ALGORITHMS
from repro.core.edge_iterator import edge_iterator
from repro.core.engine import CONFIGS, EngineConfig, counting_program
from repro.faults.chaos import CHAOS_ALGORITHMS
from repro.graphs import distribute
from repro.graphs import generators as gen
from repro.net import Machine


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_all_variants_correct_on_known(config_name, p, known_graph):
    label, g, expected = known_graph
    dist = distribute(g, num_pes=p)
    res = Machine(p).run(counting_program, dist, CONFIGS[config_name])
    assert res.values[0].triangles_total == expected, label
    # All PEs agree on the reduced total.
    assert len({v.triangles_total for v in res.values}) == 1


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("p", [2, 4, 7])
def test_all_variants_correct_on_random(config_name, p, random_graph):
    truth = edge_iterator(random_graph).triangles
    dist = distribute(random_graph, num_pes=p)
    res = Machine(p).run(counting_program, dist, CONFIGS[config_name])
    assert res.values[0].triangles_total == truth


def test_local_plus_remote_equals_total():
    g = gen.gnm(200, 1200, seed=5)
    truth = edge_iterator(g).triangles
    dist = distribute(g, num_pes=4)
    res = Machine(4).run(counting_program, dist, EngineConfig())
    assert sum(v.local_count + v.remote_count for v in res.values) == truth


def test_cetric_finds_type12_locally():
    """On a partition-aligned clique graph the global phase is empty."""
    g = gen.disjoint_cliques(4, 6)
    dist = distribute(g, num_pes=4)
    res = Machine(4).run(counting_program, dist, EngineConfig(contraction=True))
    assert res.values[0].triangles_total == 4 * 20
    for v in res.values:
        assert v.remote_count == 0
        assert v.records_sent == 0
    # And no neighborhood traffic at all (degree exchange only).
    assert res.metrics.total_volume <= 4 * 4 * 4  # tiny control traffic


def test_ditric_needs_messages_where_cetric_does_not():
    """Type-2 triangles straddling a boundary: DITRIC ships, CETRIC not."""
    # Path of triangles crossing the partition boundary.
    g = gen.triangular_lattice(4, 8)
    dist = distribute(g, num_pes=2)
    truth = edge_iterator(g).triangles
    r_dit = Machine(2).run(counting_program, dist, EngineConfig())
    r_cet = Machine(2).run(counting_program, dist, EngineConfig(contraction=True))
    assert r_dit.values[0].triangles_total == truth
    assert r_cet.values[0].triangles_total == truth
    assert sum(v.remote_count for v in r_cet.values) <= sum(
        v.remote_count for v in r_dit.values
    )


def test_contraction_reduces_bottleneck_volume_on_local_graph():
    g = gen.rgg2d(2000, expected_edges=24000, seed=7)
    p = 8
    dist = distribute(g, num_pes=p)
    vol_d = Machine(p).run(counting_program, dist, EngineConfig()).metrics.bottleneck_volume
    vol_c = Machine(p).run(
        counting_program, dist, EngineConfig(contraction=True)
    ).metrics.bottleneck_volume
    assert vol_c < vol_d


def test_contraction_costs_more_local_work():
    g = gen.gnm(1000, 16000, seed=8)
    p = 8
    dist = distribute(g, num_pes=p)
    ops_d = Machine(p).run(counting_program, dist, EngineConfig()).metrics.total_ops
    ops_c = Machine(p).run(
        counting_program, dist, EngineConfig(contraction=True)
    ).metrics.total_ops
    assert ops_c > ops_d


def test_aggregation_reduces_message_count():
    g = gen.gnm(600, 6000, seed=9)
    p = 8
    dist = distribute(g, num_pes=p)
    none = Machine(p).run(
        counting_program, dist, EngineConfig(aggregate=False, surrogate=False)
    )
    aggr = Machine(p).run(
        counting_program, dist, EngineConfig(aggregate=True, surrogate=False)
    )
    assert aggr.metrics.max_messages_sent < none.metrics.max_messages_sent / 3
    assert aggr.metrics.makespan < none.metrics.makespan


def test_surrogate_reduces_volume():
    g = gen.gnm(600, 6000, seed=10)
    p = 8
    dist = distribute(g, num_pes=p)
    no_sur = Machine(p).run(
        counting_program, dist, EngineConfig(aggregate=True, surrogate=False)
    )
    sur = Machine(p).run(counting_program, dist, EngineConfig())
    assert sur.metrics.total_volume < no_sur.metrics.total_volume


def test_threshold_keeps_buffer_linear():
    g = gen.gnm(600, 6000, seed=11)
    p = 4
    dist = distribute(g, num_pes=p)
    res = Machine(p).run(
        counting_program, dist, EngineConfig(threshold_factor=0.5)
    )
    max_arcs = max(v.num_local_arcs for v in dist.views)
    # High-water mark bounded by delta + one record.
    assert res.metrics.max_peak_buffer_words <= int(0.5 * max_arcs) + g.max_degree() + 3


def test_phase_labels_present():
    g = gen.gnm(200, 1000, seed=12)
    dist = distribute(g, num_pes=2)
    res = Machine(2).run(counting_program, dist, EngineConfig(contraction=True))
    phases = res.metrics.phase_breakdown()
    assert set(phases) >= {"preprocessing", "local", "contraction", "global"}


def test_config_threshold_words():
    cfg = EngineConfig(threshold_factor=2.0)
    assert cfg.threshold_words(1000) == 2000
    assert EngineConfig(aggregate=False).threshold_words(1000) == 0
    assert cfg.threshold_words(0) >= 16


def test_algorithm_names_come_from_configs():
    assert ALGORITHMS == ("sequential", *CONFIGS, "tric", "havoqgt")
    assert set(CHAOS_ALGORITHMS) <= set(CONFIGS)


def test_more_pes_than_vertices():
    g = gen.complete_graph(5)
    dist = distribute(g, num_pes=9)
    res = Machine(9).run(counting_program, dist, EngineConfig(contraction=True))
    assert res.values[0].triangles_total == 10


def test_empty_graph_all_variants():
    from repro.graphs import empty_graph

    g = empty_graph(10)
    dist = distribute(g, num_pes=3)
    for cfg in CONFIGS.values():
        res = Machine(3).run(counting_program, dist, cfg)
        assert res.values[0].triangles_total == 0
