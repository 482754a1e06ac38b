"""Tests for the KaGen-equivalent generators and classic families."""

import hashlib

import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.datasets import DATASET_NAMES, dataset
from repro.graphs.generators.gnm import _decode_pairs, random_edge_sample
from repro.graphs.generators.rgg import radius_for_expected_edges
from repro.graphs.generators.rhg import disk_radius_for_avg_degree, hyperbolic_distance


# ---------------------------------------------------------------- classics
def test_complete_graph_counts():
    g = gen.complete_graph(6)
    assert g.num_edges == 15
    assert np.all(g.degrees == 5)


def test_ring_and_path_degrees():
    assert np.all(gen.ring(8).degrees == 2)
    p = gen.path(5)
    assert sorted(p.degrees.tolist()) == [1, 1, 2, 2, 2]


def test_ring_requires_three():
    with pytest.raises(ValueError):
        gen.ring(2)


def test_star_structure():
    g = gen.star(9)
    assert g.degree(0) == 8
    assert np.all(g.degrees[1:] == 1)


def test_grid2d_edge_count():
    g = gen.grid2d(4, 7)
    assert g.num_edges == 4 * 6 + 3 * 7


def test_triangular_lattice_edge_count():
    g = gen.triangular_lattice(3, 3)
    assert g.num_edges == (3 * 2 + 2 * 3) + 4  # grid + diagonals


def test_barbell_structure():
    g = gen.barbell(4, 1)
    assert g.num_vertices == 9
    # 2 * C(4,2) + 2 bridge edges
    assert g.num_edges == 12 + 2


def test_disjoint_cliques_no_cross_edges():
    g = gen.disjoint_cliques(3, 4)
    e = g.undirected_edges()
    assert np.all(e[:, 0] // 4 == e[:, 1] // 4)


def test_wheel_structure():
    g = gen.wheel(7)
    assert g.degree(0) == 6
    assert np.all(g.degrees[1:] == 3)


# ---------------------------------------------------------------- gnm
def test_gnm_exact_edge_count():
    for n, m in ((10, 0), (10, 45), (100, 500), (50, 600)):
        g = gen.gnm(n, m, seed=7)
        assert g.num_vertices == n
        assert g.num_edges == m


def test_gnm_rejects_too_many_edges():
    with pytest.raises(ValueError):
        gen.gnm(5, 11)


def test_gnm_deterministic():
    a = gen.gnm(200, 900, seed=3)
    b = gen.gnm(200, 900, seed=3)
    assert np.array_equal(a.adjncy, b.adjncy)
    c = gen.gnm(200, 900, seed=4)
    assert not np.array_equal(a.adjncy, c.adjncy)


def test_decode_pairs_roundtrip():
    n = 37
    codes = np.arange(n * (n - 1) // 2, dtype=np.int64)
    pairs = _decode_pairs(codes, n)
    assert np.all(pairs[:, 0] < pairs[:, 1])
    # Re-encode and compare.
    u, v = pairs[:, 0], pairs[:, 1]
    re = u * n - u * (u + 1) // 2 + (v - u - 1)
    assert np.array_equal(re, codes)


def test_random_edge_sample_distinct(rng):
    e = random_edge_sample(30, 200, rng)
    assert e.shape == (200, 2)
    keys = e[:, 0] * 30 + e[:, 1]
    assert np.unique(keys).size == 200


def test_gnm_dense_regime():
    n = 20
    total = n * (n - 1) // 2
    g = gen.gnm(n, total - 3, seed=5)
    assert g.num_edges == total - 3


# ---------------------------------------------------------------- rgg2d
def test_rgg_radius_formula():
    r = radius_for_expected_edges(1000, 16000)
    assert 0 < r < 1
    # E[m] = C(n,2) * pi r^2 should give back about 16000
    est = 1000 * 999 / 2 * np.pi * r * r
    assert abs(est - 16000) < 1


def test_rgg_expected_edges_close():
    n = 2000
    g = gen.rgg2d(n, expected_edges=16 * n, seed=21)
    # Boundary effects reduce the count slightly; stay within 25 %.
    assert 0.7 * 16 * n < g.num_edges < 1.1 * 16 * n


def test_rgg_edges_respect_radius():
    n = 300
    r = 0.1
    g = gen.rgg2d(n, radius=r, seed=5)
    # Reconstruct points with the same seed and checks.
    rng = np.random.default_rng(5)
    pts = rng.random((n, 2))
    cells = max(1, int(1.0 / r))
    cell_xy = np.minimum((pts * cells).astype(np.int64), cells - 1)
    cell_id = cell_xy[:, 0] * cells + cell_xy[:, 1]
    pts = pts[np.argsort(cell_id, kind="stable")]
    for u, v in g.undirected_edges()[:200]:
        d = np.hypot(*(pts[u] - pts[v]))
        assert d <= r + 1e-12


def test_rgg_zero_radius_and_empty():
    assert gen.rgg2d(10, radius=0.0).num_edges == 0
    assert gen.rgg2d(0, radius=0.5).num_vertices == 0


def test_rgg_requires_exactly_one_size_parameter():
    with pytest.raises(ValueError):
        gen.rgg2d(10)
    with pytest.raises(ValueError):
        gen.rgg2d(10, radius=0.1, expected_edges=50)


def test_rgg_id_locality():
    """Cell-major ids: most edges connect nearby ids (small cut)."""
    n = 2000
    g = gen.rgg2d(n, expected_edges=16 * n, seed=3)
    e = g.undirected_edges()
    med = np.median(np.abs(e[:, 0] - e[:, 1]))
    assert med < n / 10


# ---------------------------------------------------------------- rhg
def test_rhg_disk_radius_monotone():
    r1 = disk_radius_for_avg_degree(10000, 8, 0.9)
    r2 = disk_radius_for_avg_degree(10000, 32, 0.9)
    assert r1 > r2 > 0


def test_rhg_rejects_bad_alpha():
    with pytest.raises(ValueError):
        disk_radius_for_avg_degree(100, 8, 0.5)


def test_hyperbolic_distance_symmetry_and_zero():
    r = np.array([1.0, 2.0])
    t = np.array([0.3, 4.0])
    assert np.allclose(
        hyperbolic_distance(r[0], t[0], r[1], t[1]),
        hyperbolic_distance(r[1], t[1], r[0], t[0]),
    )
    self_d = hyperbolic_distance(np.array(1.5), np.array(2.0), np.array(1.5), np.array(2.0))
    assert self_d == pytest.approx(0.0, abs=1e-6)


def test_rhg_average_degree_in_range():
    n = 4000
    g = gen.rhg(n, avg_degree=16, gamma=2.8, seed=8)
    avg = 2 * g.num_edges / n
    assert 8 < avg < 32  # the analytic radius is approximate


def test_rhg_power_law_tail():
    """Heavy tail: the max degree should far exceed the average."""
    n = 4000
    g = gen.rhg(n, avg_degree=12, gamma=2.8, seed=9)
    avg = 2 * g.num_edges / n
    assert g.max_degree() > 6 * avg


def test_rhg_small_and_deterministic():
    assert gen.rhg(1, avg_degree=4).num_vertices == 1
    a = gen.rhg(300, avg_degree=8, seed=2)
    b = gen.rhg(300, avg_degree=8, seed=2)
    assert np.array_equal(a.adjncy, b.adjncy)


# ---------------------------------------------------------------- rmat
def test_rmat_sizes():
    g = gen.rmat(8, 8, seed=1)
    assert g.num_vertices == 256
    # Simplification removes duplicates/self-loops; stay in range.
    assert 0.5 * 8 * 256 < g.num_edges <= 8 * 256


def test_rmat_skewed_degrees():
    g = gen.rmat(11, 16, seed=2)
    avg = 2 * g.num_edges / g.num_vertices
    assert g.max_degree() > 8 * avg


def test_rmat_deterministic_and_seed_sensitivity():
    a = gen.rmat(8, 8, seed=3)
    b = gen.rmat(8, 8, seed=3)
    c = gen.rmat(8, 8, seed=4)
    assert np.array_equal(a.adjncy, b.adjncy)
    assert not np.array_equal(a.adjncy, c.adjncy)


def test_rmat_scale_zero():
    g = gen.rmat(0, 4, seed=1)
    assert g.num_vertices == 1
    assert g.num_edges == 0


def test_rmat_rejects_bad_probs():
    with pytest.raises(ValueError):
        gen.rmat(4, 4, probs=(0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        gen.rmat(-1, 4)


def test_rmat_no_scramble_is_different_labelling():
    a = gen.rmat(8, 8, seed=5, scramble=False)
    b = gen.rmat(8, 8, seed=5, scramble=True)
    assert a.num_edges == pytest.approx(b.num_edges, rel=0.2)


# ---------------------------------------------------------------- rgg3d
def test_rgg3d_expected_edges_close():
    n = 3000
    g = gen.rgg3d(n, expected_edges=16 * n, seed=21)
    assert 0.6 * 16 * n < g.num_edges < 1.15 * 16 * n


def test_rgg3d_matches_brute_force():
    """Cell-sweep output equals the quadratic check on a small instance."""
    n, r = 150, 0.22
    g = gen.rgg3d(n, radius=r, seed=8)
    rng = np.random.default_rng(8)
    pts = rng.random((n, 3))
    cells = max(1, int(1.0 / r))
    cell_xyz = np.minimum((pts * cells).astype(np.int64), cells - 1)
    cell_id = (cell_xyz[:, 0] * cells + cell_xyz[:, 1]) * cells + cell_xyz[:, 2]
    pts = pts[np.argsort(cell_id, kind="stable")]
    expected = 0
    for i in range(n):
        d = pts[i + 1 :] - pts[i]
        expected += int(np.count_nonzero((d * d).sum(axis=1) <= r * r))
    assert g.num_edges == expected


def test_rgg3d_deterministic_and_validated():
    a = gen.rgg3d(400, expected_edges=3000, seed=3)
    b = gen.rgg3d(400, expected_edges=3000, seed=3)
    assert np.array_equal(a.adjncy, b.adjncy)
    assert gen.rgg3d(0, radius=0.5).num_vertices == 0
    with pytest.raises(ValueError):
        gen.rgg3d(10)


def test_rgg3d_radius_formula():
    n, m = 2000, 32000
    from repro.graphs.generators.rgg import radius_for_expected_edges_3d

    r = radius_for_expected_edges_3d(n, m)
    est = n * (n - 1) / 2 * 4.0 / 3.0 * np.pi * r**3
    assert est == pytest.approx(m, rel=1e-6)


def test_rgg3d_id_locality():
    n = 2000
    g = gen.rgg3d(n, expected_edges=16 * n, seed=5)
    e = g.undirected_edges()
    med = np.median(np.abs(e[:, 0] - e[:, 1]))
    assert med < n / 6


# ------------------------------------------------------- golden CSR digests
# sha256(xadj.tobytes() + adjncy.tobytes()) of every generator (two
# sizes or seeds each) and every synthetic dataset stand-in (two seeds).
# The digests pin the exact CSR arrays, so any rewrite of the builders
# or generators must reproduce them bit for bit.  ``gnm-*`` also pins
# the rejection loop's ``rng.choice`` over the sorted code set, and
# ``gnm-dense-*`` the dense sampling branch.
_GOLDEN_CASES = {
    "complete_graph-9": lambda: gen.complete_graph(9),
    "complete_graph-17": lambda: gen.complete_graph(17),
    "ring-12": lambda: gen.ring(12),
    "ring-31": lambda: gen.ring(31),
    "star-10": lambda: gen.star(10),
    "star-33": lambda: gen.star(33),
    "path-7": lambda: gen.path(7),
    "path-40": lambda: gen.path(40),
    "grid2d-5x6": lambda: gen.grid2d(5, 6),
    "grid2d-9x4": lambda: gen.grid2d(9, 4),
    "triangular_lattice-4x5": lambda: gen.triangular_lattice(4, 5),
    "triangular_lattice-7x3": lambda: gen.triangular_lattice(7, 3),
    "barbell-5-2": lambda: gen.barbell(5, 2),
    "barbell-7-0": lambda: gen.barbell(7, 0),
    "disjoint_cliques-3x5": lambda: gen.disjoint_cliques(3, 5),
    "disjoint_cliques-6x4": lambda: gen.disjoint_cliques(6, 4),
    "wheel-8": lambda: gen.wheel(8),
    "wheel-21": lambda: gen.wheel(21),
}
for _s in (0, 1):
    _GOLDEN_CASES.update({
        f"rmat-s{_s}": lambda s=_s: gen.rmat(10, seed=s),
        f"rmat-noscramble-s{_s}": lambda s=_s: gen.rmat(8, 8, scramble=False, noise=0.0, seed=s),
        f"gnm-s{_s}": lambda s=_s: gen.gnm(1000, 8000, seed=s),
        f"gnm-dense-s{_s}": lambda s=_s: gen.gnm(40, 600, seed=s),
        f"rgg2d-s{_s}": lambda s=_s: gen.rgg2d(2048, expected_edges=16 * 2048, seed=s),
        f"rgg3d-s{_s}": lambda s=_s: gen.rgg3d(2048, expected_edges=16 * 2048, seed=s),
        f"rhg-s{_s}": lambda s=_s: gen.rhg(1500, avg_degree=16.0, seed=s),
    })
for _name in DATASET_NAMES:
    for _s in (1, 2):
        _GOLDEN_CASES[f"dataset-{_name}-s{_s}"] = (
            lambda name=_name, s=_s: dataset(name, scale=0.1, seed=s)
        )

_GOLDEN_DIGESTS = {
    "complete_graph-9": "9daa7c8bef7bc5292bab96bf7fb1cfcc4ef2c4abf4b6717fbe057ceca751e3a3",
    "complete_graph-17": "9fed5198eea44614e56a7f672afd9eb27599df356f6a11df56dd284ebdfacfc8",
    "ring-12": "6542c84120d513feaf59ab8859e48a9303c6f395b4489e19aa700a444efdfc95",
    "ring-31": "8dc2159bff9b19cfffb8fc17135940e658d5074d9d405c6439fc014188c8324d",
    "star-10": "aee8cc66eb67b263e8d942759c508675a79337cca30105d611df975f3428a876",
    "star-33": "ac9b704a726909131197490d81b00012bdbc5ccc13586cd4f4adee016cfeeb76",
    "path-7": "b116a5f7342c1c8a53d747cb67afa4ca2f8861bf03368a1ef3b77f32f6f4eed5",
    "path-40": "a7c72d3fd2bc6d2a2e79ef469b0a42f2705939f39c7651f6e4a7a92731447372",
    "grid2d-5x6": "094c049a13fefe4f2ef4ae2e518fa2aa2947d3e176cf611ca38715ecc80fa18d",
    "grid2d-9x4": "9f588b680717432cd8d7289c0ab13d5f3e5d9894d894202ec32a6c802a720eed",
    "triangular_lattice-4x5": "e7ec0fe8054573cc7001b7e1323382e1cea2101d49f2425d34fbf60d24b61f67",
    "triangular_lattice-7x3": "5dbc5dd5e55781b2f788381b6373d6e3f32d1e540912f1ab97417ee22b554be6",
    "barbell-5-2": "9cc646454c48c2d467dbdc98b4eb5373d5aa2873bc79d940dc0c48be37247a50",
    "barbell-7-0": "f3435db5b663515274887eda02a4e236fd640b8f6c59f9e14a879381404d9cdc",
    "disjoint_cliques-3x5": "d28ef9e654a6482f220fade2968a961739d623921be4bda848d1f0b20f186a6f",
    "disjoint_cliques-6x4": "0b27d0e315baeefc682f5b0c01f68b1d1eaddd1b30c6a30ff1cc133940c1c506",
    "wheel-8": "df96ee702ad69f2734d46dfec1dc820f6c070f93a64ec666415fe83a5e86cd64",
    "wheel-21": "fd5fba9d29aff07d1c3f169847681719864a8784c26b4aa500dc75a7a7b57c2b",
    "rmat-s0": "4461ff9f22324552b619ad8a757a6470699c9c204dfa57ec2193a172e3d74d39",
    "rmat-noscramble-s0": "7bfc7c14a1887bc2487720145b9a20077f47d6ed0cc38d3c338663e8f14331fb",
    "gnm-s0": "544c6253b863af2bf15cda7f20e4f54a7476bb1c537511af77e40c9a2171d768",
    "gnm-dense-s0": "a4a2fbc7c378a48e7b6e4e422617c99ff7c9085f858860a28c798ff63c51365f",
    "rgg2d-s0": "2b1682963d00c840aefc42f4bd150be7ddb52e95b775f98c5ff3762de150e24f",
    "rgg3d-s0": "3fb958c34eb7e18a3f4d8a0c4c1ca357b95130bf603ebac71f90e886cdfb1d98",
    "rhg-s0": "4907dd853911f634d268ce9ab79d512417f6df0c3241555cf25d2164a8b165b2",
    "rmat-s1": "ce850714df82cae934d467ac03365cf01aecfa24200c7161e9d8fb2ebfbc113d",
    "rmat-noscramble-s1": "878ea9fcc5bfef137a5d621b75043945fa1f5ec7802a34da52d0085ae0f3c6b8",
    "gnm-s1": "388d0b2f436b9e11ae0b0af652679c131b310eed7ebab69fa95d49ed4e83d12b",
    "gnm-dense-s1": "b5a09c393a3b0ff71e3be3108d9bea8f6e6f44e26be9d310e6fcc9e3cf9f0f98",
    "rgg2d-s1": "abb3b8c27f5252f268c88fbd3ad41703fd42ecfbc375dd6a60f3d29d8c3db7aa",
    "rgg3d-s1": "5c44842ea0e7bdf179ef9a0cf2913a9d0073563b54981413860ba9fca3eca1d2",
    "rhg-s1": "43f45c447b0bb077c5a257f9a14195d80faf6423d1a31d233d7d402ca45d97d7",
    "dataset-live-journal-s1": "0d4d43256aa41066b4b23510dda6812329f44255747779ab7e17abbc595e7913",
    "dataset-live-journal-s2": "bf9934c0a9288467abe75d0116c8d34aa6bb33d218a1eebf3173518868ba9b42",
    "dataset-orkut-s1": "5807d1cc09c22ca515a6d3f0c55ef1e13ecc72a8d974aa7c61e77c7cf0829c40",
    "dataset-orkut-s2": "96ed839bf0ccf485e7742c50915788f572b9d20576ccd9136ef366ef6c7292af",
    "dataset-twitter-s1": "28c8756f1718dd1d1c09d0aef4b8e06761420991b2f9b774adcf8b97273e756e",
    "dataset-twitter-s2": "d981e424365087902008c131b6b8e6307185c0c4e35e635e073f2c80ac9fd705",
    "dataset-friendster-s1": "699b37d61b5a1e031a38db6b377390fece0bf489c2220925ae97500160a7f41a",
    "dataset-friendster-s2": "b14554fc548ab71a3d80de5da82f1d3da5c27745550399f7e6729e1b7dd4ef40",
    "dataset-uk-2007-05-s1": "b2164780f3f3c91681dfadb99c198b5d0c9ad5df0f4b8b418f7e72dda849a96b",
    "dataset-uk-2007-05-s2": "eb93ecb058cdcf1ee7f42c1f59365b7e45446b2ab6918d2305bf4c62be6faa1a",
    "dataset-webbase-2001-s1": "7cd1da95403cf7bb6d628540078a5d8bafd1e196badcaff3ee3fd76beda1215f",
    "dataset-webbase-2001-s2": "cd459e4cb949c30e2e860468da897bcc36db55628204d43070918e6ca54ed3bc",
    "dataset-europe-s1": "85fc5e8450063d70e34af3f3f4c66a8cfa622d2000783bd6a325e9c6e96d7bd6",
    "dataset-europe-s2": "896fd6ebe023644e3f02f7c199600b89b3d0711588812e7cb47e6c5276903cb5",
    "dataset-usa-s1": "14a7719d89adc67606bf95121f65c0f896d0911c42362552dc67832381b2260e",
    "dataset-usa-s2": "6ebe634cc853fcc402838bec3a92525c961068ce393fe0e0639b9189a6aba6e7",
}


def test_golden_cases_cover_every_generator():
    graph_makers = {
        name for name in gen.__all__
        if callable(getattr(gen, name))
        and not name.startswith(("radius_for", "disk_radius"))
    }
    covered = {key.split("-")[0] for key in _GOLDEN_CASES}
    assert graph_makers <= covered
    assert set(_GOLDEN_CASES) == set(_GOLDEN_DIGESTS)


@pytest.mark.parametrize("case", sorted(_GOLDEN_DIGESTS))
def test_generator_csr_matches_golden_digest(case):
    g = _GOLDEN_CASES[case]()
    assert g.xadj.dtype == np.int64 and g.adjncy.dtype == np.int64
    digest = hashlib.sha256(g.xadj.tobytes() + g.adjncy.tobytes()).hexdigest()
    assert digest == _GOLDEN_DIGESTS[case]
