import time

import numpy as np
import pytest

from saddlenet.graphs import NetworkGraph, lambda_max, random_connected, ring


def test_ring3_laplacian():
    L = ring(3).laplacian()
    expect = np.array([[2.0, -1.0, -1.0],
                       [-1.0, 2.0, -1.0],
                       [-1.0, -1.0, 2.0]])
    assert np.array_equal(L, expect)


def test_ring4_row_sums_zero():
    L = ring(4).laplacian()
    assert np.allclose(L.sum(axis=1), 0.0)
    assert np.allclose(L, L.T)


def test_ring20_lambda_max():
    # cycle spectrum 2 - 2cos(2 pi k / n); the maximum over k at n = 20
    # sits at k = 10, giving exactly 4
    g = ring(20)
    val = lambda_max(g)
    eigs = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(20) / 20.0)
    assert val == pytest.approx(np.max(eigs), abs=1e-8)
    assert val == pytest.approx(4.0, abs=1e-8)


def test_lambda_max_matches_dense_eigenvalues():
    for n in (4, 7, 12):
        g = random_connected(n, 0.5, seed=n)
        dense = np.max(np.linalg.eigvalsh(g.laplacian()))
        assert lambda_max(g) == pytest.approx(dense, abs=1e-8)


def test_lambda_max_path_of_two():
    g = NetworkGraph(2, [(0, 1)])
    assert lambda_max(g) == pytest.approx(2.0, abs=1e-10)


def test_lambda_max_complete_three():
    assert lambda_max(ring(3)) == pytest.approx(3.0, abs=1e-10)


def test_lambda_max_gershgorin_bound():
    for seed in range(5):
        g = random_connected(8, 0.4, seed=seed)
        max_deg = int(np.max(np.diag(g.laplacian())))
        assert lambda_max(g) <= 2.0 * max_deg + 1e-9


def test_random_connected_full_probability_is_complete():
    n = 6
    g = random_connected(n, 1.0, seed=0)
    L = g.laplacian()
    assert np.allclose(np.diag(L), n - 1)
    assert lambda_max(g) == pytest.approx(float(n), abs=1e-9)


def test_random_connected_two_nodes():
    g = random_connected(2, 0.5, seed=1)
    assert np.array_equal(g.laplacian(), [[1.0, -1.0], [-1.0, 1.0]])


def test_random_connected_seed_determinism():
    g1 = random_connected(9, 0.3, seed=42)
    g2 = random_connected(9, 0.3, seed=42)
    assert g1.edges == g2.edges
    g3 = random_connected(9, 0.3, seed=43)
    assert np.all(np.abs(np.linalg.eigvalsh(g1.laplacian()))[1:] > 0)
    assert g3.n == 9


def test_random_connected_is_connected():
    for seed in range(8):
        g = random_connected(10, 0.15, seed=seed)
        assert g.fiedler_value() > 1e-12


def test_lap_apply_matches_dense_product():
    rng = np.random.default_rng(21)
    for seed in range(5):
        g = random_connected(7, 0.4, seed=seed)
        L = g.laplacian()
        for _ in range(10):
            u = rng.normal(size=(7, 3))
            assert np.allclose(g.lap_apply(u), L @ u, atol=1e-12)


def test_lap_apply_vanishes_on_consensus():
    g = ring(5)
    u = np.tile(np.array([2.0, -1.0]), (5, 1))
    assert np.allclose(g.lap_apply(u), 0.0)


def test_invalid_graphs_rejected():
    with pytest.raises(ValueError):
        NetworkGraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        NetworkGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        NetworkGraph(3, [(0, 1)])  # disconnected: node 2 isolated
    with pytest.raises(ValueError):
        NetworkGraph(4, [(0, 1), (2, 3)])  # two components, no isolated node


def test_lap_apply_keeps_infinities_at_low_degree_vertices():
    # on the path 0-1-2 vertex 0 has one neighbor fewer than vertex 1
    path = NetworkGraph(3, [(0, 1), (1, 2)])
    out = path.lap_apply(np.array([np.inf, 0.0, 0.0]))
    assert np.array_equal(out, [np.inf, -np.inf, 0.0])


def test_lap_apply_sums_onto_zeros():
    # -0.0 - 0.0 is -0.0 for every neighbour of vertex 0; summed onto a
    # zero, as the per-agent route does, the row is +0.0, not -0.0
    u = np.array([-0.0, 0.0, 0.0, 0.0])
    for graph in (ring(4), NetworkGraph(4, [(0, 1), (0, 2), (1, 3)])):
        out = graph.lap_apply(u)
        assert out[0] == 0.0 and not np.signbit(out[0])
    assert graph.lap_apply(np.stack([u, -u], axis=1)).tobytes() == np.stack(
        [graph.lap_apply(u), graph.lap_apply(-u)], axis=1).tobytes()
    single = NetworkGraph(1, [])
    assert not np.signbit(single.lap_apply(np.array([-0.0]))[0])


def test_ring_of_ten_thousand_builds_without_dense_matrices():
    # connectivity is a breadth-first search, so no n x n Laplacian is formed
    start = time.perf_counter()
    g = ring(10_000)
    out = g.lap_apply(np.ones(10_000))
    elapsed = time.perf_counter() - start
    assert np.array_equal(out, np.zeros(10_000))
    assert elapsed < 5.0, elapsed
