import re
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


def lap_top_eigenvalue(graph):
    return float(np.max(np.linalg.eigvalsh(graph.laplacian())))


def fiedler_value(graph):
    """Second-smallest Laplacian eigenvalue; positive iff connected."""
    vals = np.linalg.eigvalsh(graph.laplacian())
    return float(vals[1]) if graph.n > 1 else 0.0


@pytest.mark.parametrize("n", list(range(3, 13)) + [20, 200, 201])
def test_lambda_max_of_ring_is_certified(n):
    g = ring(n)
    val = lambda_max(g)
    assert lap_top_eigenvalue(g) <= val <= 2.0 * g.max_degree
    if n % 2 == 0:
        assert val == 4.0


def test_lambda_max_of_random_graphs_is_certified():
    for n, p, seed in [(2, 0.5, 0), (5, 0.3, 1), (9, 0.2, 2), (14, 0.6, 3),
                       (30, 0.1, 4), (60, 0.05, 5), (60, 1.0, 6)]:
        g = random_connected(n, p, seed)
        assert lap_top_eigenvalue(g) <= lambda_max(g) <= 2.0 * g.max_degree


def random_connected_loop(n, edge_prob, seed):
    """The pair loop `random_connected` replaced: one scalar draw per pair."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    edges = set()
    for k in range(1, n):
        attach = order[rng.integers(0, k)]
        edges.add((min(order[k], attach), max(order[k], attach)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.add((i, j))
    return NetworkGraph(n, edges)


def test_random_connected_edges_equal_the_pair_loop():
    for n in (2, 3, 7, 20, 61):
        for p in (0.05, 0.3, 1.0):
            for seed in (0, 1, 12345):
                want = random_connected_loop(n, p, seed).edges
                assert random_connected(n, p, seed).edges == want, (n, p, seed)


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
        assert fiedler_value(g) > 1e-12


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


def test_lap_apply_checks_the_vertex_axis_and_keeps_c_order():
    graph = ring(5)
    # the vertex axis is the only axis of a vector and axis -2 of rows
    for shape in ((4,), (6, 2), (), (5, 2, 4), (2, 5)):
        message = "u has shape {}, expected (5,) or (..., 5, c)".format(shape)
        with pytest.raises(ValueError, match=re.escape(message)):
            graph.lap_apply(np.zeros(shape))
    # sums over the result follow its memory order (np.linalg.norm
    # ravels in that order), so it comes back C-ordered like `u`
    for shape in ((5,), (5, 3), (2, 5, 4), (5, 0)):
        out = graph.lap_apply(np.arange(float(np.prod(shape))).reshape(shape))
        assert out.shape == shape and out.flags.c_contiguous


def test_ring_of_ten_thousand_builds_without_dense_matrices():
    # connectivity is a breadth-first search, so no n x n Laplacian is formed
    start = time.perf_counter()
    g = ring(10_000)
    out = g.lap_apply(np.ones(10_000))
    elapsed = time.perf_counter() - start
    assert np.array_equal(out, np.zeros(10_000))
    assert elapsed < 5.0, elapsed


@pytest.mark.parametrize("graph", [ring(5), NetworkGraph(4, [(0, 1), (1, 2),
                                                             (1, 3)])],
                         ids=["ring", "star"])
def test_bound_pass_writes_the_unbound_bits_into_fixed_buffers(graph):
    # a plan bound once to buffers by `pass_workspace` gives the bits of
    # the plan bound afresh for each pass, on one buffer and on a stack,
    # pass after pass, into whichever output each pass is given
    rng = np.random.default_rng(4)
    width = 2
    plan = graph.gather_plan((0, 3 * graph.n), width)
    size = 5 * graph.n
    for lead in [(), (3,)]:
        buf = np.empty(lead + (size,))
        outs = [np.empty(lead + (2 * graph.n * width,)) for _ in range(2)]
        bound = graph.pass_workspace(plan, buf)
        for out in outs + outs[:1]:
            flat = rng.normal(size=lead + (size,))
            flat[..., 1] = -0.0
            flat[..., 4] = np.inf
            buf[...] = flat
            with np.errstate(invalid="ignore"):
                want = graph.pass_workspace(plan, flat)(np.empty(out.shape))
                got = bound(out)
            assert got is out
            assert got.tobytes() == want.tobytes()


def test_pass_refuses_a_plan_past_the_buffer():
    # checked once, when a plan is bound to buffers
    graph = ring(4)
    fits, past = graph.gather_plan((0, 4), 1), graph.gather_plan((0, 8), 1)
    flat = np.zeros(8)
    assert graph.pass_workspace(fits, flat)(np.empty(8)).shape == (8,)
    with pytest.raises(IndexError, match="8 entries"):
        graph.pass_workspace(past, flat)
