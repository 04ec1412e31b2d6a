import numpy as np
import pytest

from saddlenet import catalog
from saddlenet.allocation import simulate_allocation
from saddlenet.consensus import simulate_consensus
from saddlenet.graphs import ring
from saddlenet.network import (AllocationNetworkSimulator,
                               ConsensusNetworkSimulator, Network)


def test_exchange_delivers_neighbor_payloads_in_order():
    net = Network(ring(4))
    payloads = ["p0", "p1", "p2", "p3"]
    boxes = net.exchange(payloads)
    # on the 4-ring vertex 0 neighbors 1 and 3
    assert list(boxes[0].keys()) == [1, 3]
    assert boxes[0][1] == "p1" and boxes[0][3] == "p3"
    assert list(boxes[2].keys()) == [1, 3]


def test_consensus_network_matches_stacked_ogda():
    prob = catalog.consensus_quadratics(n=5)
    sim = ConsensusNetworkSimulator(prob, method="OGDA")
    x_hist, v_hist = sim.run(300)
    trace = simulate_consensus(prob, "OGDA", max_iters=300, stop_tol=0.0)
    assert np.max(np.abs(x_hist - trace.x)) == 0.0
    assert np.max(np.abs(v_hist - trace.v)) == 0.0


def test_consensus_network_matches_stacked_eg():
    prob = catalog.consensus_quadratics(n=5)
    sim = ConsensusNetworkSimulator(prob, method="EG")
    x_hist, v_hist = sim.run(300)
    trace = simulate_consensus(prob, "EG", max_iters=300, stop_tol=0.0)
    assert np.max(np.abs(x_hist - trace.x)) == 0.0
    assert np.max(np.abs(v_hist - trace.v)) == 0.0


def test_allocation_network_matches_stacked_ogda():
    prob = catalog.allocation_quadratics()
    sim = AllocationNetworkSimulator(prob, method="OGDA")
    y_hist, a_hist, lam_hist = sim.run(300)
    trace = simulate_allocation(prob, "OGDA", max_iters=300, stop_tol=0.0)
    assert np.max(np.abs(y_hist - trace.y.reshape(y_hist.shape))) == 0.0
    assert np.max(np.abs(a_hist - trace.a)) == 0.0
    assert np.max(np.abs(lam_hist - trace.lam)) == 0.0


def test_allocation_network_matches_stacked_eg():
    prob = catalog.example2_allocation(seed=0)
    sim = AllocationNetworkSimulator(prob, method="EG")
    y_hist, a_hist, lam_hist = sim.run(200)
    trace = simulate_allocation(prob, "EG", max_iters=200, stop_tol=0.0)
    assert np.max(np.abs(y_hist - trace.y.reshape(y_hist.shape))) == 0.0
    assert np.max(np.abs(lam_hist - trace.lam)) == 0.0
    assert a_hist.shape[0] == 201


def test_network_history_row_zero_is_initial_state():
    prob = catalog.consensus_quadratics(n=5)
    x0 = np.full((5, 1), 1.0)
    v0 = np.full((5, 1), -0.5)
    sim = ConsensusNetworkSimulator(prob, method="OGDA", x0=x0, v0=v0)
    x_hist, v_hist = sim.run(5)
    assert np.array_equal(x_hist[0], x0)
    assert np.array_equal(v_hist[0], v0)
    assert x_hist.shape == (6, 5, 1)


def test_network_default_step_matches_stacked_default():
    prob = catalog.consensus_quadratics(n=5)
    sim = ConsensusNetworkSimulator(prob, method="OGDA")
    trace = simulate_consensus(prob, "OGDA", max_iters=1, stop_tol=0.0)
    assert sim.alpha == pytest.approx(trace.alpha, rel=0.0)


def test_network_converges_to_consensus():
    prob = catalog.consensus_quadratics(n=5)
    sim = ConsensusNetworkSimulator(prob, method="EG")
    x_hist, _ = sim.run(20000)
    assert np.max(np.abs(x_hist[-1] - 3.0)) <= 1e-3
