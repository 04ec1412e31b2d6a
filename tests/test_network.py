import numpy as np
import pytest

from saddlenet import catalog, consensus
from saddlenet.allocation import (AllocationAgentSpec, AllocationProblem,
                                  simulate_allocation)
from saddlenet.consensus import (ConsensusAgentSpec, ConsensusProblem,
                                 simulate_consensus)
from saddlenet.core import ValidationError
from saddlenet.graphs import NetworkGraph, random_connected, ring
from saddlenet.network import (AllocationNetworkSimulator,
                               ConsensusNetworkSimulator, Network)
from saddlenet.sets import Ball, Box
from saddlenet.solvers import SolverConfig, run, step_bound


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


def test_consensus_on_ring_200_matches_stacked_ogda():
    # the step bound rests on lambda_max, which must be computable here
    prob = catalog.consensus_quadratics(n=200)
    x_hist, v_hist = ConsensusNetworkSimulator(prob, method="OGDA").run(100)
    trace = simulate_consensus(prob, "OGDA", max_iters=100, stop_tol=0.0)
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


@pytest.mark.parametrize("build, simulate, simulator, block, size", [
    (catalog.consensus_quadratics, simulate_consensus,
     ConsensusNetworkSimulator, "x0", 5),
    (catalog.consensus_quadratics, simulate_consensus,
     ConsensusNetworkSimulator, "v0", 5),
    (catalog.allocation_quadratics, simulate_allocation,
     AllocationNetworkSimulator, "y0", 3),
    (catalog.allocation_quadratics, simulate_allocation,
     AllocationNetworkSimulator, "a0", 3),
    (catalog.allocation_quadratics, simulate_allocation,
     AllocationNetworkSimulator, "lam0", 3),
])
def test_every_route_names_a_wrong_sized_start_block(build, simulate,
                                                     simulator, block, size):
    prob = build()
    message = "{} has 4 entries, expected {}".format(block, size)
    with pytest.raises(ValidationError, match=message):
        simulate(prob, "OGDA", max_iters=1, **{block: np.zeros(4)})
    with pytest.raises(ValidationError, match=message):
        simulator(prob, **{block: np.zeros(4)})


def test_network_default_step_matches_stacked_default():
    prob = catalog.consensus_quadratics(n=5)
    sim = ConsensusNetworkSimulator(prob, method="OGDA")
    trace = simulate_consensus(prob, "OGDA", max_iters=1, stop_tol=0.0)
    assert sim.alpha == pytest.approx(trace.alpha, rel=0.0)


@pytest.mark.parametrize("method", ["OGDA", "EG"])
def test_simulators_reject_an_inadmissible_step(method):
    cases = [(ConsensusNetworkSimulator, catalog.consensus_quadratics(n=5),
              "kappa_c"),
             (AllocationNetworkSimulator, catalog.allocation_quadratics(),
              "kappa_s")]
    for cls, prob, name in cases:
        above = 1.1 * step_bound(method, getattr(prob, name))
        for alpha, match in ((np.nan, name), (-0.1, "positive"),
                             (above, name)):
            with pytest.raises(ValidationError, match=match):
                cls(prob, method=method, alpha=alpha)


@pytest.mark.parametrize("method", ["OGDA", "EG"])
def test_one_agent_default_step_matches_stacked_default(method):
    # a linear objective on one vertex: kappa_c = 0 and no step bound
    prob = ConsensusProblem(NetworkGraph(1, []), 1, [ConsensusAgentSpec(
        lambda x: float(x[0]), lambda x: np.ones(1), Box(-1.0, 1.0, dim=1),
        0.0)])
    assert prob.kappa_c == 0.0
    sim = ConsensusNetworkSimulator(prob, method=method)
    trace = simulate_consensus(prob, method, max_iters=5, stop_tol=0.0)
    assert sim.alpha == trace.alpha == 1.0
    x_hist, v_hist = sim.run(5)
    assert np.array_equal(x_hist, trace.x) and np.array_equal(v_hist, trace.v)


def test_every_run_starts_from_the_start():
    sim = ConsensusNetworkSimulator(catalog.consensus_quadratics(n=5),
                                    method="OGDA")
    first = sim.run(10)
    second = sim.run(10)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


@pytest.mark.parametrize("iters", [True, 2.5, 3.0, -1, None])
def test_every_route_rejects_a_bad_iteration_budget(iters):
    cases = [(catalog.consensus_quadratics(n=5), ConsensusNetworkSimulator,
              simulate_consensus),
             (catalog.allocation_quadratics(), AllocationNetworkSimulator,
              simulate_allocation)]
    for prob, cls, simulate in cases:
        for method in ("OGDA", "EG"):
            with pytest.raises(ValidationError, match="iters"):
                cls(prob, method=method).run(iters)
            with pytest.raises(ValidationError, match="max_iters"):
                simulate(prob, method, max_iters=iters)
        with pytest.raises(ValidationError, match="record_every"):
            simulate(prob, "OGDA", max_iters=5, record_every=iters)


def test_simulators_accept_numpy_integer_budgets():
    prob = catalog.consensus_quadratics(n=5)
    x_hist, _ = ConsensusNetworkSimulator(prob).run(np.int64(3))
    assert x_hist.shape == (4, 5, 1)
    y_hist, _, _ = AllocationNetworkSimulator(
        catalog.allocation_quadratics()).run(np.int64(0))
    assert y_hist.shape == (1, 3)


def test_network_converges_to_consensus():
    prob = catalog.consensus_quadratics(n=5)
    sim = ConsensusNetworkSimulator(prob, method="EG")
    x_hist, _ = sim.run(20000)
    assert np.max(np.abs(x_hist[-1] - 3.0)) <= 1e-3


def quadratic_consensus(graph, m, seed):
    """Trackers ``|x - t_i|^2`` with binding sets and no vector oracles."""
    rng = np.random.default_rng(seed)
    agents = []
    for i in range(graph.n):
        t = rng.uniform(-3.0, 3.0, size=m)
        cset = (Ball(np.zeros(m), 1.5) if i == 1
                else Box(-1.0 - 0.5 * i, 1.0, dim=m))
        agents.append(ConsensusAgentSpec(
            lambda x, t=t: float(np.sum((x - t) ** 2)),
            lambda x, t=t: 2.0 * (x - t), cset, 2.0))
    return ConsensusProblem(graph, m, agents)


def mixed_allocation(graph, seed):
    """m = 2 with decision sizes 1, 2, 3 in turn and one ball agent set."""
    rng = np.random.default_rng(seed)
    agents = []
    for i in range(graph.n):
        q = 1 + i % 3
        t = rng.uniform(-3.0, 3.0, size=q)
        cset = Ball(np.full(q, 0.25), 1.0) if i == 1 else Box(-1.0, 1.0, dim=q)
        agents.append(AllocationAgentSpec(
            lambda y, t=t: float(0.5 * np.sum((y - t) ** 2)),
            lambda y, t=t: y - t, cset,
            rng.uniform(-1.0, 1.0, size=(2, q)),
            rng.uniform(-0.5, 0.5, size=2), 1.0))
    return AllocationProblem(graph, agents)


def consensus_deviation(prob, method, iters):
    x_hist, v_hist = ConsensusNetworkSimulator(prob, method=method).run(iters)
    trace = simulate_consensus(prob, method, max_iters=iters, stop_tol=0.0)
    return max(np.max(np.abs(x_hist - trace.x)),
               np.max(np.abs(v_hist - trace.v)))


def allocation_deviation(prob, method, iters):
    y_hist, a_hist, lam_hist = AllocationNetworkSimulator(
        prob, method=method).run(iters)
    trace = simulate_allocation(prob, method, max_iters=iters, stop_tol=0.0)
    return max(np.max(np.abs(y_hist - trace.y)),
               np.max(np.abs(a_hist - trace.a)),
               np.max(np.abs(lam_hist - trace.lam)))


@pytest.mark.parametrize("method", ["OGDA", "EG"])
def test_network_matches_stacked_on_irregular_graph(method):
    graph = random_connected(7, 0.3, seed=4)
    assert graph.degrees.min() < graph.max_degree
    assert consensus_deviation(quadratic_consensus(graph, 1, seed=1),
                               method, 300) == 0.0
    assert allocation_deviation(mixed_allocation(graph, seed=2),
                                method, 300) == 0.0


@pytest.mark.parametrize("method", ["OGDA", "EG"])
def test_allocation_network_matches_stacked_mixed_sizes(method):
    prob = mixed_allocation(ring(6), seed=3)
    assert prob.m == 2 and sorted(set(prob.q)) == [1, 2, 3]
    assert allocation_deviation(prob, method, 300) == 0.0


@pytest.mark.parametrize("method", ["OGDA", "EG"])
def test_consensus_network_matches_stacked_two_dims(method):
    prob = quadratic_consensus(ring(5), 2, seed=5)
    assert consensus_deviation(prob, method, 300) == 0.0


@pytest.mark.parametrize("kind", ["consensus", "allocation"])
@pytest.mark.parametrize("method", ["OGDA", "EG"])
def test_messages_travel_along_edges_with_2m_floats(kind, method,
                                                    monkeypatch):
    graph = random_connected(6, 0.3, seed=7)
    prob = (quadratic_consensus(graph, 2, 8) if kind == "consensus"
            else mixed_allocation(graph, 9))
    sim = simulator(prob, method)
    m = prob.m
    # the points published in each round, read off the bitwise-equal
    # stacked run: iterate k for OGDA; iterate k, then mid-point k + 1
    # for EG
    trace = stacked_trace(prob, method, 20)
    points = (trace.z[:-1] if method == "OGDA" else
              np.stack((trace.z[:-1], trace.z_half[1:]), axis=1)
              .reshape(40, -1))
    exchange = Network.exchange
    rounds = []

    def checked(net, payloads):
        z = points[len(rounds)]
        if kind == "consensus":
            x, v = (block.reshape(graph.n, m) for block in np.hsplit(z, 2))
            expect = np.concatenate([x + v, x], axis=1)
        else:
            _, a, lam = prob.split(z)
            expect = np.concatenate([lam, a + lam], axis=1)
        for j, payload in enumerate(payloads):
            assert isinstance(payload, np.ndarray)
            assert payload.dtype == np.float64 and payload.shape == (2 * m,)
            # computed from (x_j, v_j) resp. (a_j, lam_j) alone
            assert np.array_equal(payload, expect[j]), j
        inboxes = exchange(net, payloads)
        for i, box in enumerate(inboxes):
            assert list(box) == graph.neighbors[i]
            for j, payload in box.items():
                assert payload is payloads[j]
        rounds.append(len(inboxes))
        return inboxes

    monkeypatch.setattr(Network, "exchange", checked)
    sim.run(20)
    assert rounds == [graph.n] * (20 if method == "OGDA" else 40)


def stacked_trace(prob, method, iters):
    """The stacked run that `saddlenet verify` replays, every row recorded."""
    route = prob._route()
    return run(route.stacked(prob),
               SolverConfig(method, max_iters=iters, stop_tol=0.0),
               prob.start())


def simulator(prob, method):
    return prob._route().simulator(prob, method=method)


def serial_deviation(prob, method, iters):
    """Largest deviation of the serial per-agent run from the stacked run."""
    serial = simulator(prob, method)._history(iters)
    return np.max(np.abs(serial - stacked_trace(prob, method, iters).z))


REPLAY_CASES = {
    "consensus5": lambda: catalog.consensus_quadratics(n=5),
    "allocation3": catalog.allocation_quadratics,
    "example2": lambda: catalog.example2_allocation(seed=0),
    "mixed_allocation": lambda: mixed_allocation(ring(6), seed=3),
    "ball_consensus": lambda: quadratic_consensus(ring(5), 2, seed=5),
    # degrees 11 to 15: more neighbors than a pairwise sum's 8-term block
    "dense_consensus": lambda: quadratic_consensus(
        random_connected(16, 0.9, seed=0), 2, seed=6),
    "dense_allocation": lambda: mixed_allocation(
        random_connected(16, 0.9, seed=0), seed=7),
}


@pytest.mark.parametrize("method", ["OGDA", "EG"])
@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
def test_replay_reproduces_the_stacked_trace(case, method):
    prob = REPLAY_CASES[case]()
    assert simulator(prob, method).replay(
        stacked_trace(prob, method, 300)) == 0.0


def test_replay_exchanges_stacked_payloads_along_edges(monkeypatch):
    # one exchange per OGDA check, two per EG check, each payload a
    # (K, 2m) stack of one agent's rows
    graph = random_connected(6, 0.3, seed=7)
    prob = mixed_allocation(graph, 9)
    exchange = Network.exchange
    shapes = []

    def checked(net, payloads):
        inboxes = exchange(net, payloads)
        for i, box in enumerate(inboxes):
            assert list(box) == graph.neighbors[i]
        shapes.append({p.shape for p in payloads})
        return inboxes

    monkeypatch.setattr(Network, "exchange", checked)
    for method, rounds in (("OGDA", 1), ("EG", 2)):
        shapes.clear()
        assert simulator(prob, method).replay(
            stacked_trace(prob, method, 25)) == 0.0
        assert shapes == [{(25, 2 * prob.m)}] * rounds


def test_replay_rejects_a_trace_it_cannot_check():
    prob = catalog.consensus_quadratics(n=5)
    sim = ConsensusNetworkSimulator(prob, method="OGDA")
    with pytest.raises(ValueError):
        sim.replay(stacked_trace(prob, "EG", 10))
    stacked = consensus.as_saddle_problem(prob)
    z0 = prob.start()
    with pytest.raises(ValueError):
        sim.replay(run(stacked, SolverConfig("OGDA", step_size=0.5 * sim.alpha,
                                             max_iters=10, stop_tol=0.0), z0))
    with pytest.raises(ValueError):
        sim.replay(run(stacked, SolverConfig("OGDA", max_iters=10,
                                             stop_tol=0.0, record_every=2),
                       z0))


def test_replay_sees_a_different_start():
    prob = catalog.consensus_quadratics(n=5)
    trace = stacked_trace(prob, "OGDA", 10)
    sim = ConsensusNetworkSimulator(prob, method="OGDA",
                                    x0=np.full((5, 1), 0.5))
    assert sim.replay(trace) > 0.0


EXCHANGE = Network.exchange


def read_a_non_neighbor(net, payloads):
    # agent 0 also sums the payload of the first vertex it is not joined to
    inboxes = EXCHANGE(net, payloads)
    stranger = min(set(range(net.graph.n)) - set(net.graph.neighbors[0])
                   - {0})
    inboxes[0][stranger] = payloads[stranger]
    return inboxes


def sum_in_reverse(net, payloads):
    return [dict(reversed(box.items()))
            for box in EXCHANGE(net, payloads)]


@pytest.mark.parametrize("method", ["OGDA", "EG"])
@pytest.mark.parametrize("fault", [read_a_non_neighbor, sum_in_reverse])
def test_faulty_agents_fail_replay_and_serial_run(fault, method,
                                                  monkeypatch):
    # on the irregular graph a vertex of degree 3 or more makes the
    # order of its neighbor sum visible in the last bits
    graph = random_connected(7, 0.3, seed=4)
    assert graph.max_degree >= 3
    problems = [quadratic_consensus(graph, 1, seed=1),
                mixed_allocation(graph, seed=2)]
    traces = [stacked_trace(prob, method, 300) for prob in problems]
    monkeypatch.setattr(Network, "exchange", fault)
    for prob, trace in zip(problems, traces):
        assert simulator(prob, method).replay(trace) > 0.0
        assert serial_deviation(prob, method, 300) > 0.0


def scalar_gradient_allocation(q):
    """`mixed_allocation` on the 3-ring whose agent 1 (q_1 = `q`) returns
    its gradient as a scalar: the sum of the true gradient's entries."""
    prob = mixed_allocation(ring(3), seed=0)
    agents = list(prob.agents)
    t = np.linspace(-1.0, 1.0, q)
    agents[1] = AllocationAgentSpec(
        lambda y: float(0.5 * np.sum((y - t) ** 2)),
        lambda y: float(np.sum(y - t)), Box(-1.0, 1.0, dim=q),
        np.ones((2, q)), np.zeros(2), 1.0)
    return AllocationProblem(prob.graph, agents)


@pytest.mark.parametrize("method", ["OGDA", "EG"])
def test_wrong_sized_agent_gradient_raises_on_both_routes(method):
    # a scalar fills a q_i = 1 slot on both routes, as before ...
    prob = scalar_gradient_allocation(1)
    assert allocation_deviation(prob, method, 50) == 0.0
    assert simulator(prob, method).replay(
        stacked_trace(prob, method, 50)) == 0.0
    # ... but is not broadcast over a q_i = 2 slot on either route
    prob = scalar_gradient_allocation(2)
    with pytest.raises(ValidationError, match="AllocationAgentSpec.gradient"):
        AllocationNetworkSimulator(prob, method=method).run(3)
    with pytest.raises(ValidationError,
                       match="AllocationAgentSpec.gradient of agent 1"):
        simulate_allocation(prob, method, max_iters=3, stop_tol=0.0)
    with pytest.raises(ValidationError, match=r"shape \(\) where \(2,\)"):
        prob.gradient_rows(np.zeros((4, prob.dim_y)))
