import numpy as np
import pytest

from saddlenet import catalog
from saddlenet.allocation import (AllocationAgentSpec, AllocationProblem,
                                  as_saddle_problem, feasibility_gap,
                                  initial_state, lagrangian_L2, operator_psi,
                                  simulate_allocation, step_allocation_eg,
                                  step_allocation_ogda)
from saddlenet.core import ValidationError, operator_F
from saddlenet.graphs import NetworkGraph, lambda_max, ring
from saddlenet.sets import Box


def zero_agents(n, demand=0.0):
    return [AllocationAgentSpec(
        objective=lambda y: 0.0,
        gradient=lambda y: np.zeros(y.shape),
        cset=Box(-10.0, 10.0, dim=1),
        weight=np.array([[1.0]]),
        demand=np.array([demand]),
        lipschitz=0.0) for _ in range(n)]


def path2_problem():
    return AllocationProblem(NetworkGraph(2, [(0, 1)]), zero_agents(2))


def test_lagrangian_zero_multiplier():
    prob = catalog.allocation_quadratics()
    y = np.array([[1.0], [2.0], [3.0]])
    a = np.zeros((3, 1))
    lam = np.zeros((3, 1))
    assert lagrangian_L2(prob, y, a, lam) == pytest.approx(0.0, abs=1e-15)


def test_lagrangian_consensus_multiplier_feasible_point():
    prob = catalog.allocation_quadratics()
    # sum of y matches total demand 0, lambda in consensus
    y = np.array([[-1.0], [0.0], [1.0]])
    a = np.zeros((3, 1))
    lam = np.full((3, 1), 2.0)
    expect = sum(0.5 * (yv - c) ** 2
                 for yv, c in zip([-1.0, 0.0, 1.0], [1.0, 2.0, 3.0]))
    assert lagrangian_L2(prob, y, a, lam) == pytest.approx(expect, abs=1e-12)


def test_lagrangian_path_hand_value():
    prob = path2_problem()
    y = np.array([[1.0], [-1.0]])
    a = np.zeros((2, 1))
    lam = np.array([[1.0], [0.0]])
    assert lagrangian_L2(prob, y, a, lam) == pytest.approx(0.5, abs=1e-15)


def test_operator_zero_gradients_and_multiplier():
    prob = path2_problem()
    y = np.array([[1.0], [2.0]])
    a = np.zeros((2, 1))
    lam = np.zeros((2, 1))
    rows = operator_psi(prob, y, a, lam)
    assert np.allclose(rows[:2], 0.0, atol=1e-15)
    assert np.allclose(rows[2:4], 0.0, atol=1e-15)
    # last block is -(Wy - d)
    assert np.allclose(rows[4:], [-1.0, -2.0], atol=1e-15)


def test_operator_matches_generic_saddle_operator():
    prob = catalog.allocation_quadratics()
    saddle = as_saddle_problem(prob)
    rng = np.random.default_rng(23)
    for _ in range(100):
        y = rng.uniform(-10.0, 10.0, size=(3, 1))
        a = rng.normal(scale=3.0, size=(3, 1))
        lam = rng.normal(scale=3.0, size=(3, 1))
        z = np.concatenate([y.ravel(), a.ravel(), lam.ravel()])
        direct = operator_psi(prob, y, a, lam)
        generic = operator_F(saddle, z)
        assert np.max(np.abs(direct - generic)) <= 1e-12


def test_feasibility_gap_values():
    prob = path2_problem()
    assert feasibility_gap(prob, np.array([[1.0], [-1.0]])) == 0.0
    assert feasibility_gap(prob, np.array([[1.0], [1.0]])) == pytest.approx(2.0)


def test_steps_preserve_certified_kkt_point():
    from saddlenet.oracle import solve_allocation_kkt
    prob = catalog.allocation_quadratics()
    ref = solve_allocation_kkt(prob)
    alpha = 0.4 / prob.kappa_s
    for step in (step_allocation_ogda, step_allocation_eg):
        state = initial_state(prob, ref.y, ref.a, ref.lam)
        nxt = step(prob, state, alpha)
        assert np.max(np.abs(nxt.y - ref.y)) <= 1e-12
        assert np.max(np.abs(nxt.a - ref.a)) <= 1e-12
        assert np.max(np.abs(nxt.lam - ref.lam)) <= 1e-12


def test_stacked_matches_generic_solver():
    from saddlenet.solvers import SolverConfig, run
    prob = catalog.allocation_quadratics()
    saddle = as_saddle_problem(prob)
    alpha = 0.9 / (2.0 * prob.kappa_s)
    trace = simulate_allocation(prob, "OGDA", alpha=alpha, max_iters=200,
                                stop_tol=0.0)
    z0 = np.concatenate([trace.y[0].ravel(), trace.a[0].ravel(),
                         trace.lam[0].ravel()])
    generic = run(saddle, SolverConfig("OGDA", step_size=alpha, max_iters=200,
                                       stop_tol=0.0), z0)
    rows = trace.y.shape[0]
    stacked = np.concatenate([trace.y.reshape(rows, -1),
                              trace.a.reshape(rows, -1),
                              trace.lam.reshape(rows, -1)], axis=1)
    assert np.max(np.abs(stacked - generic.z)) == 0.0


def test_quadratics_converge_to_kkt_both_methods():
    prob = catalog.allocation_quadratics()
    for method in ("OGDA", "EG"):
        trace = simulate_allocation(prob, method, max_iters=50000,
                                    record_every=100, stop_tol=1e-9)
        assert trace.stopped_at is not None
        assert np.allclose(trace.y[-1].ravel(), [-1.0, 0.0, 1.0], atol=1e-5)
        assert trace.feasibility_gap[-1] <= 1e-6
        # dual consensus at termination
        lam = trace.lam[-1]
        assert np.max(np.abs(lam - lam.mean())) <= 1e-5


def test_gda_rejected_for_distributed_runs():
    prob = catalog.allocation_quadratics()
    with pytest.raises(ValidationError):
        simulate_allocation(prob, "GDA", max_iters=10)


def test_step_size_validated_against_kappa_s():
    prob = catalog.allocation_quadratics()
    too_big = 1.1 / (2.0 * prob.kappa_s)
    with pytest.raises(ValidationError):
        simulate_allocation(prob, "OGDA", alpha=too_big, max_iters=10)


def test_kappa_s_value():
    # l_h + sigma_max(W) + 2 lambda_max + 1 on the 3-ring quadratics
    prob = catalog.allocation_quadratics()
    lam = lambda_max(prob.graph)
    assert prob.kappa_s == pytest.approx(1.0 + 1.0 + 2.0 * lam + 1.0, rel=1e-10)


def test_trace_csv_layout(tmp_path):
    prob = catalog.allocation_quadratics()
    trace = simulate_allocation(prob, "OGDA", max_iters=10, stop_tol=0.0)
    path = tmp_path / "a.csv"
    trace.to_csv(str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ("iter,agent_id,y0,a0,lambda0,"
                        "feasibility_gap,objective_sum")
    assert len(lines) == 1 + 11 * 3


def test_vectorized_oracles_match_rowwise():
    prob = catalog.example2_allocation(seed=0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = rng.uniform(-1.0, 1.0, size=prob.n)
        rowwise = np.concatenate([a.gradient(y[i:i + 1])
                                  for i, a in enumerate(prob.agents)])
        assert np.allclose(prob.gradient_vec(y), rowwise, atol=1e-12)
        row_obj = sum(a.objective(y[i:i + 1]) for i, a in enumerate(prob.agents))
        assert prob.total_objective(y) == pytest.approx(row_obj, rel=1e-12)
