import numpy as np
import pytest

from saddlenet import allocation, catalog
from saddlenet.allocation import (AllocationAgentSpec, AllocationProblem,
                                  as_saddle_problem, feasibility_gap,
                                  initial_state, lagrangian_L2, operator_psi,
                                  simulate_allocation, step_allocation_eg,
                                  step_allocation_ogda)
from saddlenet.core import SaddleProblem, ValidationError, operator_F
from saddlenet.graphs import NetworkGraph, lambda_max, ring
from saddlenet.sets import Box
from saddlenet.solvers import DivergenceError, SolverConfig, run


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
    for method in ("OGDA", "EG"):
        trace = run(as_saddle_problem(prob),
                    SolverConfig(method, step_size=alpha, max_iters=1,
                                 stop_tol=0.0),
                    initial_state(prob, ref.y, ref.a, ref.lam))
        y, a, lam = prob.split(trace.z[-1])
        assert np.max(np.abs(y - ref.y)) <= 1e-12
        assert np.max(np.abs(a - ref.a)) <= 1e-12
        assert np.max(np.abs(lam - ref.lam)) <= 1e-12


def test_stacked_matches_generic_solver():
    # the generic side takes F from grad_x and grad_y, not the fused Psi
    prob = catalog.allocation_quadratics()
    saddle = as_saddle_problem(prob)
    oracles = SaddleProblem(saddle.dim_x, saddle.dim_y, saddle.set_x,
                            saddle.set_y, saddle.value, saddle.grad_x,
                            saddle.grad_y, saddle.lipschitz,
                            kappa=saddle.kappa_m)
    assert oracles.operator is None
    alpha = 0.9 / (2.0 * prob.kappa_s)
    for method in ("OGDA", "EG"):
        trace = simulate_allocation(prob, method, alpha=alpha, max_iters=200,
                                    stop_tol=0.0)
        generic = run(oracles, SolverConfig(method, step_size=alpha,
                                            max_iters=200, stop_tol=0.0),
                      initial_state(prob))
        rows = trace.y.shape[0]
        stacked = np.concatenate([trace.y.reshape(rows, -1),
                                  trace.a.reshape(rows, -1),
                                  trace.lam.reshape(rows, -1)], axis=1)
        assert generic.iters.size == 201
        assert np.max(np.abs(stacked - generic.z)) == 0.0


def test_step_functions_match_run():
    prob = catalog.allocation_quadratics()
    alpha = 0.4 / prob.kappa_s
    z0 = initial_state(prob, y0=np.full(3, 50.0))
    for method in ("OGDA", "EG"):
        trace = run(as_saddle_problem(prob),
                    SolverConfig(method, step_size=alpha, max_iters=2,
                                 stop_tol=0.0), z0)
        z = z_prev = z0
        for k in (1, 2):
            if method == "OGDA":
                z, z_prev = step_allocation_ogda(prob, z, z_prev, alpha), z
            else:
                z_half, z = step_allocation_eg(prob, z, alpha)
                assert z_half.tobytes() == trace.z_half[k].tobytes()
            assert z.tobytes() == trace.z[k].tobytes()


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
    with pytest.raises(ValidationError, match="kappa_s"):
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


def test_non_finite_gradient_trips_divergence_guard():
    agents = zero_agents(3)
    agents[1] = AllocationAgentSpec(
        objective=lambda y: float("nan"),
        gradient=lambda y: np.full(y.shape, np.nan),
        cset=Box(-10.0, 10.0, dim=1), weight=np.array([[1.0]]),
        demand=np.array([0.0]), lipschitz=0.0)
    prob = AllocationProblem(ring(3), agents)
    with pytest.raises(DivergenceError) as err:
        simulate_allocation(prob, "EG", max_iters=20, stop_tol=1e-8)
    assert err.value.iteration == 1


@pytest.mark.parametrize("method", ["OGDA", "EG"])
def test_simulate_never_evaluates_the_lagrangian(method, monkeypatch):
    calls = []
    lagrangian = allocation.lagrangian_L2
    monkeypatch.setattr(allocation, "lagrangian_L2",
                        lambda *args: calls.append(args) or lagrangian(*args))
    simulate_allocation(catalog.allocation_quadratics(), method,
                        max_iters=1000, stop_tol=1e-9)
    assert calls == []


def test_vector_gradient_dropping_the_batch_axis_raises():
    targets = np.array([1.0, 2.0, 3.0])
    prob = AllocationProblem(
        ring(3), catalog.allocation_quadratics().agents,
        vector_objective=lambda y: 0.5 * (y - targets) ** 2,
        vector_gradient=lambda y: np.ravel(y - targets))
    y = np.array([0.5, -0.5, 1.0])
    assert prob.gradient_vec(y).shape == (3,)
    with pytest.raises(ValidationError, match="vector_gradient"):
        prob.gradient_vec(np.stack([y, y]))
