import numpy as np
import pytest

from saddlenet import catalog
from saddlenet.consensus import (ConsensusAgentSpec, ConsensusProblem,
                                 as_saddle_problem, consensus_residual,
                                 initial_state, lagrangian_L1, operator_phi,
                                 simulate_consensus, step_consensus_eg,
                                 step_consensus_ogda)
from saddlenet.core import (SaddleProblem, ValidationError, objective,
                            operator_F)
from saddlenet.graphs import NetworkGraph, ring
from saddlenet.sets import Box
from saddlenet.solvers import DivergenceError, SolverConfig, run


def zero_agents(n, box=(-10.0, 10.0)):
    return [ConsensusAgentSpec(
        objective=lambda s: 0.0,
        gradient=lambda s: np.zeros(s.shape),
        cset=Box(box[0], box[1], dim=1),
        lipschitz=0.0) for _ in range(n)]


def path2_problem():
    return ConsensusProblem(NetworkGraph(2, [(0, 1)]), 1, zero_agents(2))


def test_lagrangian_vanishing_laplacian_terms():
    prob = catalog.consensus_quadratics(n=5)
    x = np.full((5, 1), 1.5)
    v = np.arange(5.0).reshape(5, 1)
    expect = sum((1.5 - t) ** 2 for t in range(1, 6))
    assert lagrangian_L1(prob, x, v) == pytest.approx(expect, abs=1e-12)


def test_lagrangian_path_hand_value():
    prob = path2_problem()
    x = np.array([[1.0], [0.0]])
    v = np.zeros((2, 1))
    assert lagrangian_L1(prob, x, v) == pytest.approx(0.5, abs=1e-15)


def test_lagrangian_at_origin():
    prob = catalog.consensus_quadratics(n=5)
    x = np.zeros((5, 1))
    v = np.zeros((5, 1))
    expect = sum(t ** 2 for t in range(1, 6))
    assert lagrangian_L1(prob, x, v) == pytest.approx(expect, abs=1e-12)


def test_operator_at_consensus_with_zero_duals():
    prob = catalog.consensus_quadratics(n=5)
    x = np.full((5, 1), 2.0)
    v = np.zeros((5, 1))
    rows = operator_phi(prob, x, v)
    grads = np.array([2.0 * (2.0 - t) for t in range(1, 6)])
    assert np.allclose(rows[:5], grads, atol=1e-12)
    assert np.allclose(rows[5:], 0.0, atol=1e-15)


def test_operator_path_hand_value():
    prob = path2_problem()
    x = np.array([[1.0], [0.0]])
    v = np.zeros((2, 1))
    rows = operator_phi(prob, x, v)
    assert np.allclose(rows, [1.0, -1.0, -1.0, 1.0], atol=1e-15)


def test_operator_matches_generic_saddle_operator():
    prob = catalog.consensus_quadratics(n=5)
    saddle = as_saddle_problem(prob)
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = rng.uniform(-10.0, 10.0, size=(5, 1))
        v = rng.normal(scale=3.0, size=(5, 1))
        z = np.concatenate([x.ravel(), v.ravel()])
        direct = operator_phi(prob, x, v)
        generic = operator_F(saddle, z)
        assert np.max(np.abs(direct - generic)) <= 1e-12


def test_consensus_residual_values():
    prob = path2_problem()
    assert consensus_residual(prob, np.full((2, 1), 3.0)) == 0.0
    r = consensus_residual(prob, np.array([[1.0], [0.0]]))
    assert r == pytest.approx(np.sqrt(2.0), abs=1e-15)


def one_step(prob, method, alpha, x, v):
    """The iterate after one stacked step from ``(x, v)``, as rows."""
    trace = run(as_saddle_problem(prob),
                SolverConfig(method, step_size=alpha, max_iters=1,
                             stop_tol=0.0),
                initial_state(prob, x, v))
    x1, v1 = np.split(trace.z[-1], 2)
    return prob.rows(x1), prob.rows(v1)


def test_steps_preserve_fixed_point_zero_gradients():
    # identical targets: every agent minimized at 2, so zero duals suffice
    agents = [ConsensusAgentSpec(
        objective=lambda s: float((s[0] - 2.0) ** 2),
        gradient=lambda s: 2.0 * (s - 2.0),
        cset=Box(-10.0, 10.0, dim=1),
        lipschitz=2.0) for _ in range(5)]
    prob = ConsensusProblem(ring(5), 1, agents)
    x = np.full((5, 1), 2.0)
    v = np.zeros((5, 1))
    alpha = 0.4 / prob.kappa_c
    for method in ("OGDA", "EG"):
        x1, v1 = one_step(prob, method, alpha, x, v)
        assert np.allclose(x1, x, atol=1e-15)
        assert np.allclose(v1, v, atol=1e-15)


def test_steps_preserve_certified_saddle_point():
    from saddlenet.oracle import solve_consensus_reference
    prob = catalog.consensus_quadratics(n=5)
    ref = solve_consensus_reference(prob)
    alpha = 0.4 / prob.kappa_c
    for method in ("OGDA", "EG"):
        x1, v1 = one_step(prob, method, alpha, ref.x, ref.v)
        assert np.max(np.abs(x1 - ref.x)) <= 1e-12
        assert np.max(np.abs(v1 - ref.v)) <= 1e-12
    assert x1.shape == (5, 1)


def test_stacked_matches_generic_solver():
    # the generic side takes F from grad_x and grad_y, not the fused Phi
    prob = catalog.consensus_quadratics(n=5)
    saddle = as_saddle_problem(prob)
    oracles = SaddleProblem(saddle.dim_x, saddle.dim_y, saddle.set_x,
                            saddle.set_y, saddle.value, saddle.grad_x,
                            saddle.grad_y, saddle.lipschitz,
                            kappa=saddle.kappa_m)
    assert oracles.operator is None
    alpha = 0.9 / (2.0 * prob.kappa_c)
    for method in ("OGDA", "EG"):
        trace = simulate_consensus(prob, method, alpha=alpha, max_iters=200,
                                   stop_tol=0.0)
        generic = run(oracles, SolverConfig(method, step_size=alpha,
                                            max_iters=200, stop_tol=0.0),
                      initial_state(prob))
        stacked = np.concatenate(
            [trace.x.reshape(trace.x.shape[0], -1),
             trace.v.reshape(trace.v.shape[0], -1)], axis=1)
        assert generic.iters.size == 201
        assert np.max(np.abs(stacked - generic.z)) == 0.0


def test_step_functions_match_run():
    prob = catalog.consensus_quadratics(n=5)
    alpha = 0.4 / prob.kappa_c
    z0 = initial_state(prob, np.full((5, 1), 50.0))
    for method in ("OGDA", "EG"):
        trace = run(as_saddle_problem(prob),
                    SolverConfig(method, step_size=alpha, max_iters=2,
                                 stop_tol=0.0), z0)
        z = z_prev = z0
        for k in (1, 2):
            if method == "OGDA":
                z, z_prev = step_consensus_ogda(prob, z, z_prev, alpha), z
            else:
                z_half, z = step_consensus_eg(prob, z, alpha)
                assert z_half.tobytes() == trace.z_half[k].tobytes()
            assert z.tobytes() == trace.z[k].tobytes()


def test_quadratics_converge_to_mean_both_methods():
    prob = catalog.consensus_quadratics(n=5)
    for method in ("OGDA", "EG"):
        trace = simulate_consensus(prob, method, max_iters=100000,
                                   record_every=100, stop_tol=1e-8)
        assert trace.stopped_at is not None
        assert np.max(np.abs(trace.x[-1] - 3.0)) <= 1e-4
        assert trace.consensus_residual[-1] <= 1e-6


def test_gda_rejected_for_distributed_runs():
    prob = catalog.consensus_quadratics(n=5)
    with pytest.raises(ValidationError):
        simulate_consensus(prob, "GDA", max_iters=10)


def test_step_size_validated_against_kappa_c():
    prob = catalog.consensus_quadratics(n=5)
    too_big = 1.1 / (2.0 * prob.kappa_c)
    with pytest.raises(ValidationError, match="kappa_c"):
        simulate_consensus(prob, "OGDA", alpha=too_big, max_iters=10)


def test_kappa_c_value():
    # l_f + 2 lambda_max on the 5-ring with f_i = (s - i)^2
    prob = catalog.consensus_quadratics(n=5)
    from saddlenet.graphs import lambda_max
    lam = lambda_max(prob.graph)
    assert prob.kappa_c == pytest.approx(2.0 + 2.0 * lam, rel=1e-10)


def test_residual_decreases_below_tolerance():
    prob = catalog.consensus_quadratics(n=5)
    trace = simulate_consensus(prob, "EG", max_iters=100000,
                               record_every=1000, stop_tol=1e-8)
    assert trace.vi_residual[-1] <= 1e-8
    assert trace.consensus_residual[-1] <= 1e-6


def test_trace_csv_layout(tmp_path):
    prob = catalog.consensus_quadratics(n=5)
    trace = simulate_consensus(prob, "OGDA", max_iters=10, stop_tol=0.0)
    path = tmp_path / "c.csv"
    trace.to_csv(str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iter,agent_id,x0,v0,consensus_residual,objective_sum"
    assert len(lines) == 1 + 11 * 5
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"


def test_ergodic_average_tracks_iterates():
    prob = catalog.consensus_quadratics(n=5)
    trace = simulate_consensus(prob, "OGDA", max_iters=50, stop_tol=0.0)
    expect = np.mean(trace.x[1:], axis=0)
    assert np.allclose(trace.erg_x[-1], expect, atol=1e-12)


def test_infeasible_start_feasible_after_first_step():
    # row 0 keeps the raw start; the first projected step lands inside
    prob = catalog.consensus_quadratics(n=5)
    x0 = np.full((5, 1), 50.0)
    trace = simulate_consensus(prob, "OGDA", max_iters=3, x0=x0, stop_tol=0.0)
    assert np.all(np.abs(trace.x[1]) <= 10.0)


def test_non_finite_gradient_trips_divergence_guard():
    agents = zero_agents(5)
    agents[2] = ConsensusAgentSpec(
        objective=lambda s: float("nan"),
        gradient=lambda s: np.full(s.shape, np.nan),
        cset=Box(-10.0, 10.0, dim=1), lipschitz=0.0)
    prob = ConsensusProblem(ring(5), 1, agents)
    with pytest.raises(DivergenceError) as err:
        simulate_consensus(prob, "OGDA", max_iters=20, stop_tol=1e-8)
    assert err.value.iteration == 1


@pytest.mark.parametrize("method", ["OGDA", "EG"])
def test_simulate_never_evaluates_the_lagrangian(method, monkeypatch):
    prob = catalog.consensus_quadratics(5)
    calls = []
    lap_apply = prob.graph.lap_apply

    def counted(u):
        calls.append(np.shape(u))
        return lap_apply(u)

    monkeypatch.setattr(prob.graph, "lap_apply", counted)
    trace = simulate_consensus(prob, method, max_iters=1000, stop_tol=1e-8)
    # one pass per operator evaluation, one for the residual column
    assert len(calls) == trace.gradient_calls + 1


def test_fixed_axis_vector_oracle_raises_on_stacks():
    # an oracle that reduces over axis 1 is right on one point but
    # returns (k, m) on a stack of k points; that must not pass silently
    targets = np.arange(1.0, 6.0).reshape(5, 1)
    prob = ConsensusProblem(
        ring(5), 1, catalog.consensus_quadratics(5).agents,
        vector_objective=lambda x: np.sum((x - targets) ** 2, axis=1),
        vector_gradient=lambda x: 2.0 * (x - targets))
    x = np.linspace(-1.0, 1.0, 5).reshape(5, 1)
    assert prob.objective_rows(x).shape == (5,)
    stack = np.stack([x, 2.0 * x, 3.0 * x])
    with pytest.raises(ValidationError, match="vector_objective"):
        prob.objective_rows(stack)
    saddle = as_saddle_problem(prob)
    with pytest.raises(ValidationError, match="vector_objective"):
        objective(saddle, np.zeros((3, saddle.dim)))


def test_vector_gradient_of_wrong_shape_raises():
    targets = np.arange(1.0, 6.0).reshape(5, 1)
    prob = ConsensusProblem(
        ring(5), 1, catalog.consensus_quadratics(5).agents,
        vector_gradient=lambda x: 2.0 * (x - targets).ravel())
    with pytest.raises(ValidationError, match="vector_gradient"):
        operator_F(as_saddle_problem(prob), np.zeros(2 * 5))
