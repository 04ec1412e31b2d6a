import numpy as np
import pytest

from saddlenet import allocation, catalog, consensus
from saddlenet.allocation import (AllocationAgentSpec, AllocationProblem,
                                  as_saddle_problem, feasibility_gap,
                                  lagrangian_L2, operator_psi,
                                  simulate_allocation, step_allocation_eg,
                                  step_allocation_ogda)
from saddlenet.core import (SaddleProblem, ValidationError, _blockwise_F,
                            operator_F)
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
                    prob.start(ref.y, ref.a, ref.lam))
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
                            saddle.grad_y, saddle.kappa_m)
    assert oracles.operator is None
    alpha = 0.9 / (2.0 * prob.kappa_s)
    for method in ("OGDA", "EG"):
        trace = simulate_allocation(prob, method, alpha=alpha, max_iters=200,
                                    stop_tol=0.0)
        generic = run(oracles, SolverConfig(method, step_size=alpha,
                                            max_iters=200, stop_tol=0.0),
                      prob.start())
        rows = trace.y.shape[0]
        stacked = np.concatenate([trace.y.reshape(rows, -1),
                                  trace.a.reshape(rows, -1),
                                  trace.lam.reshape(rows, -1)], axis=1)
        assert generic.iters.size == 201
        assert np.max(np.abs(stacked - generic.z)) == 0.0


def test_step_functions_match_run():
    prob = catalog.allocation_quadratics()
    alpha = 0.4 / prob.kappa_s
    z0 = prob.start(np.full(3, 50.0))
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


def test_trace_csv_bytes_match_the_per_cell_writer(tmp_path):
    # the reference formats cell by cell, one line per (row, agent);
    # non-finite values print as nan/inf and signed zeros keep the sign
    prob = catalog.allocation_quadratics()
    trace = simulate_allocation(prob, "OGDA", max_iters=40, stop_tol=0.0)
    trace.y[2, 1], trace.lam[3, 2, 0] = -np.inf, -0.0
    trace.feasibility_gap[5], trace.objective[6] = np.nan, np.inf
    want = ["iter,agent_id,y0,a0,lambda0,feasibility_gap,objective_sum"]
    for r in range(trace.iters.size):
        yr = trace.y[r].reshape(prob.n, 1)
        for i in range(prob.n):
            want.append(",".join(
                [str(int(trace.iters[r])), str(i)]
                + ["%.17g" % val for val in yr[i]]
                + ["%.17g" % val for val in trace.a[r, i]]
                + ["%.17g" % val for val in trace.lam[r, i]]
                + ["%.17g" % trace.feasibility_gap[r],
                   "%.17g" % trace.objective[r]]))
    path = tmp_path / "a.csv"
    trace.to_csv(str(path))
    assert path.read_bytes() == ("\n".join(want) + "\n").encode()
    assert b",nan," in path.read_bytes() and b",-0," in path.read_bytes()


def test_vectorized_oracles_match_rowwise():
    prob = catalog.example2_allocation(seed=0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = rng.uniform(-1.0, 1.0, size=prob.n)
        rowwise = np.concatenate([a.gradient(y[i:i + 1])
                                  for i, a in enumerate(prob.agents)])
        assert np.allclose(prob.gradient_rows(y), rowwise, atol=1e-12)
        row_obj = sum(a.objective(y[i:i + 1]) for i, a in enumerate(prob.agents))
        total = float(np.sum(prob.objective_rows(y)))
        assert total == pytest.approx(row_obj, rel=1e-12)


def test_non_finite_gradient_trips_divergence_guard():
    agents = zero_agents(3)
    agents[1] = AllocationAgentSpec(
        objective=lambda y: float("nan"),
        gradient=lambda y: np.full(y.shape, np.nan),
        cset=Box(-10.0, 10.0, dim=1), weight=np.array([[1.0]]),
        demand=np.array([0.0]), lipschitz=0.0)
    prob = AllocationProblem(ring(3), agents)
    # the operator value at the start is NaN: the run names the operator
    # at iteration 0, before the NaN step it would take to iteration 1
    with pytest.raises(DivergenceError,
                       match="EG operator value is not finite at iteration 0"
                       ) as err:
        simulate_allocation(prob, "EG", max_iters=20, stop_tol=1e-8)
    assert err.value.iteration == 0


@pytest.mark.parametrize("field, value, match", [
    ("lipschitz", np.nan, "agent lipschitz constant"),
    ("lipschitz", np.inf, "agent lipschitz constant"),
    ("lipschitz", -1.0, "agent lipschitz constant"),
    # a NaN weight used to fail later, in the SVD of `spectral_norm`
    ("weight", [[np.nan]], "weight and demand must be finite"),
    ("weight", [[np.inf]], "weight and demand must be finite"),
    ("demand", [np.nan], "weight and demand must be finite"),
    ("demand", [-np.inf], "weight and demand must be finite"),
])
def test_agent_data_must_be_finite(field, value, match):
    spec = dict(objective=lambda y: 0.0, gradient=lambda y: np.zeros(y.shape),
                cset=Box(-10.0, 10.0, dim=1), weight=[[1.0]], demand=[0.0],
                lipschitz=0.0)
    spec[field] = value
    with pytest.raises(ValidationError, match=match):
        AllocationAgentSpec(**spec)


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
    assert prob.gradient_rows(y).shape == (3,)
    with pytest.raises(ValidationError, match="vector_gradient"):
        prob.gradient_rows(np.stack([y, y]))


def test_vector_gradient_of_wrong_shape_raises_through_psi():
    # Psi checks the oracle's result on every evaluation, as
    # `gradient_rows` does: on a stack and part way through a run
    targets = np.array([1.0, 2.0, 3.0])
    agents = catalog.allocation_quadratics().agents
    flat = AllocationProblem(ring(3), agents,
                             vector_gradient=lambda y: np.ravel(y - targets))
    saddle = as_saddle_problem(flat)
    with pytest.raises(ValidationError, match="vector_gradient"):
        operator_F(saddle, np.zeros((2, saddle.dim)))
    calls = []

    def gradient(y):
        # right on its first two calls, then a reduction over axis 0
        calls.append(y.shape)
        return y - targets if len(calls) < 3 else np.sum(y - targets, axis=0)

    saddle = as_saddle_problem(
        AllocationProblem(ring(3), agents, vector_gradient=gradient))
    with pytest.raises(ValidationError, match="vector_gradient"):
        run(saddle, SolverConfig("OGDA", max_iters=3, stop_tol=0.0),
            np.zeros(saddle.dim))
    assert calls == [(3,)] * 3


def wt_lam_per_row(prob, lam):
    """Reference `AllocationProblem.wt_lam`: one stacked row at a time."""
    if lam.ndim > 2:
        return np.stack([wt_lam_per_row(prob, r) for r in lam])
    return np.concatenate([a.weight.T @ lam[i]
                           for i, a in enumerate(prob.agents)])


def wy_minus_d_per_row(prob, y):
    """Reference `AllocationProblem.wy_minus_d`: one stacked row at a time."""
    if y.ndim > 1:
        return np.stack([wy_minus_d_per_row(prob, r) for r in y])
    return np.stack([a.weight @ y[prob._agent_slices[i]] - a.demand
                     for i, a in enumerate(prob.agents)])


def matrix_coupled(seed):
    """m = 2 with decision sizes 1, 2, 3 in turn; some W_i entries are
    signed zeros, so sums of zero products show their sign."""
    rng = np.random.default_rng(seed)
    agents = []
    for i in range(6):
        q = 1 + i % 3
        weight = rng.uniform(-1.0, 1.0, size=(2, q))
        weight[0, 0] = -0.0 if i % 2 else 0.0
        agents.append(AllocationAgentSpec(
            lambda y: 0.0, lambda y: np.zeros(y.shape), Box(-1.0, 1.0, dim=q),
            weight, rng.uniform(-0.5, 0.5, size=2), 0.0))
    return AllocationProblem(ring(6), agents)


def with_special_values(rng, shape):
    values = rng.normal(size=shape)
    flat = values.reshape(-1)
    picks = rng.choice(flat.size, size=flat.size // 2, replace=False)
    flat[picks] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan],
                             size=picks.size)
    return values


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matrix_coupling_on_stacks_matches_the_per_row_loop(seed):
    prob = matrix_coupled(seed)
    assert prob.m == 2 and sorted(set(prob.q)) == [1, 2, 3]
    assert prob._wdiag is None
    rng = np.random.default_rng(seed)
    points = [(with_special_values(rng, lead + (prob.n, prob.m)),
               with_special_values(rng, lead + (prob.dim_y,)))
              for lead in [(), (7,), (3, 4)]]
    # all-zero stacks: each product sums signed zeros only
    points += [(np.full((5, prob.n, prob.m), zero),
                np.full((5, prob.dim_y), zero)) for zero in (0.0, -0.0)]
    # inf times zero makes NaNs on purpose
    with np.errstate(invalid="ignore"):
        for lam, y in points:
            for got, want in [(prob.wt_lam(lam), wt_lam_per_row(prob, lam)),
                              (prob.wy_minus_d(y),
                               wy_minus_d_per_row(prob, y))]:
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("build, scalar", [
    (lambda: catalog.example2_allocation(3), True),
    (lambda: matrix_coupled(1), False)], ids=["scalar", "general"])
@pytest.mark.parametrize("lead", [(), (2, 3)])
def test_coupling_products_write_into_out_with_fresh_bits(build, scalar, lead):
    prob = build()
    assert (prob._wdiag is not None) == scalar
    rng = np.random.default_rng(len(lead))
    lam = rng.normal(size=lead + (prob.n, prob.m))
    y = rng.normal(size=lead + (prob.dim_y,))
    for product, point, shape in [
            (prob.wt_lam, lam, lead + (prob.dim_y,)),
            (prob.wy_minus_d, y, lead + (prob.n, prob.m))]:
        fresh = product(point)
        assert fresh.shape == shape
        out = np.full(shape, np.nan)
        assert product(point, out) is out
        assert out.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("max_iters", [0, 5])
def test_non_finite_start_is_refused_by_name(max_iters):
    # it returned a NaN trace, or reported divergence at iteration 1
    prob = catalog.allocation_quadratics()
    lam0 = np.zeros(3)
    lam0[1] = np.inf
    # y has 3 entries and a 3, so lam_1 is entry 7 of the stacked start
    with pytest.raises(ValidationError, match=r"z0\[7\] is inf"):
        simulate_allocation(prob, "OGDA", max_iters=max_iters, lam0=lam0)
    y0 = np.array([0.0, np.nan, 0.0])
    with pytest.raises(ValidationError, match=r"z0\[1\] is nan"):
        simulate_allocation(prob, "EG", max_iters=max_iters, y0=y0)


@pytest.mark.parametrize("y, a, lam, name", [
    # a bare numpy broadcast error before
    (np.ones(4), np.zeros(3), np.zeros(3), "y"),
    (np.ones(3), np.zeros((3, 2)), np.zeros(3), "a"),
    (np.ones(3), np.zeros(3), np.zeros((2, 3)), "lam"),
    (np.ones((2, 3, 1)), np.zeros((2, 3, 1)), np.zeros((2, 3, 1)), "y"),
])
def test_lagrangian_refuses_blocks_of_another_shape(y, a, lam, name):
    prob = catalog.allocation_quadratics()
    with pytest.raises(ValidationError, match="^{} has shape".format(name)):
        lagrangian_L2(prob, y, a, lam)


def with_signed_zeros(rng, shape):
    """Normal draws with a third of the entries 0.0 or -0.0, and on a
    stack a first point of -0.0 only."""
    values = rng.normal(size=shape)
    flat = values.reshape(-1)
    picks = rng.choice(flat.size, size=flat.size // 3, replace=False)
    flat[picks] = rng.choice([0.0, -0.0], size=picks.size)
    if len(shape) > 1:
        values.reshape(-1, shape[-1])[0] = -0.0
    return values


@pytest.mark.parametrize("build", [
    lambda: as_saddle_problem(catalog.example2_allocation(0)),
    lambda: as_saddle_problem(matrix_coupled(0)),
    lambda: as_saddle_problem(catalog.allocation_quadratics()),
    lambda: consensus.as_saddle_problem(catalog.consensus_quadratics(5))],
    ids=["example2", "matrix-coupled", "allocation3", "consensus5"])
@pytest.mark.parametrize("lead", [(), (7,), (3, 4)])
def test_fused_operator_gives_the_bytes_of_the_blockwise_gradients(build,
                                                                   lead):
    # the contract of `SaddleProblem.operator`: each row is
    # col(grad_x, -grad_y) at that row to the last bit; a second
    # evaluation in the same workspace keeps to it
    saddle = build()
    rng = np.random.default_rng(len(lead))
    z, got = np.empty(lead + (saddle.dim,)), np.empty(lead + (saddle.dim,))
    evaluate = saddle.operator(lead)(z, got)
    for _ in range(2):
        z[...] = with_signed_zeros(rng, z.shape)
        want = np.stack([_blockwise_F(saddle, row)
                         for row in z.reshape(-1, saddle.dim)])
        evaluate()
        assert got.shape == z.shape
        assert got.tobytes() == want.tobytes()
        assert operator_F(saddle, z).tobytes() == want.tobytes()
