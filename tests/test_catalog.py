import numpy as np
import pytest

from saddlenet import catalog
from saddlenet.core import SaddleProblem, operator_F, vi_residual
from saddlenet.oracle import finite_diff_check
from saddlenet.sets import Box, WholeSpace
from saddlenet.solvers import SolverConfig, run


def rowwise(f):
    """A one-point objective as `finite_diff_check` calls it, on stacks."""
    return lambda P: [f(p) for p in P]


def test_example1_structure():
    prob = catalog.example1_bilinear(seed=0)
    B = prob.meta["matrix"]
    assert B.shape == (10, 10)
    assert np.all(B >= 0.0) and np.all(B <= 5.0)
    assert prob.dim_x == 10 and prob.dim_y == 10
    lo, hi = prob.set_x.bounding_box()
    assert np.all(lo == -5.0) and np.all(hi == 5.0)
    lo, hi = prob.set_y.bounding_box()
    assert np.all(lo == -2.0) and np.all(hi == 2.0)
    assert np.array_equal(prob.meta["z0"], 10.0 * np.ones(20))


def test_example1_saddle_at_origin():
    prob = catalog.example1_bilinear(seed=0)
    z_star = prob.meta["z_star"]
    assert np.array_equal(z_star, np.zeros(20))
    assert prob.meta["f_star"] == 0.0
    assert vi_residual(prob, z_star) == 0.0
    x, y = prob.split(z_star)
    assert prob.value(x, y) == 0.0


def test_example1_kappa_matches_matrix_norm():
    prob = catalog.example1_bilinear(seed=0)
    B = prob.meta["matrix"]
    assert prob.kappa_m == pytest.approx(2.0 * np.linalg.norm(B, 2), rel=1e-8)
    assert prob.meta["matrix_norm"] == pytest.approx(np.linalg.norm(B, 2),
                                                     rel=1e-8)


def test_example1_seed_determinism():
    p1 = catalog.example1_bilinear(seed=0)
    p2 = catalog.example1_bilinear(seed=0)
    p3 = catalog.example1_bilinear(seed=1)
    assert np.array_equal(p1.meta["matrix"], p2.meta["matrix"])
    assert not np.array_equal(p1.meta["matrix"], p3.meta["matrix"])


def test_example1_residual_positive_at_ones():
    prob = catalog.example1_bilinear(seed=0)
    assert vi_residual(prob, np.ones(20)) > 0.0


def test_paper_step_size_per_method():
    prob = catalog.example1_bilinear(seed=0)
    a_gda, h_gda = catalog.paper_step_size(prob, "GDA")
    assert a_gda == 0.01 and h_gda == 0
    a_ogda, h_ogda = catalog.paper_step_size(prob, "OGDA")
    assert a_ogda < 1.0 / (2.0 * prob.kappa_m)
    a_eg, h_eg = catalog.paper_step_size(prob, "EG")
    assert a_eg < 1.0 / prob.kappa_m
    # seed 0: ||B|| = 28.55, so the OGDA bound 1/(2 kappa_m) is about
    # 0.0088 and one halving suffices while EG keeps the paper value
    assert h_ogda == 1 and a_ogda == 0.005
    assert h_eg == 0 and a_eg == 0.01


def test_paper_step_size_boundary_case():
    # the all-2.5 matrix has spectral norm exactly 25, kappa exactly 50;
    # the OGDA bound equals the base step, which forces one halving
    B = 2.5 * np.ones((10, 10))
    prob = SaddleProblem(
        dim_x=10, dim_y=10,
        set_x=Box(-5.0, 5.0, dim=10), set_y=Box(-2.0, 2.0, dim=10),
        value=lambda x, y: float(x @ B @ y),
        grad_x=lambda x, y: B @ y,
        grad_y=lambda x, y: B.T @ x,
        kappa_m=50.0)
    assert prob.kappa_m == pytest.approx(50.0)
    alpha, halvings = catalog.paper_step_size(prob, "OGDA")
    assert alpha == 0.005 and halvings == 1
    alpha, halvings = catalog.paper_step_size(prob, "EG")
    assert alpha == 0.01 and halvings == 0


def test_paper_step_size_repeated_halving():
    prob = SaddleProblem(
        dim_x=1, dim_y=1,
        set_x=WholeSpace(1), set_y=WholeSpace(1),
        value=lambda x, y: float(100.0 * x @ y),
        grad_x=lambda x, y: 100.0 * y,
        grad_y=lambda x, y: 100.0 * x,
        kappa_m=200.0)
    alpha, halvings = catalog.paper_step_size(prob, "OGDA")
    assert alpha < 1.0 / 400.0
    assert alpha == 0.01 * 0.5 ** halvings


def bilinear_scalar():
    """Unconstrained scalar bilinear toy f(x, y) = xy; saddle at the origin."""
    problem = SaddleProblem(
        1, 1, WholeSpace(1), WholeSpace(1),
        lambda x, y: float(x[0] * y[0]),
        lambda x, y: np.array([y[0]]),
        lambda x, y: np.array([x[0]]),
        kappa_m=2.0, name="bilinear-scalar")
    problem.meta.update(z_star=np.zeros(2), f_star=0.0,
                        z0=np.array([1.0, 1.0]))
    return problem


def test_bilinear_scalar_family():
    prob = bilinear_scalar()
    assert np.array_equal(prob.meta["z_star"], np.zeros(2))
    assert prob.kappa_m == pytest.approx(2.0)
    cfg = SolverConfig("OGDA", max_iters=2000, stop_tol=0.0)
    trace = run(prob, cfg, prob.meta["z0"], z_star=prob.meta["z_star"])
    assert trace.vi_residual[-1] <= 1e-8
    assert trace.dist_to_ref[-1] <= 1e-8


def test_quadratic_saddle_family():
    prob = catalog.quadratic_saddle()
    assert prob.kappa_m == pytest.approx(2.0)
    assert np.allclose(operator_F(prob, np.array([1.0, -2.0])), [1.0, -2.0])
    cfg = SolverConfig("EG", max_iters=200, stop_tol=0.0)
    trace = run(prob, cfg, prob.meta["z0"], z_star=prob.meta["z_star"])
    d = np.linalg.norm(trace.z - prob.meta["z_star"], axis=1)
    assert np.all(d[1:] < d[:-1])
    assert trace.vi_residual[-1] <= 1e-10


def test_consensus_quadratics_reference_mean():
    prob = catalog.consensus_quadratics(n=5)
    from saddlenet.oracle import solve_consensus_reference
    ref = solve_consensus_reference(prob)
    assert ref.x_bar == pytest.approx(3.0, abs=1e-8)
    assert prob.n == 5 and prob.m == 1


def test_badgrad_fails_finite_difference_only_on_first_agent():
    prob = catalog.consensus_quadratics_badgrad(n=5)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-10.0, 10.0, size=(30, 1))
    bad = finite_diff_check(rowwise(prob.agents[0].objective),
                            prob.agents[0].gradient, pts)
    assert not bad["passed"]
    for agent in prob.agents[1:]:
        good = finite_diff_check(rowwise(agent.objective), agent.gradient,
                                 pts)
        assert good["passed"]


def test_example2_structure():
    from saddlenet.graphs import ring
    prob = catalog.example2_allocation(seed=0)
    assert prob.n == 20
    assert prob.graph.edges == ring(20).edges
    for agent in prob.agents:
        lo, hi = agent.cset.bounding_box()
        assert lo[0] == -1.0 and hi[0] == 1.0
    assert "kkt" in prob.meta
    assert prob.meta["seed"] == 0


def test_example2_determinism():
    p1 = catalog.example2_allocation(seed=0)
    p2 = catalog.example2_allocation(seed=0)
    for key in ("a", "b", "c", "w", "d"):
        assert np.array_equal(p1.meta[key], p2.meta[key])
    assert p1.meta["kkt"].mu == p2.meta["kkt"].mu


def test_example2_objective_convexity():
    # gradient of each logistic term is nondecreasing
    prob = catalog.example2_allocation(seed=0)
    ys = np.linspace(-1.0, 1.0, 41)
    for agent in prob.agents:
        g = np.array([agent.gradient(np.array([t]))[0] for t in ys])
        assert np.all(np.diff(g) >= -1e-12)


def test_example2_gradients_pass_finite_difference():
    prob = catalog.example2_allocation(seed=0)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 1.0, size=(20, 1))
    for agent in prob.agents[:5]:
        report = finite_diff_check(rowwise(agent.objective), agent.gradient,
                                   pts)
        assert report["passed"]


def test_example2_lipschitz_declaration_covers_gradient():
    # the logistic slope is bounded by b c^2 / 4
    prob = catalog.example2_allocation(seed=0)
    ys = np.linspace(-1.0, 1.0, 201)
    for agent in prob.agents:
        g = np.array([agent.gradient(np.array([t]))[0] for t in ys])
        slopes = np.abs(np.diff(g) / np.diff(ys))
        assert np.max(slopes) <= agent.lipschitz + 1e-9
