import contextlib
import signal
import time

import numpy as np
import pytest

from saddlenet import catalog, oracle
from saddlenet.allocation import (AllocationAgentSpec, AllocationProblem,
                                  feasibility_gap, operator_psi)
from saddlenet.consensus import ConsensusAgentSpec, ConsensusProblem
from saddlenet.graphs import NetworkGraph, random_connected, ring
from saddlenet.oracle import (CertificationError, allocation_grid_objective,
                              finite_diff_check, golden_section_min,
                              solve_allocation_kkt, solve_consensus_reference)
from saddlenet.sets import Box


def quad_agent(target, scale=1.0):
    return ConsensusAgentSpec(
        objective=lambda s, t=target, c=scale: float(c * (s[0] - t) ** 2),
        gradient=lambda s, t=target, c=scale: np.array([2.0 * c * (s[0] - t)]),
        cset=Box(-10.0, 10.0, dim=1),
        lipschitz=2.0 * scale)


def test_golden_section_min_quadratic():
    xs = golden_section_min(lambda t: (t - 0.7) ** 2, -3.0, 5.0)
    assert xs == pytest.approx(0.7, abs=1e-9)


def test_golden_section_min_boundary():
    xs = golden_section_min(lambda t: t, 2.0, 6.0)
    assert xs == pytest.approx(2.0, abs=1e-9)


def test_finite_diff_check_passes_on_true_gradient():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(20, 3))
    report = finite_diff_check(lambda P: [0.5 * float(p @ p) for p in P],
                               lambda p: p, pts)
    assert report["passed"]
    assert report["max_rel_error"] <= 1e-8


def test_finite_diff_check_fails_on_wrong_gradient():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(20, 3))
    report = finite_diff_check(lambda P: [0.5 * float(p @ p) for p in P],
                               lambda p: 1.5 * p, pts)
    assert not report["passed"]
    assert report["worst_point"] is not None


def test_logistic_gradient_value():
    prob = catalog.example2_allocation(seed=0)
    a, b, c = 1.0, 2.0, 1.0
    g = a + b * c / 2.0
    assert g == pytest.approx(2.0)
    # every shipped agent gradient passes a finite-difference probe at 0
    for agent in prob.agents[:3]:
        pts = np.zeros((1, 1))
        report = finite_diff_check(lambda P: [agent.objective(p) for p in P],
                                   lambda p: agent.gradient(p), pts)
        assert report["passed"]


def test_consensus_reference_quadratics():
    prob = catalog.consensus_quadratics(n=5)
    ref = solve_consensus_reference(prob)
    assert np.allclose(ref.x_bar, 3.0, atol=1e-8)
    assert np.allclose(ref.x, 3.0, atol=1e-8)
    assert ref.objective == pytest.approx(sum((3.0 - t) ** 2 for t in range(1, 6)))
    assert ref.saddle_residual <= 1e-8


def test_consensus_reference_single_agent():
    g = NetworkGraph(1, [])
    prob = ConsensusProblem(g, 1, [quad_agent(4.0)])
    ref = solve_consensus_reference(prob)
    assert ref.x_bar == pytest.approx(4.0, abs=1e-8)


def test_consensus_reference_constant_objectives():
    agents = [ConsensusAgentSpec(
        objective=lambda s: 1.0,
        gradient=lambda s: np.zeros(1),
        cset=Box(2.0, 6.0, dim=1),
        lipschitz=0.0) for _ in range(3)]
    prob = ConsensusProblem(ring(3), 1, agents)
    ref = solve_consensus_reference(prob)
    # projection of 0 onto [2, 6]
    assert ref.x_bar == pytest.approx(2.0, abs=1e-10)


def test_consensus_reference_respects_box_faces():
    # unconstrained minimizer 8 sits outside the box [-10, 5]
    agents = [ConsensusAgentSpec(
        objective=lambda s, t=8.0: float((s[0] - t) ** 2),
        gradient=lambda s, t=8.0: np.array([2.0 * (s[0] - t)]),
        cset=Box(-10.0, 5.0, dim=1),
        lipschitz=2.0) for _ in range(3)]
    prob = ConsensusProblem(ring(3), 1, agents)
    ref = solve_consensus_reference(prob)
    assert ref.x_bar == pytest.approx(5.0, abs=1e-8)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block after `seconds` of wall time."""
    def expire(signum, frame):
        raise TimeoutError("still running after {} s".format(seconds))
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_consensus_reference_stops_at_rounding_floor():
    # on this instance the polishing iterate ends up jittering by about
    # 1.5e-16 around 0.0763, above the old stop threshold of
    # 1e-16 * (1 + |s|); the solver must stop there and certify
    seed = 2570931004
    graph = random_connected(1000, 0.006, seed)
    targets = np.random.default_rng([seed, 1]).uniform(-5.0, 5.0, 1000)
    col = targets.reshape(-1, 1)
    prob = ConsensusProblem(
        graph, 1, [quad_agent(t) for t in targets],
        vector_objective=lambda x: np.sum((x - col) ** 2, axis=1),
        vector_gradient=lambda x: 2.0 * (x - col))
    start = time.perf_counter()
    with deadline(20.0):
        ref = solve_consensus_reference(prob)
    assert time.perf_counter() - start < 20.0
    assert ref.x_bar[0] == pytest.approx(targets.mean(), abs=1e-12)
    assert ref.cone_residual <= 1e-8
    assert ref.saddle_residual <= 1e-8


def test_allocation_kkt_quadratics():
    prob = catalog.allocation_quadratics()
    ref = solve_allocation_kkt(prob)
    assert np.allclose(ref.y.ravel(), [-1.0, 0.0, 1.0], atol=1e-8)
    assert ref.mu == pytest.approx(2.0, abs=1e-8)
    assert ref.feasibility <= 1e-8
    assert ref.saddle_residual <= 1e-8
    # consensus multipliers all equal mu
    assert np.allclose(ref.lam, ref.mu, atol=1e-12)


def test_allocation_kkt_bang_bang():
    # linear objectives with distinct slopes and a demand every agent can
    # only meet by saturating a face: cheap slopes rise, costly ones drop
    coeffs = [1.0, -1.0, 3.0]
    agents = [AllocationAgentSpec(
        objective=lambda y, c=c: float(c * y[0]),
        gradient=lambda y, c=c: np.array([c]),
        cset=Box(-1.0, 1.0, dim=1),
        weight=np.array([[1.0]]),
        demand=np.array([-1.0 / 3.0]),
        lipschitz=0.0) for c in coeffs]
    prob = AllocationProblem(ring(3), agents)
    ref = solve_allocation_kkt(prob)
    assert ref.feasibility <= 1e-8
    y = ref.y.ravel()
    assert np.allclose(y, [-1.0, 1.0, -1.0], atol=1e-6)
    assert ref.objective == pytest.approx(-5.0, abs=1e-6)


def test_allocation_kkt_infeasible_demand_raises():
    agents = [AllocationAgentSpec(
        objective=lambda y: float(y[0] ** 2),
        gradient=lambda y: np.array([2.0 * y[0]]),
        cset=Box(-1.0, 1.0, dim=1),
        weight=np.array([[1.0]]),
        demand=np.array([10.0]),
        lipschitz=2.0) for _ in range(3)]
    prob = AllocationProblem(ring(3), agents)
    with pytest.raises(CertificationError):
        solve_allocation_kkt(prob)


def test_allocation_kkt_residuals_vanish_at_reference():
    prob = catalog.allocation_quadratics()
    ref = solve_allocation_kkt(prob)
    rows = operator_psi(prob, ref.y, ref.a, ref.lam)
    n, m = prob.n, prob.m
    qs = sum(a.weight.shape[1] for a in prob.agents)
    gy = rows[:qs]
    glam = rows[qs + n * m:]
    # y-block stationarity holds in the projected sense; interior here
    assert np.linalg.norm(gy) <= 1e-6
    assert np.linalg.norm(glam) <= 1e-6
    assert feasibility_gap(prob, ref.y) <= 1e-8


def test_example2_reference_certified():
    prob = catalog.example2_allocation(seed=0)
    ref = prob.meta["kkt"]
    assert ref.feasibility <= 1e-10
    assert ref.saddle_residual <= 1e-8
    assert np.all(np.abs(ref.y) <= 1.0 + 1e-12)


def test_grid_objective_cross_check():
    prob = catalog.allocation_quadratics()
    ref = solve_allocation_kkt(prob)
    two = AllocationProblem(NetworkGraph(2, [(0, 1)]), [
        AllocationAgentSpec(
            objective=lambda y, c=c: float(0.5 * (y[0] - c) ** 2),
            gradient=lambda y, c=c: np.array([y[0] - c]),
            cset=Box(-10.0, 10.0, dim=1),
            weight=np.array([[1.0]]),
            demand=np.array([0.0]),
            lipschitz=1.0) for c in (1.0, 3.0)])
    grid_obj, grid_y = allocation_grid_objective(two, grid_step=1e-4)
    kkt = solve_allocation_kkt(two)
    assert kkt.objective == pytest.approx(grid_obj, abs=1e-3)
    assert np.allclose(grid_y, kkt.y.ravel(), atol=1e-2)
    assert ref.objective == pytest.approx(
        sum(0.5 * (y - c) ** 2
            for y, c in zip([-1.0, 0.0, 1.0], [1.0, 2.0, 3.0])), abs=1e-8)


def test_finite_diff_check_evaluates_one_stack_per_point():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(4, 3))
    shapes = []

    def value(P):
        shapes.append(P.shape)
        return 0.5 * np.einsum("ij,ij->i", P, P)

    report = finite_diff_check(value, lambda p: p, pts)
    assert report["passed"]
    assert shapes == [(6, 3)] * 4


def finite_diff_one_stack(value, gradient, points):
    """The unchunked check: one ``(2 dim, dim)`` stack per point."""
    worst, worst_point = 0.0, None
    for p in points:
        h = 1e-6 * (1.0 + np.linalg.norm(p))
        g = np.asarray(gradient(p), dtype=float)
        step = h * np.eye(p.size)
        vals = np.asarray(value(np.concatenate([p + step, p - step])))
        fd = (vals[:p.size] - vals[p.size:]) / (2.0 * h)
        err = np.max(np.abs(fd - g)) / (1.0 + np.max(np.abs(g)))
        if err > worst:
            worst, worst_point = err, p.copy()
    return worst, worst_point


def test_finite_diff_check_bounds_its_stacks_and_keeps_the_bits():
    dim = oracle.FD_CHUNK_ROWS + 37
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(3, dim))
    pts[0, :5] = -0.0  # both versions form off-axis entries as p + 0.0
    sizes = []

    def value(P):
        sizes.append(len(P))
        return [float(np.sin(p).sum()) for p in P]

    report = finite_diff_check(value, np.cos, pts)
    assert max(sizes) <= oracle.FD_CHUNK_ROWS and sum(sizes) == 3 * 2 * dim
    sizes.clear()
    worst, worst_point = finite_diff_one_stack(value, np.cos, pts)
    assert sizes == [2 * dim] * 3
    assert np.float64(report["max_rel_error"]).tobytes() == worst.tobytes()
    assert report["worst_point"].tobytes() == worst_point.tobytes()


def test_finite_diff_check_rejects_a_one_point_value():
    pts = np.ones((2, 3))
    with pytest.raises(ValueError, match="one value per row"):
        finite_diff_check(lambda P: float(np.sum(P)), lambda p: p, pts)
