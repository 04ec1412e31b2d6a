import contextlib
import signal
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saddlenet import catalog, oracle
from saddlenet.allocation import (AllocationAgentSpec, AllocationProblem,
                                  as_saddle_problem, feasibility_gap,
                                  operator_psi)
from saddlenet.consensus import ConsensusAgentSpec, ConsensusProblem
from saddlenet.graphs import NetworkGraph, random_connected, ring
from saddlenet.oracle import (CertificationError, finite_diff_check,
                              golden_section_min, solve_allocation_kkt,
                              solve_consensus_reference)
from saddlenet.core import objective, operator_F
from saddlenet.sets import Box, WholeSpace, sample_points
from test_core import nan_operator_problem


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
                                   lambda P: [agent.gradient(p) for p in P],
                                   pts)
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
    assert ref.cone_residual >= -1e-8
    assert ref.saddle_residual <= 1e-8


@pytest.mark.parametrize("residual", [-1.0, np.nan])
def test_consensus_reference_rejects_a_failed_cone_certificate(
        monkeypatch, residual):
    prob = catalog.consensus_quadratics(n=5)
    monkeypatch.setattr(oracle.sets, "normal_cone_residual",
                        lambda cset, p, g: residual)
    with pytest.raises(CertificationError, match="normal-cone residual"):
        solve_consensus_reference(prob)


UNBOUNDED_SETS = [Box(0.0, np.inf, dim=1), WholeSpace(1)]


@pytest.mark.parametrize("cset", UNBOUNDED_SETS, ids=repr)
def test_both_references_reject_unbounded_agent_sets(cset):
    consensus = ConsensusProblem(ring(3), 1, [
        quad_agent(1.0), quad_agent(2.0),
        ConsensusAgentSpec(objective=lambda s: float(s[0] ** 2),
                           gradient=lambda s: 2.0 * s, cset=cset,
                           lipschitz=2.0)])
    allocation = AllocationProblem(ring(3), [AllocationAgentSpec(
        objective=lambda y: float(y[0] ** 2),
        gradient=lambda y: 2.0 * y,
        cset=Box(-1.0, 1.0, dim=1) if i else cset,
        weight=np.array([[1.0]]),
        demand=np.array([0.5]),
        lipschitz=2.0) for i in range(3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(CertificationError, match="bounded box sets"):
            solve_consensus_reference(consensus)
        with pytest.raises(CertificationError, match="bounded box sets"):
            solve_allocation_kkt(allocation)


def test_allocation_kkt_quadratics():
    prob = catalog.allocation_quadratics()
    ref = solve_allocation_kkt(prob)
    assert np.allclose(ref.y.ravel(), [-1.0, 0.0, 1.0], atol=1e-8)
    assert ref.mu == pytest.approx(2.0, abs=1e-8)
    assert ref.feasibility <= 1e-8
    assert ref.saddle_residual <= 1e-8
    # consensus multipliers all equal mu
    assert np.allclose(ref.lam, ref.mu, atol=1e-12)


def bang_bang_problem():
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
    return AllocationProblem(ring(3), agents)


def test_allocation_kkt_bang_bang():
    ref = solve_allocation_kkt(bang_bang_problem())
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


def allocation_grid_objective(problem):
    """Brute-force allocation optimum for two-agent scalar instances.

    Sweeps the first agent's box on a uniform grid of step 1e-4, solves
    the coupling constraint for the second agent in closed form, and
    returns the best feasible objective with its decisions. A
    method-independent cross-check of `solve_allocation_kkt`.
    """
    if problem.n != 2 or problem.m != 1 or problem.dim_y != 2:
        raise ValueError("grid search covers two scalar agents only")
    w0 = problem.agents[0].weight[0, 0]
    w1 = problem.agents[1].weight[0, 0]
    if w1 == 0.0:
        raise ValueError("second agent needs nonzero coupling weight")
    d_total = float(problem.demand.sum())
    lo0 = problem.agents[0].cset.lower[0]
    hi0 = problem.agents[0].cset.upper[0]
    grid = np.arange(lo0, hi0 + 1e-4, 1e-4)
    y1 = (d_total - w0 * grid) / w1
    ok = ((y1 >= problem.agents[1].cset.lower[0])
          & (y1 <= problem.agents[1].cset.upper[0]))
    if not np.any(ok):
        raise ValueError("no feasible grid point")
    grid, y1 = grid[ok], y1[ok]
    vals = np.array([float(problem.agents[0].objective(np.array([g]))
                           + problem.agents[1].objective(np.array([t])))
                     for g, t in zip(grid, y1)])
    k = int(np.argmin(vals))
    return float(vals[k]), np.array([grid[k], y1[k]])


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
    grid_obj, grid_y = allocation_grid_objective(two)
    kkt = solve_allocation_kkt(two)
    assert kkt.objective == pytest.approx(grid_obj, abs=1e-3)
    assert np.allclose(grid_y, kkt.y.ravel(), atol=1e-2)
    assert ref.objective == pytest.approx(
        sum(0.5 * (y - c) ** 2
            for y, c in zip([-1.0, 0.0, 1.0], [1.0, 2.0, 3.0])), abs=1e-8)


def test_finite_diff_check_packs_whole_points_into_one_stack():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(4, 3))
    shapes = []

    def value(P):
        shapes.append(P.shape)
        return 0.5 * np.einsum("ij,ij->i", P, P)

    report = finite_diff_check(value, lambda p: p, pts)
    assert report["passed"]
    assert shapes == [(24, 3)]


def test_finite_diff_check_calls_the_gradient_once_on_the_whole_stack():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(5, 3))
    stacks = []

    def gradient(P):
        stacks.append(P.copy())
        return P

    report = finite_diff_check(
        lambda P: 0.5 * np.einsum("ij,ij->i", P, P), gradient, pts)
    assert report["passed"]
    assert len(stacks) == 1 and stacks[0].tobytes() == pts.tobytes()


@pytest.mark.parametrize("gradient", [
    lambda P: P[0],                # one point's gradient
    lambda P: P[:, :2],            # too few entries per row
    lambda P: P.T,                 # rows and entries swapped
    lambda P: np.sum(P, axis=1),   # one number per row
])
def test_finite_diff_check_rejects_a_wrong_shaped_gradient(gradient):
    pts = np.ones((4, 3))
    with pytest.raises(ValueError, match=r"shape .* on points of shape"
                                         r" \(4, 3\)"):
        finite_diff_check(lambda P: np.sum(P, axis=1), gradient, pts)


@pytest.mark.parametrize("build, solve", [
    (lambda: catalog.consensus_quadratics(5), solve_consensus_reference),
    (catalog.allocation_quadratics, solve_allocation_kkt),
    (lambda: catalog.example2_allocation(seed=0), solve_allocation_kkt),
], ids=["consensus5", "allocation3", "example2"])
def test_each_reference_builds_the_dense_laplacian_once(build, solve,
                                                        monkeypatch):
    problem = build()
    built = []
    laplacian = NetworkGraph.laplacian

    def counted(graph):
        built.append(graph)
        return laplacian(graph)

    monkeypatch.setattr(NetworkGraph, "laplacian", counted)
    solve(problem)
    assert built == [problem.graph]


@pytest.mark.parametrize("build, solve, residual", [
    (lambda: catalog.consensus_quadratics(5), solve_consensus_reference,
     "_consensus_saddle_residual"),
    (catalog.allocation_quadratics, solve_allocation_kkt,
     "_allocation_saddle_residual"),
], ids=["consensus5", "allocation3"])
def test_a_nan_saddle_residual_fails_certification(build, solve, residual,
                                                   monkeypatch):
    # NaN is not at most REFERENCE_TOL: the reference is refused, not
    # certified with a NaN residual
    monkeypatch.setattr(oracle, residual, lambda *args: np.nan)
    with pytest.raises(CertificationError,
                       match="saddle failed certification: residual nan"):
        solve(build())


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


def test_finite_diff_check_packs_example2_points_in_pairs():
    # verify's check on example2: 100 points of 60 coordinates, 6000
    # (point, coordinate) pairs taken in order, 128 pairs (256 rows) to a
    # call and the last 112 in one of 224 rows; a call may split a point,
    # and every row keeps the bits it has in a stack of its own point
    stacked = as_saddle_problem(catalog.example2_allocation(seed=0))
    pts = sample_points(stacked.domain, 100, np.random.default_rng(0))
    sign = np.where(np.arange(stacked.dim) < stacked.dim_x, 1.0, -1.0)
    grads = sign * operator_F(stacked, pts)
    sizes = []

    def value(P):
        sizes.append(len(P))
        return objective(stacked, P)

    report = finite_diff_check(value, lambda P: grads, pts)
    assert report["passed"]
    assert sizes == [256] * 46 + [224]
    rows = iter(grads)
    worst, worst_point = finite_diff_one_stack(
        lambda P: objective(stacked, P), lambda p: next(rows), pts)
    assert np.float64(report["max_rel_error"]).tobytes() == worst.tobytes()
    assert report["worst_point"].tobytes() == worst_point.tobytes()


def test_finite_diff_check_rejects_a_one_point_value():
    pts = np.ones((2, 3))
    with pytest.raises(ValueError, match="one value per row"):
        finite_diff_check(lambda P: float(np.sum(P)), lambda p: p, pts)


def half_square(P):
    return 0.5 * np.einsum("ij,ij->i", P, P)


def nan_gradient_at(i, j):
    """The true gradient of `half_square`, NaN at entry j of point i."""
    def gradient(P):
        G = P.copy()
        G[i, j] = np.nan
        # a later point with a large finite error must not displace it
        G[i + 1:] *= 1.5
        return G
    return gradient


@pytest.mark.parametrize("value, gradient, first", [
    (half_square, lambda P: np.full(P.shape, np.nan), 0),
    (half_square, nan_gradient_at(2, 1), 2),
    (lambda P: np.where(P[:, 0] > 10.0, np.nan, half_square(P)),
     lambda P: P, 3),
], ids=["gradient-nan-everywhere", "gradient-nan-at-one-entry", "value-nan"])
def test_finite_diff_check_fails_at_the_first_nan_error(value, gradient,
                                                        first):
    pts = np.random.default_rng(7).normal(size=(6, 3))
    pts[3, 0] = 20.0  # the only point whose value stack holds NaN
    report = finite_diff_check(value, gradient, pts)
    assert not report["passed"]
    assert np.isnan(report["max_rel_error"])
    assert report["worst_point"].tobytes() == pts[first].tobytes()


def test_finite_diff_check_fails_on_a_nan_operator():
    # F of this problem is NaN wherever x > 0.5; the check sees its
    # gradient over a sampled box, as `verify` does
    prob = nan_operator_problem()
    pts = sample_points(prob.domain, 100, np.random.default_rng(0))
    sign = np.array([1.0, -1.0])
    report = finite_diff_check(lambda P: objective(prob, P),
                               lambda P: sign * operator_F(prob, P), pts)
    first = np.flatnonzero(pts[:, 0] > 0.5)[0]
    assert first > 0
    assert not report["passed"]
    assert np.isnan(report["max_rel_error"])
    assert report["worst_point"].tobytes() == pts[first].tobytes()


def per_agent_bisect(dfun, lo, hi):
    """Reference inner solve of one agent; tests both box ends per call."""
    if dfun(lo) >= 0.0:
        return lo
    if dfun(hi) <= 0.0:
        return hi
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if dfun(mid) > 0.0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def per_agent_grid(fun, lo, hi, levels=5, points=100):
    """Reference grid of one agent: one scalar call per grid point."""
    a, b = float(lo), float(hi)
    for _ in range(levels):
        grid = np.linspace(a, b, points + 1)
        vals = np.array([fun(t) for t in grid])
        k = int(np.argmin(vals))
        a = grid[max(k - 1, 0)]
        b = grid[min(k + 1, points)]
    return 0.5 * (a + b)


def kkt_per_agent_loop(problem, tol=1e-8):
    """`solve_allocation_kkt` as a nested per-agent loop of scalar calls."""
    if problem.m != 1:
        raise CertificationError("dual bisection requires scalar coupling")
    n = problem.n
    w = np.array([a.weight[0, 0] for a in problem.agents])
    d_total = float(problem.demand.sum())
    los = np.array([a.cset.lower[0] for a in problem.agents])
    his = np.array([a.cset.upper[0] for a in problem.agents])

    def y_of_mu(mu):
        ys = np.empty(n)
        for i, sp in enumerate(problem.agents):
            ys[i] = per_agent_bisect(
                lambda t: float(sp.gradient(np.array([t]))[0]) + mu * w[i],
                los[i], his[i])
        return ys

    def gap(mu):
        return float(np.sum(w * y_of_mu(mu)) - d_total)

    sup_grad = max(
        max(abs(float(sp.gradient(np.array([los[i]]))[0])),
            abs(float(sp.gradient(np.array([his[i]]))[0])))
        for i, sp in enumerate(problem.agents))
    nonzero = np.abs(w[w != 0.0])
    m_bracket = 10.0 * (1.0 + sup_grad / nonzero.min()) if nonzero.size else 10.0
    for _ in range(6):
        if gap(-m_bracket) >= 0.0 >= gap(m_bracket):
            break
        m_bracket *= 10.0
    else:
        raise CertificationError("no bracket")
    a, b = -m_bracket, m_bracket
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if gap(mid) > 0.0:
            a = mid
        else:
            b = mid
    mu = 0.5 * (a + b)
    y = y_of_mu(mu)
    feas = abs(float(np.sum(w * y) - d_total))
    if feas > 1e-10:
        raise CertificationError("imbalance")
    gap_stat = 0.0
    for i, sp in enumerate(problem.agents):
        inner = lambda t, sp=sp, i=i: (float(sp.objective(np.array([t])))
                                       + mu * w[i] * t)
        t_grid = per_agent_grid(inner, los[i], his[i])
        gap_stat = max(gap_stat, inner(float(y[i])) - inner(t_grid))
    if gap_stat > 1e-12:
        raise CertificationError("stationarity")
    objective = float(np.sum(problem.objective_rows(y)))
    lam = np.full((n, 1), mu)
    e = np.stack([sp.weight @ y[problem._agent_slices[i]] - sp.demand
                  for i, sp in enumerate(problem.agents)])
    lap = problem.graph.laplacian()
    a_rows = np.linalg.pinv(lap) @ e
    resid = oracle._allocation_saddle_residual(problem, lap, y, e, a_rows, lam)
    if resid > tol:
        raise CertificationError("saddle")
    return oracle.KKTReference(y, mu, a_rows, lam, objective, feas,
                               gap_stat, resid)


KKT_FIELDS = ("y", "mu", "a", "lam", "objective", "feasibility",
              "stationarity_gap", "saddle_residual")


def assert_same_reference(ref, expected):
    for field in KKT_FIELDS:
        got, want = getattr(ref, field), getattr(expected, field)
        assert np.shape(got) == np.shape(want), field
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field


def interior_quadratics():
    """No vector oracles; four agents end interior, agent 2 sits in a
    zero-width box, and the certificate's gap is positive."""
    targets = [0.4, -0.3, 0.0, 0.55, 1.5]
    weights = [1.0, 0.7, 1.3, -0.8, 2.0]
    boxes = [(-1.0, 0.7), (-0.9, 1.3), (0.3, 0.3), (-1.0, 1.0), (-1.1, 0.9)]
    agents = [AllocationAgentSpec(
        objective=lambda y, t=t: float(0.5 * (y[0] - t) ** 2),
        gradient=lambda y, t=t: y - t,
        cset=Box(lo, hi, dim=1), weight=[[wi]], demand=[0.1], lipschitz=1.0)
        for t, wi, (lo, hi) in zip(targets, weights, boxes)]
    return AllocationProblem(ring(5), agents)


@pytest.mark.parametrize("name", ["allocation3", "bang-bang",
                                  "interior-quadratics"])
def test_kkt_matches_the_per_agent_loop(name):
    prob = {"allocation3": catalog.allocation_quadratics,
            "bang-bang": bang_bang_problem,
            "interior-quadratics": interior_quadratics}[name]()
    ref = solve_allocation_kkt(prob)
    assert_same_reference(ref, kkt_per_agent_loop(prob))
    if name == "interior-quadratics":
        assert prob.vector_objective is None
        y = ref.y.ravel()
        los = np.array([a.cset.lower[0] for a in prob.agents])
        his = np.array([a.cset.upper[0] for a in prob.agents])
        assert np.sum((los < y) & (y < his)) >= 3
        assert np.any(los == his) and ref.stationarity_gap > 0.0
        # the grid minimizers themselves, which the fields show only
        # through a positive gap: each column keeps its own linspace
        w = np.array([a.weight[0, 0] for a in prob.agents])
        muw = ref.mu * w
        stacked = oracle._grid_refine_rows(
            lambda t: prob.objective_rows(t) + muw * t, los, his)
        loop = [per_agent_grid(
            lambda t, sp=sp, i=i: (float(sp.objective(np.array([t])))
                                   + ref.mu * w[i] * t), los[i], his[i])
            for i, sp in enumerate(prob.agents)]
        assert stacked.tobytes() == np.array(loop).tobytes()


def test_example2_kkt_matches_the_per_agent_loop(monkeypatch):
    built = [catalog.example2_allocation(seed=s) for s in range(20)]
    monkeypatch.setattr(catalog, "solve_allocation_kkt", kkt_per_agent_loop)
    for seed, prob in enumerate(built):
        loop = catalog.example2_allocation(seed=seed)
        assert prob.meta["redraws"] == loop.meta["redraws"], seed
        assert_same_reference(prob.meta["kkt"], loop.meta["kkt"])


def count_gradient_calls(problem):
    """Wrap every agent's gradient oracle; returns the running count."""
    count = [0]
    for sp in problem.agents:
        def counted(y, gradient=sp.gradient):
            count[0] += 1
            return gradient(y)
        sp.gradient = counted
    return count


def test_example2_kkt_takes_a_quarter_of_the_loops_gradient_calls():
    calls, loop_calls = 0, 0
    for seed in range(20):
        prob = catalog.example2_allocation(seed=seed)
        count = count_gradient_calls(prob)
        solve_allocation_kkt(prob)
        calls += count[0]
        count[0] = 0
        kkt_per_agent_loop(prob)
        loop_calls += count[0]
    assert 4 * calls <= loop_calls


@pytest.mark.parametrize("name, bound", [("allocation3", 4200),
                                         ("interior-quadratics", 2400)])
def test_quadratic_kkt_takes_few_gradient_calls(name, bound):
    # quadratic agents' interpolants often land on a value of exactly 0
    # within a few floats of the flip; the search tests points just above
    # it instead of crawling down by midpoints, which took 8,585 and 8,384
    # per-agent gradient calls (now 4,138 and 2,385)
    prob = {"allocation3": catalog.allocation_quadratics,
            "interior-quadratics": interior_quadratics}[name]()
    count = count_gradient_calls(prob)
    solve_allocation_kkt(prob)
    assert count[0] <= bound


def zero_weight_at_zero():
    """Three suppliers and a fourth agent that the coupling ignores (W =
    0): its inner problem ``y^2 / 2`` has its root at exactly 0.0, where
    the floats are densest, whatever the multiplier."""
    agents = [AllocationAgentSpec(
        objective=lambda y, t=t: float(0.5 * (y[0] - t) ** 2),
        gradient=lambda y, t=t: y - t,
        cset=Box(-1.0, 1.0, dim=1), weight=[[wi]], demand=[0.0],
        lipschitz=1.0)
        for t, wi in ((-0.5, 1.0), (0.0, 1.0), (0.5, 1.0), (0.0, 0.0))]
    return AllocationProblem(ring(4), agents)


def test_kkt_root_past_bisections_cap():
    # The fourth agent's derivative y is 0 at 0.0, which counts as below,
    # and > 0 from 5e-324 up: more than 1,000 halvings from its box.
    # Bisection tests 0.0 first and stops at its cap of 200 steps with
    # the bracket [0, 2**-199]. The new search interpolates to 0.0 on its
    # first step; the value there is exactly 0, so it tests the next
    # float, 5e-324, and stops on [0, 5e-324] after two steps, with their
    # midpoint 0.0, the root itself. The decision differs; each reference
    # meets its certificates, with the same values of every other field.
    prob = zero_weight_at_zero()
    ref, loop = solve_allocation_kkt(prob), kkt_per_agent_loop(prob)
    assert oracle._BRACKET_STEPS == 410
    assert ref.y[3] == 0.0 and loop.y[3] == 2.0 ** -200
    ref.y[3] = loop.y[3]
    assert_same_reference(ref, loop)
    assert ref.feasibility <= 1e-10 and ref.stationarity_gap <= 1e-12
    assert ref.saddle_residual <= oracle.REFERENCE_TOL


def bisect_reference(above, a, b):
    """The bisection `_bracket` replaced: the midpoint it returns and the
    steps it took, or None for the steps when it stopped at its cap."""
    for steps in range(200):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            return 0.5 * (a + b), steps
        if above(mid):
            b = mid
        else:
            a = mid
    return 0.5 * (a + b), None


# monotone shapes of the signed value around its root; "step" gives the
# interpolation nothing, "lopsided" ends of very different sizes
BRACKET_SHAPES = {
    "linear": lambda d: d,
    "step": np.sign,
    "square": lambda d: d * abs(d),
    "cube": lambda d: d ** 3,
    "lopsided": lambda d: 1e-300 if d > 0.0 else -1.0,
}

bracket_ends = st.tuples(
    st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)).filter(
        lambda ends: ends[0] < ends[1])


@settings(max_examples=400, deadline=None)
@given(ends=bracket_ends,
       where=st.one_of(st.floats(0.0, 1.0),
                       st.sampled_from([0.0, 1.0, -0.5, 1.5])),
       shape=st.sampled_from(sorted(BRACKET_SHAPES)),
       scale=st.sampled_from([1e-300, 1e-5, 1.0, 1e5, 1e300]),
       nan_side=st.one_of(st.none(), st.floats(0.0, 1.0)),
       falling=st.booleans())
# brackets across zero, of subnormal width and of huge magnitude
@example(ends=(-1.0, 3.0), where=0.3, shape="cube", scale=1.0,
         nan_side=0.5, falling=True)
@example(ends=(5e-324, 1e-320), where=0.6, shape="linear", scale=1e300,
         nan_side=None, falling=False)
@example(ends=(1e299, 1e300), where=0.999, shape="lopsided", scale=1e-300,
         nan_side=0.9, falling=False)
def test_bracket_returns_bisections_bits(ends, where, shape, scale,
                                         nan_side, falling):
    # `where` puts the root inside [a, b], on an end or beyond one;
    # `nan_side` makes the value NaN over a region on the root's far
    # side from it. Rising values count NaN and 0.0 as below, as the
    # inner search does; falling ones count them as above, as the outer
    # search does, which runs `_bracket` on the reflected axis.
    a, b = ends
    root = a + (b - a) * where
    fold = BRACKET_SHAPES[shape]
    nan_edge = None if nan_side is None else (
        root + (b - root) * nan_side if falling else
        root + (a - root) * nan_side)

    def value(t):
        if nan_edge is not None and (t > nan_edge if falling
                                     else t < nan_edge):
            return np.nan
        with np.errstate(all="ignore"):
            v = float(scale * fold(np.float64(t) - root))
        return -v if falling else v

    steps = [0]

    def counted(t):
        steps[0] += 1
        return value(t)

    if falling:
        want, taken = bisect_reference(lambda t: not value(t) > 0.0, a, b)
        got = -oracle._bracket(lambda s: counted(-s), -b, -a,
                               value(b), value(a))
    else:
        want, taken = bisect_reference(lambda t: value(t) > 0.0, a, b)
        got = oracle._bracket(counted, a, b, value(a), value(b))
    assert steps[0] <= oracle._BRACKET_STEPS
    if taken is not None:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert steps[0] <= 2 * taken + oracle._FREE_STEPS


def test_grid_rows_match_per_column_linspace():
    # widths: zero, subnormal ones whose step underflows to zero or
    # stays nonzero, tiny and normal ones, at and off the origin
    lo = np.array([0.3, -0.0, 0.0, 5e-324, 0.0, -1e-300, -1.0, 1e300])
    hi = np.array([0.3, 0.0, 1e-322, 2e-323, 1e-321, 1e-300, 2.0, 1.5e300])
    grids = []

    def fun_rows(grid):
        grids.append(grid.copy())
        # a minimum inside each column, so later levels shrink around it
        return (grid - (0.3 * lo + 0.7 * hi)) ** 2

    with np.errstate(over="ignore"):
        oracle._grid_refine_rows(fun_rows, lo, hi)
    assert len(grids) == 5
    for level, grid in enumerate(grids):
        a, b = (lo, hi) if level == 0 else (grid[0], grid[-1])
        columns = np.stack([np.linspace(ai, bi, 101)
                            for ai, bi in zip(a, b)], axis=1)
        assert grid.tobytes() == columns.tobytes(), level


def test_example2_kkt_evaluates_objectives_by_stack(monkeypatch):
    calls = []
    objective_rows = AllocationProblem.objective_rows

    def counted(self, y):
        calls.append(self.n)
        return objective_rows(self, y)

    def per_agent(y):
        raise AssertionError("per-agent objective called")

    monkeypatch.setattr(AllocationProblem, "objective_rows", counted)
    prob = catalog.example2_allocation(seed=0)
    small = catalog.allocation_quadratics()
    for sp in prob.agents + small.agents:
        sp.objective = per_agent
    calls.clear()
    solve_allocation_kkt(prob)
    assert calls and set(calls) == {20}
    count = len(calls)
    calls.clear()
    solve_allocation_kkt(small)
    assert len(calls) == count and set(calls) == {3}


def test_kkt_rejects_a_nan_objective():
    # the objective is NaN above 0.9, where agent 0's optimum lies; the
    # grid search also lands on the NaN side for every agent
    def nan_above(c):
        return lambda y: float(0.5 * (y[0] - c) ** 2) if y[0] < 0.9 else np.nan

    agents = [AllocationAgentSpec(
        objective=nan_above(c), gradient=lambda y, c=c: y - c,
        cset=Box(-1.0, 1.0, dim=1), weight=[[1.0]], demand=[c],
        lipschitz=1.0) for c in (0.95, 0.5, 0.0)]
    with pytest.raises(CertificationError, match="no finite gap"):
        solve_allocation_kkt(AllocationProblem(ring(3), agents))


def test_kkt_rejects_a_nan_reference_objective(monkeypatch):
    prob = catalog.allocation_quadratics()
    objective_rows = AllocationProblem.objective_rows

    def nan_at_the_decisions(self, y):
        values = objective_rows(self, y)
        return values if y.ndim > 1 else np.full_like(values, np.nan)

    monkeypatch.setattr(AllocationProblem, "objective_rows",
                        nan_at_the_decisions)
    with pytest.raises(CertificationError, match="objective nan is not finite"):
        solve_allocation_kkt(prob)
