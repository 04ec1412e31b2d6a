import sys
import threading

import numpy as np
import pytest

from saddlenet import allocation, catalog, consensus
from saddlenet.core import (SaddleProblem, ValidationError, check_monotone,
                            estimate_kappa, objective, operator_F,
                            spectral_norm, vi_residual)
from saddlenet.sets import Box, WholeSpace, sample_points
from saddlenet.solvers import METHODS, SolverConfig, run


def bilinear_problem(B, set_x=None, set_y=None):
    B = np.asarray(B, dtype=float)
    nx, ny = B.shape
    norm = float(np.linalg.norm(B, 2))
    return SaddleProblem(
        dim_x=nx, dim_y=ny,
        set_x=set_x or WholeSpace(nx),
        set_y=set_y or WholeSpace(ny),
        value=lambda x, y: float(x @ B @ y),
        grad_x=lambda x, y: B @ y,
        grad_y=lambda x, y: B.T @ x,
        kappa_m=2.0 * norm)


def quadratic_problem():
    return SaddleProblem(
        dim_x=1, dim_y=1,
        set_x=WholeSpace(1), set_y=WholeSpace(1),
        value=lambda x, y: float(0.5 * x @ x - 0.5 * y @ y),
        grad_x=lambda x, y: x.copy(),
        grad_y=lambda x, y: -y.copy(),
        kappa_m=2.0)


def test_operator_scalar_bilinear():
    prob = bilinear_problem([[1.0]])
    F = operator_F(prob, np.array([2.0, 3.0]))
    assert np.allclose(F, [3.0, -2.0], atol=1e-15)


@pytest.mark.parametrize("kappa_m", [np.nan, np.inf, -np.inf, -1.0])
def test_declared_kappa_must_be_finite_and_nonnegative(kappa_m):
    with pytest.raises(ValidationError, match="kappa_m must be finite"):
        SaddleProblem(1, 1, WholeSpace(1), WholeSpace(1),
                      lambda x, y: 0.0, lambda x, y: np.zeros(1),
                      lambda x, y: np.zeros(1), kappa_m=kappa_m)


def test_declared_kappa_is_a_float_attribute():
    prob = SaddleProblem(1, 1, WholeSpace(1), WholeSpace(1),
                         lambda x, y: 0.0, lambda x, y: np.zeros(1),
                         lambda x, y: np.zeros(1), kappa_m=3)
    assert type(prob.kappa_m) is float and prob.kappa_m == 3.0


def test_operator_zero_at_interior_saddle():
    prob = quadratic_problem()
    assert np.allclose(operator_F(prob, np.zeros(2)), 0.0)


def test_operator_sign_convention():
    # f(x, y) = x^2 - y^2 gives F = (2x, 2y)
    prob = SaddleProblem(
        dim_x=1, dim_y=1,
        set_x=WholeSpace(1), set_y=WholeSpace(1),
        value=lambda x, y: float(x @ x - y @ y),
        grad_x=lambda x, y: 2.0 * x,
        grad_y=lambda x, y: -2.0 * y,
        kappa_m=4.0)
    F = operator_F(prob, np.array([1.0, 1.0]))
    assert np.allclose(F, [2.0, 2.0], atol=1e-15)


def test_bilinear_monotonicity_inner_products_vanish():
    rng = np.random.default_rng(11)
    B = rng.uniform(0.0, 5.0, size=(4, 3))
    prob = bilinear_problem(B)
    for _ in range(100):
        z1 = rng.normal(size=7)
        z2 = rng.normal(size=7)
        inner = (operator_F(prob, z1) - operator_F(prob, z2)) @ (z1 - z2)
        assert abs(inner) <= 1e-10


def test_quadratic_monotonicity_value():
    prob = quadratic_problem()
    z1 = np.array([1.0, 1.0])
    z2 = np.zeros(2)
    inner = (operator_F(prob, z1) - operator_F(prob, z2)) @ (z1 - z2)
    assert inner == pytest.approx(2.0)


def test_check_monotone_negative_control():
    # f(x, y) = -x^2 is concave in the minimization block
    prob = SaddleProblem(
        dim_x=1, dim_y=1,
        set_x=Box(-2.0, 2.0, dim=1), set_y=Box(-2.0, 2.0, dim=1),
        value=lambda x, y: float(-x @ x),
        grad_x=lambda x, y: -2.0 * x,
        grad_y=lambda x, y: np.zeros(1),
        kappa_m=4.0)
    report = check_monotone(prob, n_pairs=200, seed=1)
    assert not report["passed"]
    assert report["min_inner"] < -1e-6


def test_check_monotone_passes_on_bilinear():
    prob = bilinear_problem([[2.0, 1.0], [0.0, 1.0]],
                            set_x=Box(-3.0, 3.0, dim=2),
                            set_y=Box(-3.0, 3.0, dim=2))
    report = check_monotone(prob, n_pairs=300, seed=2)
    assert report["passed"]


def test_lipschitz_ratio_bilinear_below_kappa():
    rng = np.random.default_rng(5)
    B = rng.uniform(0.0, 5.0, size=(6, 6))
    prob = bilinear_problem(B, set_x=Box(-5.0, 5.0, dim=6),
                            set_y=Box(-2.0, 2.0, dim=6))
    norm = np.linalg.norm(B, 2)
    assert prob.kappa_m == pytest.approx(2.0 * norm)
    report = estimate_kappa(prob, n_pairs=500, seed=3)
    assert report["passed"]
    assert report["max_ratio"] <= norm * (1.0 + 1e-8)


def test_lipschitz_ratio_zero_operator():
    prob = SaddleProblem(
        dim_x=1, dim_y=1,
        set_x=Box(-1.0, 1.0, dim=1), set_y=Box(-1.0, 1.0, dim=1),
        value=lambda x, y: 0.0,
        grad_x=lambda x, y: np.zeros(1),
        grad_y=lambda x, y: np.zeros(1),
        kappa_m=0.0)
    report = estimate_kappa(prob, n_pairs=100, seed=4)
    assert report["max_ratio"] == 0.0


def test_lipschitz_ratio_identity_operator():
    prob = quadratic_problem()
    assert prob.kappa_m == pytest.approx(2.0)
    report = estimate_kappa(prob, n_pairs=200, seed=5)
    assert report["max_ratio"] == pytest.approx(1.0, rel=1e-9)


def test_underdeclared_kappa_raises():
    prob = SaddleProblem(
        dim_x=1, dim_y=1,
        set_x=Box(-1.0, 1.0, dim=1), set_y=Box(-1.0, 1.0, dim=1),
        value=lambda x, y: float(5.0 * x @ y),
        grad_x=lambda x, y: 5.0 * y,
        grad_y=lambda x, y: 5.0 * x,
        kappa_m=0.2)
    with pytest.raises(ValidationError) as info:
        estimate_kappa(prob, n_pairs=200, seed=6)
    # the message names the first pair over the bound, as the loop did
    assert str(info.value) == loop_kappa(prob, 200, 6)


def test_vi_residual_zero_at_interior_saddle():
    prob = quadratic_problem()
    assert vi_residual(prob, np.zeros(2)) == 0.0


def test_vi_residual_positive_off_saddle():
    rng = np.random.default_rng(9)
    B = rng.uniform(0.0, 5.0, size=(10, 10))
    prob = bilinear_problem(B, set_x=Box(-5.0, 5.0, dim=10),
                            set_y=Box(-2.0, 2.0, dim=10))
    r = vi_residual(prob, np.ones(20))
    assert r > 0.0


def test_spectral_norm_matches_numpy():
    rng = np.random.default_rng(13)
    for _ in range(10):
        M = rng.normal(size=(8, 5))
        assert spectral_norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-8)


def test_spectral_norm_rank_one():
    M = 2.5 * np.ones((10, 10))
    assert spectral_norm(M) == pytest.approx(25.0, rel=1e-10)
    # never below the exact value, and above it by the margin alone
    assert 25.0 <= spectral_norm(M) <= 25.0 * (1.0 + 1e-13)


def test_spectral_norm_bounds_the_largest_singular_value():
    rng = np.random.default_rng(29)
    for shape in [(1, 1), (3, 7), (8, 5), (20, 20), (64, 3)]:
        for _ in range(20):
            M = rng.normal(size=shape) * rng.uniform(1e-3, 1e3)
            top = np.linalg.svd(M, compute_uv=False)[0]
            assert top <= spectral_norm(M) <= top * (1.0 + 1e-12)
    assert spectral_norm(np.zeros((4, 3))) == 0.0


def test_split_join_roundtrip():
    prob = bilinear_problem(np.ones((3, 2)))
    z = np.arange(5.0)
    x, y = prob.split(z)
    assert x.size == 3 and y.size == 2


def test_stacks_without_fused_hooks_go_row_by_row():
    B = np.arange(6.0).reshape(2, 3) - 2.5
    prob = bilinear_problem(B)
    Z = np.random.default_rng(4).normal(size=(5, prob.dim))
    F = operator_F(prob, Z)
    f = objective(prob, Z)
    assert F.shape == Z.shape and f.shape == (5,)
    for i in range(5):
        assert F[i].tobytes() == operator_F(prob, Z[i]).tobytes()
        assert f[i] == objective(prob, Z[i])
    assert isinstance(objective(prob, Z[0]), float)
    deep = Z[:4].reshape(2, 2, prob.dim)
    assert operator_F(prob, deep).tobytes() == F[:4].reshape(2, 2, -1).tobytes()
    assert objective(prob, deep).tobytes() == f[:4].reshape(2, 2).tobytes()


def test_fused_hooks_take_the_whole_stack():
    prob = quadratic_problem()
    calls = []

    def build(lead):
        calls.append(("build", lead))
        return lambda z: calls.append(z.shape) or z * [1.0, 1.0]

    prob.operator = build
    prob.objective = lambda z: calls.append(z.shape) or np.zeros(z.shape[:-1])
    Z = np.ones((7, 2))
    operator_F(prob, Z)
    objective(prob, Z)
    assert calls == [("build", (7,)), (7, 2), (7, 2)]


def loop_monotone(problem, n_pairs, seed):
    """Reference: `check_monotone`'s products taken one pair at a time."""
    rng = np.random.default_rng(seed)
    z1 = sample_points(problem.domain, n_pairs, rng)
    z2 = sample_points(problem.domain, n_pairs, rng)
    f1, f2 = operator_F(problem, z1), operator_F(problem, z2)
    min_inner, worst = np.inf, None
    for a, b, fa, fb in zip(z1, z2, f1, f2):
        inner = float((fa - fb).dot(a - b))
        if inner < min_inner:
            min_inner, worst = inner, (a.copy(), b.copy())
    return min_inner, worst


def loop_kappa(problem, n_pairs, seed, rel_tol=1e-8):
    """Reference: `estimate_kappa`'s ratios taken one pair at a time."""
    rng = np.random.default_rng(seed)
    z1 = sample_points(problem.domain, n_pairs, rng)
    z2 = sample_points(problem.domain, n_pairs, rng)
    f1, f2 = operator_F(problem, z1), operator_F(problem, z2)
    kappa, max_ratio = problem.kappa_m, 0.0
    for a, b, fa, fb in zip(z1, z2, f1, f2):
        gap = np.sqrt((a - b).dot(a - b))
        if gap == 0.0:
            continue
        ratio = float(np.sqrt((fa - fb).dot(fa - fb)) / gap)
        if ratio > kappa * (1.0 + rel_tol):
            return ("sampled Lipschitz ratio {:.12g} exceeds declared kappa_m"
                    " {:.12g} at pair z1={}, z2={}".format(ratio, kappa, a, b))
        max_ratio = max(max_ratio, ratio)
    return max_ratio


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def stacked_preset(name):
    from saddlenet import allocation, consensus
    from saddlenet.harness import PRESETS
    problem = PRESETS[name]["build"](0)
    module = {"consensus": consensus,
              "allocation": allocation}.get(PRESETS[name]["kind"])
    return problem if module is None else module.as_saddle_problem(problem)


def nan_operator_problem():
    # F is NaN wherever x > 0.5, so about a quarter of the products are NaN
    return SaddleProblem(
        dim_x=1, dim_y=1,
        set_x=Box(-1.0, 1.0, dim=1), set_y=Box(-1.0, 1.0, dim=1),
        value=lambda x, y: 0.0,
        grad_x=lambda x, y: np.where(x > 0.5, np.nan, x - 2.0 * y),
        grad_y=lambda x, y: 2.0 * x + y,
        kappa_m=4.0)


@pytest.mark.parametrize("name", ["example1", "quadratic-saddle", "consensus5",
                                  "allocation3", "example2",
                                  "consensus5-badgrad", "nan-operator"])
def test_sampled_checks_match_the_per_pair_loop(name):
    # the batched row dots keep every pair's bits, the first witness pair
    # and the skipping of NaN products
    problem = (nan_operator_problem() if name == "nan-operator"
               else stacked_preset(name))
    min_inner, worst = loop_monotone(problem, 1000, 3)
    report = check_monotone(problem, n_pairs=1000, seed=3)
    assert same_bits(report["min_inner"], min_inner)
    assert np.array_equal(report["worst_pair"][0], worst[0])
    assert np.array_equal(report["worst_pair"][1], worst[1])
    assert same_bits(estimate_kappa(problem, n_pairs=1000, seed=3)
                     ["max_ratio"], loop_kappa(problem, 1000, 3))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sampled_checks_on_a_half_open_box():
    # the allocation-style constraint x >= 0: its open end is sampled
    # inside the finite bounding box, not over an infinite range
    B = np.array([[1.0, -2.0], [0.5, 3.0]])
    prob = bilinear_problem(B, set_x=Box(0.0, np.inf, dim=2))
    pts = sample_points(prob.domain, 100, np.random.default_rng(0))
    assert np.isfinite(pts).all()
    assert all(prob.domain.contains(p) for p in pts)
    assert pts[:, :2].min() >= 0.0
    assert check_monotone(prob, n_pairs=200, seed=0)["passed"]
    report = estimate_kappa(prob, n_pairs=200, seed=0)
    assert 0.0 < report["max_ratio"] <= report["kappa_m"]


def test_check_monotone_without_a_finite_product_has_no_witness():
    prob = nan_operator_problem()
    prob.grad_y = lambda x, y: np.full(1, np.nan)
    report = check_monotone(prob, n_pairs=50, seed=0)
    assert report == {"min_inner": np.inf, "passed": True, "worst_pair": None}


# the three fused hooks and one problem without hooks
HOOK_CASES = {
    "psi": lambda: allocation.as_saddle_problem(catalog.example2_allocation(3)),
    "phi": lambda: consensus.as_saddle_problem(catalog.consensus_quadratics(5)),
    "bilinear": lambda: catalog.example1_bilinear(0),
    "hookless": lambda: bilinear_problem([[1.0, -2.0], [0.5, 3.0]]),
}
FUSED = ["psi", "phi", "bilinear"]


def hook_case(name, seed=0):
    """The problem, one point and a stack of points ``(2, 3, dim)``."""
    prob = HOOK_CASES[name]()
    rng = np.random.default_rng(seed)
    return (prob, 3.0 * rng.normal(size=prob.dim),
            3.0 * rng.normal(size=(2, 3, prob.dim)))


def counting_builder(prob):
    """Wrap `prob`'s workspace builder; count builds and evaluations."""
    build, counts = prob.operator, {"builds": [], "evaluations": 0}

    def counted(lead):
        counts["builds"].append(lead)
        evaluate = build(lead)

        def counted_evaluate(z):
            counts["evaluations"] += 1
            return evaluate(z)

        return counted_evaluate

    prob.operator = counted
    return counts


@pytest.mark.parametrize("name", sorted(HOOK_CASES))
def test_points_are_checked_before_any_oracle(name):
    # a list is taken as the array it holds; a last axis other than dim
    # is refused, naming the shape, on the hooked and the hookless path
    prob, z, Z = hook_case(name)
    assert operator_F(prob, z.tolist()).tobytes() == operator_F(prob, z).tobytes()
    assert operator_F(prob, Z.tolist()).tobytes() == operator_F(prob, Z).tobytes()
    assert objective(prob, z.tolist()) == objective(prob, z)
    assert (objective(prob, Z.tolist()).tobytes()
            == objective(prob, Z).tobytes())
    for shape in [(prob.dim + 1,), (2, prob.dim + 1)]:
        for evaluate in (operator_F, objective):
            with pytest.raises(ValidationError, match=r"shape \({}".format(
                    shape[0])):
                evaluate(prob, np.zeros(shape))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", FUSED)
def test_run_builds_one_workspace_and_evaluates_once_per_call(name, method):
    prob, z, _ = hook_case(name)
    counts = counting_builder(prob)
    cfg = SolverConfig(method, max_iters=40, stop_tol=0.0)
    trace = run(prob, cfg, z)
    assert counts["builds"] == [()]
    assert counts["evaluations"] == trace.gradient_calls


@pytest.mark.parametrize("name", FUSED)
def test_operator_F_builds_one_workspace_per_call(name):
    prob, z, Z = hook_case(name)
    counts = counting_builder(prob)
    for _ in range(2):
        operator_F(prob, Z)
        operator_F(prob, z)
    assert counts["builds"] == [(2, 3), ()] * 2
    assert counts["evaluations"] == 4


@pytest.mark.parametrize("name", sorted(HOOK_CASES))
def test_point_and_stack_calls_leave_each_other_alone(name):
    prob, z, Z = hook_case(name)
    point, stack = operator_F(prob, z), operator_F(prob, Z)
    for _ in range(2):
        assert operator_F(prob, Z).tobytes() == stack.tobytes()
        assert operator_F(prob, z).tobytes() == point.tobytes()


@pytest.mark.parametrize("name", sorted(HOOK_CASES))
def test_a_result_without_out_is_never_written_again(name):
    prob, z, Z = hook_case(name)
    point, stack = operator_F(prob, z), operator_F(prob, Z)
    kept = point.tobytes(), stack.tobytes()
    operator_F(prob, 2.0 * z + 1.0)
    operator_F(prob, 2.0 * Z + 1.0)
    assert (point.tobytes(), stack.tobytes()) == kept


def test_fused_point_workspaces_are_per_thread():
    # three threads run and evaluate one problem at once, from different
    # points, and each gets the bytes it gets alone; a thread switch
    # every microsecond interleaves their evaluations, so a workspace
    # shared between them would mix their values
    prob, z, _ = hook_case("psi")
    cfg = SolverConfig("EG", max_iters=150, stop_tol=0.0)
    points = [z, 2.0 * z, -z]

    def work(p):
        return run(prob, cfg, p).z.tobytes(), operator_F(prob, p).tobytes()

    want = [work(p) for p in points]
    got = [None] * len(points)

    def evaluate(i):
        got[i] = [work(points[i]) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=evaluate, args=(i,))
                   for i in range(len(points))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 3 for w in want]
