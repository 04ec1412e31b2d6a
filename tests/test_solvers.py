import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from saddlenet import allocation, catalog, consensus
from saddlenet.core import (SaddleProblem, ValidationError, operator_F,
                            vi_residual)
from saddlenet.oracle import solve_allocation_kkt
from saddlenet.sets import Ball, Box, WholeSpace
from saddlenet.solvers import (METHODS, DivergenceError, SolverConfig,
                               delta_diagnostic, eg_contraction_check, run,
                               step_bound, step_eg, step_gda, step_ogda)
from test_allocation import matrix_coupled


def xy_problem(set_x=None, set_y=None):
    return SaddleProblem(
        dim_x=1, dim_y=1,
        set_x=set_x or WholeSpace(1),
        set_y=set_y or WholeSpace(1),
        value=lambda x, y: float(x @ y),
        grad_x=lambda x, y: y.copy(),
        grad_y=lambda x, y: x.copy(),
        kappa_m=2.0)


def zero_problem():
    return SaddleProblem(
        dim_x=1, dim_y=1,
        set_x=Box(-1.0, 1.0, dim=1), set_y=Box(-1.0, 1.0, dim=1),
        value=lambda x, y: 0.0,
        grad_x=lambda x, y: np.zeros(1),
        grad_y=lambda x, y: np.zeros(1),
        kappa_m=0.0)


def test_step_bounds():
    assert step_bound("OGDA", 4.0) == pytest.approx(0.125)
    assert step_bound("EG", 4.0) == pytest.approx(0.25)
    assert step_bound("GDA", 4.0) == np.inf
    with pytest.raises(ValidationError):
        step_bound("NEWTON", 4.0)


@pytest.mark.parametrize("method", ["GDA", "OGDA", "EG"])
@pytest.mark.parametrize("kappa_m", [np.nan, np.inf, -1.0])
def test_step_bound_refuses_a_bad_constant(method, kappa_m):
    # a NaN constant gave a NaN bound and a default step of 1.0, an
    # infinite one a step of 0.0 that never moves
    with pytest.raises(ValidationError, match="kappa_m must be finite"):
        step_bound(method, kappa_m)
    with pytest.raises(ValidationError, match="kappa_m must be finite"):
        SolverConfig(method).resolved_step(kappa_m)


def test_gda_step_hand_value():
    prob = xy_problem()
    z = step_gda(prob, np.array([1.0, 1.0]), 0.1)
    assert np.allclose(z, [0.9, 1.1], atol=1e-15)


def test_zero_operator_steps_project():
    prob = zero_problem()
    z = np.array([2.0, -3.0])
    assert np.allclose(step_gda(prob, z, 0.1), [1.0, -1.0])
    assert np.allclose(step_ogda(prob, z, z, 0.1), [1.0, -1.0])
    half, nxt = step_eg(prob, z, 0.1)
    assert np.allclose(half, [1.0, -1.0])
    assert np.allclose(nxt, [1.0, -1.0])


def test_ogda_first_step_reduces_to_gda():
    prob = xy_problem()
    z0 = np.array([1.0, 1.0])
    z1 = step_ogda(prob, z0, z0, 0.1)
    assert np.allclose(z1, [0.9, 1.1], atol=1e-15)


def test_ogda_second_step_hand_value():
    prob = xy_problem()
    z0 = np.array([1.0, 1.0])
    z1 = step_ogda(prob, z0, z0, 0.1)
    z2 = step_ogda(prob, z1, z0, 0.1)
    # z2 = z1 - 2 alpha F(z1) + alpha F(z0)
    assert np.allclose(z2, [0.78, 1.18], atol=1e-15)


def test_eg_step_hand_values():
    prob = xy_problem()
    half, nxt = step_eg(prob, np.array([1.0, 1.0]), 0.1)
    assert np.allclose(half, [0.9, 1.1], atol=1e-15)
    assert np.allclose(nxt, [0.89, 1.09], atol=1e-15)


def test_run_zero_iterations_records_start_only():
    prob = xy_problem(Box(-2.0, 2.0, dim=1), Box(-2.0, 2.0, dim=1))
    cfg = SolverConfig("OGDA", max_iters=0, stop_tol=0.0)
    trace = run(prob, cfg, np.array([1.0, 1.0]))
    assert trace.iters.tolist() == [0]
    assert np.allclose(trace.z[0], [1.0, 1.0])


def test_run_matches_manual_ogda_recursion():
    prob = xy_problem(Box(-2.0, 2.0, dim=1), Box(-2.0, 2.0, dim=1))
    alpha = 0.1
    cfg = SolverConfig("OGDA", step_size=alpha, max_iters=20, stop_tol=0.0)
    trace = run(prob, cfg, np.array([1.0, 1.0]))
    z_prev = np.array([1.0, 1.0])
    z = np.array([1.0, 1.0])
    for k in range(20):
        z, z_prev = step_ogda(prob, z, z_prev, alpha), z
        assert trace.z[k + 1].tobytes() == z.tobytes()


def test_run_matches_manual_eg_recursion():
    prob = xy_problem(Box(-2.0, 2.0, dim=1), Box(-2.0, 2.0, dim=1))
    alpha = 0.2
    cfg = SolverConfig("EG", step_size=alpha, max_iters=20, stop_tol=0.0)
    trace = run(prob, cfg, np.array([1.0, 1.0]))
    z = np.array([1.0, 1.0])
    for k in range(20):
        half, z = step_eg(prob, z, alpha)
        assert trace.z[k + 1].tobytes() == z.tobytes()
        assert trace.z_half[k + 1].tobytes() == half.tobytes()


def hand_iterates(problem, method, alpha, z0, iters):
    """Iterates and EG mid-points of the step helpers iterated by hand.

    The helpers allocate every value afresh; `run` steps in buffers it
    owns, and must give the same bits.
    """
    zs, halves = [z0], [None]
    z = z_prev = z0
    for _ in range(iters):
        half = None
        if method == "GDA":
            z_next = step_gda(problem, z, alpha)
        elif method == "OGDA":
            z_next = step_ogda(problem, z, z_prev, alpha)
        else:
            half, z_next = step_eg(problem, z, alpha)
        z_prev, z = z, z_next
        zs.append(z)
        halves.append(half)
    return zs, halves


def example2_seed3():
    prob = catalog.example2_allocation(3)
    return allocation.as_saddle_problem(prob), prob.start()


def consensus5():
    prob = catalog.consensus_quadratics(5)
    return consensus.as_saddle_problem(prob), prob.start()


def example1():
    prob = catalog.example1_bilinear(0)
    return prob, prob.meta["z0"]


def matrix_allocation():
    # the general Psi path: W_i of several shapes, no scalar fast path
    prob = matrix_coupled(0)
    assert prob._wdiag is None
    return allocation.as_saddle_problem(prob), prob.start()


def ball_bilinear():
    # no hooks, and a domain that does not project by one clip
    b = np.array([[1.0, 2.0], [-0.5, 1.5]])
    prob = SaddleProblem(2, 2, Ball(np.zeros(2), 1.0), Box(-1.0, 1.0, dim=2),
                         lambda x, y: float(x @ b @ y),
                         lambda x, y: b @ y, lambda x, y: b.T @ x,
                         kappa_m=2.0 * float(np.linalg.norm(b, 2)))
    return prob, np.array([3.0, -2.0, 0.5, 4.0])


@pytest.mark.parametrize("build, method", [
    (example2_seed3, "OGDA"), (example2_seed3, "EG"),
    (matrix_allocation, "OGDA"), (matrix_allocation, "EG"),
    (consensus5, "OGDA"), (consensus5, "EG"),
    (example1, "GDA"), (example1, "OGDA"), (example1, "EG"),
    (ball_bilinear, "OGDA"), (ball_bilinear, "EG")])
def test_buffered_run_equals_the_step_helpers_bitwise(build, method):
    # the step helpers are the loop's reference oracle: every recorded
    # iterate and mid-point of `run` is theirs to the last bit
    prob, z0 = build()
    iters = 300
    trace = run(prob, SolverConfig(method, max_iters=iters, stop_tol=0.0,
                                   record_every=1), z0)
    zs, halves = hand_iterates(prob, method, trace.alpha, z0, iters)
    assert trace.iters.tolist() == list(range(iters + 1))
    for k in range(iters + 1):
        assert trace.z[k].tobytes() == zs[k].tobytes(), k
        if method == "EG" and k > 0:
            assert trace.z_half[k].tobytes() == halves[k].tobytes(), k
    expected_calls = (2 if method == "EG" else 1) * iters + 1
    assert trace.gradient_calls == expected_calls


def recorded_iters(max_iters, every, stop=None):
    """Row 0, every `every`-th iteration, and the final one (stop or budget)."""
    last = max_iters if stop is None else stop
    return [0] + [k for k in range(1, last + 1) if k % every == 0 or k == last]


def hand_rows(problem, method, alpha, z0, iters):
    """Every column `run` records, per iteration, from the step helpers.

    Residuals by `vi_residual`, step lengths by `np.linalg.norm` and
    ergodic rows from one running sum; row 0 has no step and no average.
    """
    zs, halves = hand_iterates(problem, method, alpha, z0, iters)
    resid = [vi_residual(problem, z) for z in zs]
    steps, ergodic, total = [np.nan], [np.full(z0.size, np.nan)], 0.0
    for k in range(1, iters + 1):
        steps.append(float(np.linalg.norm(zs[k] - zs[k - 1])))
        total = total + (halves[k] if method == "EG" else zs[k])
        ergodic.append(total / k)
    rows = {"z": np.array(zs), "vi_residual": np.array(resid),
            "step_norm": np.array(steps), "ergodic": np.array(ergodic)}
    if method == "EG":
        rows["z_half"] = np.array([np.full(z0.size, np.nan)] + halves[1:])
    return rows


def assert_rows(trace, want, rows):
    """Trace rows equal rows `rows` of the hand columns `want`, bitwise."""
    assert trace.iters.tolist() == rows
    assert (trace.z_half is None) == ("z_half" not in want)
    for name, column in want.items():
        assert getattr(trace, name).tobytes() == column[rows].tobytes(), name


BLOCK_BUILDS = [example1, ball_bilinear]


@pytest.mark.parametrize("method", ["GDA", "OGDA", "EG"])
@pytest.mark.parametrize("build", BLOCK_BUILDS, ids=["clip", "ball"])
def test_rows_at_block_boundaries_equal_the_step_helpers(build, method):
    # budgets just short of, at and past a stop test of 16 rows, two, a
    # long block of 64 and two, and recording grids that fall on and off
    # the edges of both
    prob, z0 = build()
    alpha = SolverConfig(method).resolved_step(prob.kappa_m)
    want = hand_rows(prob, method, alpha, z0, 129)
    for max_iters in (0, 1, 15, 16, 17, 33, 63, 64, 65, 129):
        for every in (1, 3, 16, 17, 64, 65, 100):
            trace = run(prob, SolverConfig(method, max_iters=max_iters,
                                           stop_tol=0.0, record_every=every),
                        z0)
            assert_rows(trace, want, recorded_iters(max_iters, every))
            assert trace.stopped_at is None
            assert trace.gradient_calls == 1 + (2 if method == "EG"
                                                else 1) * max_iters


def pull_problem(set_x):
    """``f = x.x / 2 - y.y / 2``: F(z) = z, so every method contracts to 0.

    From inside the sets the natural-map residual is ``||z||`` and falls
    at every iteration, so each of its values stops a run at one chosen
    iteration.
    """
    return SaddleProblem(2, 2, set_x, Box(-1.0, 1.0, dim=2),
                         lambda x, y: 0.5 * float(x @ x - y @ y),
                         lambda x, y: x.copy(), lambda x, y: -y,
                         kappa_m=1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["GDA", "OGDA", "EG"])
@pytest.mark.parametrize("set_x", [Box(-1.0, 1.0, dim=2),
                                   Ball(np.zeros(2), 1.0)],
                         ids=["clip", "ball"])
def test_a_stop_at_every_offset_of_a_block(set_x, method):
    # stops at iterations 1..80 cover each offset of the four stop tests
    # of the first long block of 64 rows and the first of the second; the
    # run keeps the rows, stop and iteration count of the rule that checks
    # every iteration, and counts the steps it took past the stop
    prob = pull_problem(set_x)
    z0 = np.array([0.5, -0.25, 0.375, 0.125])
    want = hand_rows(prob, method, 0.1, z0, 100)
    resid = want["vi_residual"]
    assert (np.diff(resid) < 0).all()
    k = 2 if method == "EG" else 1
    for stop in range(1, 81):
        for every in (1, 3, 100):
            trace = run(prob, SolverConfig(method, step_size=0.1,
                                           max_iters=100, stop_tol=resid[stop],
                                           record_every=every), z0)
            assert trace.stopped_at == stop
            assert_rows(trace, want, recorded_iters(100, every, stop))
            assert 1 + k * stop <= trace.gradient_calls <= 1 + k * (stop + 15)


def test_a_stop_at_the_start_steps_nowhere():
    prob = pull_problem(Box(-1.0, 1.0, dim=2))
    z0 = np.array([0.5, -0.25, 0.375, 0.125])
    trace = run(prob, SolverConfig("OGDA", max_iters=40, stop_tol=1.0), z0)
    assert trace.stopped_at == 0
    assert trace.iters.tolist() == [0]
    assert trace.gradient_calls == 1


def scripted_problem(path):
    """GDA at step 1 walks `path` in x: F(x) = x - next(x), y stays at 0.

    On the whole space the natural-map residual at a point of the path
    is the length of the step that leaves it.
    """
    following = dict(zip(path, path[1:]))

    def grad_x(x, y):
        return x - following[float(x[0])]

    return SaddleProblem(1, 1, WholeSpace(1), WholeSpace(1),
                         lambda x, y: 0.0, grad_x, lambda x, y: np.zeros(1),
                         kappa_m=1.0)


def test_a_stop_before_a_divergence_in_its_block_wins():
    # iteration 18 leaves a residual of 2^-30 behind; iteration 20 jumps
    # past the divergence guard, in the same block of 16 (17..32)
    path = [float(k) for k in range(19)] + [18.0 + 2.0 ** -30, 1e13]
    prob = scripted_problem(path)
    config = SolverConfig("GDA", step_size=1.0, max_iters=40, stop_tol=1e-9)
    trace = run(prob, config, np.zeros(2))
    assert trace.stopped_at == 18
    assert trace.iters.tolist() == list(range(19))
    assert trace.z[:, 0].tolist() == path[:19]
    assert trace.vi_residual[-1] == 2.0 ** -30
    # iteration 20 stepped, so F was evaluated at z_19 and no further
    assert trace.gradient_calls == 20
    with pytest.raises(DivergenceError) as err:
        run(prob, SolverConfig("GDA", step_size=1.0, max_iters=40,
                               stop_tol=0.0), np.zeros(2))
    assert err.value.iteration == 20


def test_a_stop_in_an_earlier_check_of_a_long_block_wins():
    # iteration 18 leaves a residual of 2^-30 behind and stops the run at
    # the stop test of rows 17..32; iteration 40, in the test of rows
    # 33..48 of the same long block of 64, would jump past the guard
    path = ([float(k) for k in range(19)]
            + [k + 2.0 ** -30 for k in range(18, 39)] + [1e13])
    prob = scripted_problem(path)
    config = SolverConfig("GDA", step_size=1.0, max_iters=100, stop_tol=1e-9)
    trace = run(prob, config, np.zeros(2))
    assert trace.stopped_at == 18
    assert trace.iters.tolist() == list(range(19))
    assert trace.z[:, 0].tolist() == path[:19]
    # the run stepped to the end of the stop test, and no further
    assert trace.gradient_calls == 33
    with pytest.raises(DivergenceError) as err:
        run(prob, SolverConfig("GDA", step_size=1.0, max_iters=100,
                               stop_tol=0.0), np.zeros(2))
    assert err.value.iteration == 40


@pytest.mark.parametrize("stop_tol", [1e-9, 0.0])
def test_a_divergence_in_a_later_check_of_a_long_block_raises_at_it(stop_tol):
    # steps of length 1 pass the stop tests of rows 1..16 and 17..32;
    # iteration 40 jumps past the guard in the third test of the block
    path = [float(k) for k in range(40)] + [1e13]
    prob = scripted_problem(path)
    with pytest.raises(DivergenceError) as err:
        run(prob, SolverConfig("GDA", step_size=1.0, max_iters=100,
                               stop_tol=stop_tol), np.zeros(2))
    assert err.value.iteration == 40


@pytest.mark.parametrize("stop", [15, 18])
def test_a_nan_operator_row_hides_no_earlier_stop(stop):
    # iteration `stop` leaves a residual of 2^-30 behind and F is NaN at
    # the next iterate, so that row's residual is NaN. At 15 the NaN row
    # ends its stop test (rows 1..16); at 18 the step after it diverges,
    # mid-test (rows 17..32). A minimum over the test's residuals would be
    # NaN and miss the stop
    path = [float(k) for k in range(stop + 1)] + [stop + 2.0 ** -30, np.nan]
    prob = scripted_problem(path)
    config = SolverConfig("GDA", step_size=1.0, max_iters=100, stop_tol=1e-9)
    trace = run(prob, config, np.zeros(2))
    assert trace.stopped_at == stop
    assert trace.iters.tolist() == list(range(stop + 1))
    assert trace.vi_residual[-1] == 2.0 ** -30
    assert trace.gradient_calls == 1 + {15: 16, 18: 19}[stop]


def bad_operator_problem(method, bad=None, iterate=None, midpoint=False):
    """x^2/2 - y^2/2 on [-10, 10]^2, so F(z) = z, with F's x entry `bad`
    at `iterate` of a `method` run (no bad value when it is None), or
    with `midpoint` at the mid-point of the EG step to `iterate`.

    EG evaluates F at the mid-point before the iterate, so iterate k's
    value is its evaluation 2k, counted from 0, and the mid-point value
    of the step to it evaluation 2k - 1.
    """
    calls = itertools.count()
    target = None if iterate is None else iterate * (2 if method == "EG" else 1)
    if midpoint:
        target -= 1

    def grad_x(x, y):
        return np.array([bad]) if next(calls) == target else x.copy()

    box = Box(-10.0, 10.0, dim=1)
    return SaddleProblem(1, 1, box, box,
                         lambda x, y: 0.5 * float(x @ x) - 0.5 * float(y @ y),
                         grad_x, lambda x, y: -y, kappa_m=1.0)


@pytest.mark.parametrize("stop_tol", [0.0, 1e-12])
@pytest.mark.parametrize("iterate", [0, 16, 37])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_operator_value_raises_at_its_iterate(bad, method,
                                                          iterate, stop_tol):
    # NaN would turn the next iterate NaN and trip the guard one iteration
    # later; an infinite x entry is clipped to the box bound, and the run
    # would go on from there. Both raise at the iterate, naming the
    # operator; 0 is the start, 16 ends a stop test and 37 is mid-test
    prob = bad_operator_problem(method, bad, iterate)
    config = SolverConfig(method, max_iters=40, stop_tol=stop_tol)
    with pytest.raises(DivergenceError,
                       match="^{} operator value is not finite at iteration"
                             " {}$".format(method, iterate)) as err:
        run(prob, config, np.array([5.0, 3.0]))
    assert err.value.iteration == iterate


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_stop_before_a_non_finite_operator_value_wins(bad, method):
    # the clean run stops at iterate s; a bad value at s + 1 leaves that
    # stop, and one at s raises there
    config = SolverConfig(method, max_iters=200, stop_tol=1e-6)
    z0 = np.array([5.0, 3.0])
    clean = run(bad_operator_problem(method), config, z0)
    stop = clean.stopped_at
    assert stop is not None
    trace = run(bad_operator_problem(method, bad, stop + 1), config, z0)
    assert trace.stopped_at == stop
    assert trace.z.tobytes() == clean.z.tobytes()
    with pytest.raises(DivergenceError, match="operator value") as err:
        run(bad_operator_problem(method, bad, stop), config, z0)
    assert err.value.iteration == stop


@pytest.mark.parametrize("stop_tol", [0.0, 1e-12])
@pytest.mark.parametrize("iterate", [1, 16, 37])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_mid_point_value_raises_at_its_iteration(bad, iterate,
                                                             stop_tol):
    # NaN makes iterate k NaN, a divergence at k; an infinite x entry is
    # clipped to the box bound, and the run would go on from there. Both
    # raise at k, naming the mid-point; 16 ends a stop test and 37 is
    # mid-test
    prob = bad_operator_problem("EG", bad, iterate, midpoint=True)
    config = SolverConfig("EG", max_iters=40, stop_tol=stop_tol)
    with pytest.raises(DivergenceError,
                       match="^EG operator value is not finite at the"
                             " mid-point of iteration {}$".format(iterate)
                       ) as err:
        run(prob, config, np.array([5.0, 3.0]))
    assert err.value.iteration == iterate


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_stop_before_a_non_finite_mid_point_value_wins(bad):
    # the clean run stops at iterate s; a bad mid-point value of the step
    # to s + 1 leaves that stop, and one of the step to s raises there
    config = SolverConfig("EG", max_iters=200, stop_tol=1e-6)
    z0 = np.array([5.0, 3.0])
    clean = run(bad_operator_problem("EG"), config, z0)
    stop = clean.stopped_at
    assert stop is not None
    trace = run(bad_operator_problem("EG", bad, stop + 1, midpoint=True),
                config, z0)
    assert trace.stopped_at == stop
    assert trace.z.tobytes() == clean.z.tobytes()
    with pytest.raises(DivergenceError, match="mid-point") as err:
        run(bad_operator_problem("EG", bad, stop, midpoint=True), config, z0)
    assert err.value.iteration == stop


def first_divergence(problem, method, alpha, z0):
    """The first iteration whose iterate fails the guard, by the step helpers."""
    z = z_prev = z0
    for k in range(1, 1000):
        if method == "GDA":
            z_next = step_gda(problem, z, alpha)
        elif method == "OGDA":
            z_next = step_ogda(problem, z, z_prev, alpha)
        else:
            z_next = step_eg(problem, z, alpha)[1]
        if not np.linalg.norm(z_next) <= 1e12:
            return k
        z_prev, z = z, z_next
    raise AssertionError("no divergence in 1000 iterations")


@pytest.mark.parametrize("method", ["GDA", "OGDA", "EG"])
@pytest.mark.parametrize("x0", [1.0, 3.0, 1e-3, 40.0])
def test_divergence_in_mid_block_raises_at_its_iteration(method, x0):
    # gradient ascent on -x^2 grows x geometrically until the guard trips,
    # at iterations 112..190 that fall on offsets 0..14 of their blocks
    prob = SaddleProblem(
        dim_x=1, dim_y=1,
        set_x=WholeSpace(1), set_y=WholeSpace(1),
        value=lambda x, y: float(-x @ x),
        grad_x=lambda x, y: -2.0 * x,
        grad_y=lambda x, y: np.zeros(1),
        kappa_m=4.0)
    z0 = np.array([x0, 0.0])
    expected = first_divergence(prob, method, 0.1, z0)
    with pytest.raises(DivergenceError) as err:
        run(prob, SolverConfig(method, step_size=0.1, max_iters=1000,
                               stop_tol=1e-8), z0)
    assert err.value.iteration == expected
    assert "iteration {}".format(expected) in str(err.value)


ROW_ARRAYS = ("iters", "z", "z_half", "vi_residual", "step_norm", "ergodic")


@pytest.mark.parametrize("ending", ["budget", "stop", "no-steps"])
@pytest.mark.parametrize("every", [1, 7, 100])
@pytest.mark.parametrize("method", ["GDA", "OGDA", "EG"])
def test_trace_rows_are_copies_of_the_loop_buffers(method, every, ending):
    # the budget runs out mid-block (50 = 3 x 16 + 2), the run stops at
    # iteration 40, mid-block, or it takes no step at all
    prob, z0 = example2_seed3()
    max_iters, stop_tol = {"budget": (50, 0.0), "stop": (50, None),
                           "no-steps": (0, 0.0)}[ending]
    if stop_tol is None:
        full = run(prob, SolverConfig(method, max_iters=50, stop_tol=0.0), z0)
        stop_tol = full.vi_residual[40]
    config = SolverConfig(method, max_iters=max_iters, stop_tol=stop_tol,
                          record_every=every)
    first = run(prob, config, z0)
    assert first.stopped_at == (40 if ending == "stop" else None)
    kept = {name: getattr(first, name).copy() for name in ROW_ARRAYS
            if getattr(first, name) is not None}
    assert ("z_half" in kept) == (method == "EG")
    again = run(prob, config, z0)
    arrays = [getattr(trace, name) for trace in (first, again)
              for name in kept]
    for i, a in enumerate(arrays):
        assert a.shape[0] == first.iters.size
        assert a.base is None
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
    # writing into a returned row reaches neither the loop nor a rerun
    for name in kept:
        getattr(first, name)[-1] = -1
    third = run(prob, config, z0)
    for name, value in kept.items():
        assert getattr(third, name).tobytes() == value.tobytes(), name


@pytest.mark.parametrize("method", ["OGDA", "EG"])
def test_building_the_trace_holds_its_rows_twice_one_column_at_a_time(method):
    # joining every column while all the recorded pieces are still held
    # peaked at 2.2x the kept rows; joining and dropping one column at a
    # time peaks at 1.5-1.65x here
    prob, z0 = consensus5()
    config = SolverConfig(method, max_iters=20000, stop_tol=0.0,
                          record_every=1)
    tracemalloc.start()
    try:
        trace = run(prob, config, z0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(getattr(trace, name).nbytes for name in ROW_ARRAYS
               if getattr(trace, name) is not None)
    assert peak <= 1.8 * kept, (peak, kept)


@pytest.mark.parametrize("method", ["OGDA", "EG"])
def test_a_sparsely_recorded_trace_costs_little_more_than_its_rows(method):
    # one recorded row per chunk of six arrays peaked at 5.5x (OGDA) and
    # 4.3x (EG) the kept rows; joining every `_JOIN_CHUNKS` new chunks
    # during the run peaks at 1.5-1.75x here
    prob, z0 = consensus5()
    config = SolverConfig(method, max_iters=100000, stop_tol=0.0,
                          record_every=100)
    tracemalloc.start()
    try:
        trace = run(prob, config, z0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.iters.size == 1001
    kept = sum(getattr(trace, name).nbytes for name in ROW_ARRAYS
               if getattr(trace, name) is not None)
    assert peak <= 2.0 * kept, (peak, kept)


@pytest.mark.parametrize("method", ["OGDA", "EG"])
def test_a_wide_iterate_keeps_its_block_arrays_at_16_rows(method):
    # at dim 20,000 a block array of 17 rows already holds more than
    # `_BLOCK_FLOATS`, so the long block stays at 16 rows. The four block
    # arrays (EG six, with its mid-points and their operator values) of 17
    # rows peak at 83 (EG 118) rows of the iterate with the work vectors
    # and the trace here; 33 rows would make 132 (EG 198)
    dim = 20000
    prob = SaddleProblem(dim // 2, dim // 2, Box(-1.0, 1.0, dim=dim // 2),
                         Box(-1.0, 1.0, dim=dim // 2),
                         lambda x, y: 0.5 * float(x @ x - y @ y),
                         lambda x, y: x.copy(), lambda x, y: -y, kappa_m=1.0)
    z0 = np.linspace(-1.0, 1.0, dim)
    config = SolverConfig(method, step_size=0.1, max_iters=2, stop_tol=0.0)
    tracemalloc.start()
    try:
        trace = run(prob, config, z0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.iters.tolist() == [0, 1, 2]
    arrays = 6 if method == "EG" else 4
    assert peak <= (17 * arrays + 24) * dim * 8, peak / (dim * 8)


@pytest.mark.parametrize("bad, name", [(np.nan, "nan"), (np.inf, "inf"),
                                       (-np.inf, "-inf")])
@pytest.mark.parametrize("max_iters", [0, 5])
def test_non_finite_start_is_refused_by_name(bad, name, max_iters):
    # it gave a NaN trace at max_iters=0 and "diverged at iteration 1"
    # after it
    prob = xy_problem(Box(-2.0, 2.0, dim=1), Box(-2.0, 2.0, dim=1))
    z0 = np.array([1.0, bad])
    with pytest.raises(ValidationError,
                       match=r"z0\[1\] is {}; the start must be finite"
                       .format(name)):
        run(prob, SolverConfig("OGDA", max_iters=max_iters), z0)


@pytest.mark.parametrize("z_star, message", [
    (np.zeros((2, 2)), r"z_star has shape \(2, 2\), expected \(2,\)$"),
    (np.zeros(3), r"z_star has shape \(3,\), expected \(2,\)$"),
    (np.array([0.0, np.nan]), r"z_star\[1\] is nan; the reference must be finite"),
    (np.array([np.inf, 0.0]), r"z_star\[0\] is inf; the reference must be finite"),
])
@pytest.mark.parametrize("max_iters", [0, 5])
def test_reference_point_is_checked_at_entry(z_star, message, max_iters):
    # a (2, dim) reference gave a trace whose ergodic_gap raised a bare
    # numpy broadcast error when read, a NaN one silent NaN gaps
    prob = xy_problem(Box(-2.0, 2.0, dim=1), Box(-2.0, 2.0, dim=1))
    with pytest.raises(ValidationError, match=message):
        run(prob, SolverConfig("OGDA", max_iters=max_iters),
            np.array([1.0, 1.0]), z_star=z_star)


def test_step_size_bound_enforced():
    prob = xy_problem(Box(-2.0, 2.0, dim=1), Box(-2.0, 2.0, dim=1))
    assert prob.kappa_m == pytest.approx(2.0)
    with pytest.raises(ValidationError):
        run(prob, SolverConfig("OGDA", step_size=0.3), np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        run(prob, SolverConfig("EG", step_size=0.6), np.array([1.0, 1.0]))
    # GDA carries no bound
    trace = run(prob, SolverConfig("GDA", step_size=0.3, max_iters=5,
                                   stop_tol=0.0), np.array([1.0, 1.0]))
    assert trace.iters[-1] == 5


BAD_COUNTS = [True, 2.5, 3.0, "3", None]


@pytest.mark.parametrize("key, minimum", [("max_iters", 0),
                                          ("record_every", 1)])
def test_solver_config_rejects_a_bad_budget(key, minimum):
    for value in BAD_COUNTS + [minimum - 1]:
        with pytest.raises(ValidationError, match=key):
            SolverConfig("OGDA", **{key: value})
    # numpy integers are counts too
    count = getattr(SolverConfig("OGDA", **{key: np.int64(7)}), key)
    assert count == 7 and type(count) is int


def test_solver_config_rejects_a_nan_stop_tol():
    # early stopping compares the residual with stop_tol; NaN never stops
    with pytest.raises(ValidationError, match="stop_tol"):
        SolverConfig("OGDA", stop_tol=float("nan"))
    assert SolverConfig("OGDA", stop_tol=0.0).stop_tol == 0.0


def test_default_step_is_ninety_percent_of_bound():
    prob = xy_problem(Box(-2.0, 2.0, dim=1), Box(-2.0, 2.0, dim=1))
    t_ogda = run(prob, SolverConfig("OGDA", max_iters=1, stop_tol=0.0),
                 np.array([1.0, 1.0]))
    assert t_ogda.alpha == pytest.approx(0.9 / 4.0)
    t_eg = run(prob, SolverConfig("EG", max_iters=1, stop_tol=0.0),
               np.array([1.0, 1.0]))
    assert t_eg.alpha == pytest.approx(0.9 / 2.0)


def test_divergence_guard_raises():
    # gradient ascent on a concave-in-x objective blows up
    prob = SaddleProblem(
        dim_x=1, dim_y=1,
        set_x=WholeSpace(1), set_y=WholeSpace(1),
        value=lambda x, y: float(-x @ x),
        grad_x=lambda x, y: -2.0 * x,
        grad_y=lambda x, y: np.zeros(1),
        kappa_m=4.0)
    cfg = SolverConfig("GDA", step_size=2.0, max_iters=100000, stop_tol=0.0)
    with pytest.raises(DivergenceError):
        run(prob, cfg, np.array([1.0, 0.0]))


def test_stop_tol_zero_disables_early_stopping():
    prob = zero_problem()
    cfg = SolverConfig("OGDA", step_size=0.1, max_iters=50, stop_tol=0.0)
    trace = run(prob, cfg, np.array([0.0, 0.0]))
    assert trace.stopped_at is None
    assert trace.iters[-1] == 50


def test_stop_tol_positive_stops_at_threshold():
    prob = xy_problem(Box(-2.0, 2.0, dim=1), Box(-2.0, 2.0, dim=1))
    cfg = SolverConfig("OGDA", max_iters=100000, stop_tol=1e-8)
    trace = run(prob, cfg, np.array([1.0, 1.0]))
    assert trace.stopped_at is not None
    assert trace.vi_residual[-1] <= 1e-8


def test_ergodic_average_is_mean_of_iterates():
    prob = xy_problem(Box(-2.0, 2.0, dim=1), Box(-2.0, 2.0, dim=1))
    cfg = SolverConfig("OGDA", step_size=0.1, max_iters=30, stop_tol=0.0)
    trace = run(prob, cfg, np.array([1.0, 1.0]))
    for row in range(1, trace.iters.size):
        T = trace.iters[row]
        expect = np.mean(trace.z[1:row + 1], axis=0)
        assert np.allclose(trace.ergodic[row], expect, atol=1e-13)
        assert T == row


def test_eg_ergodic_average_is_mean_of_midpoints():
    prob = xy_problem(Box(-2.0, 2.0, dim=1), Box(-2.0, 2.0, dim=1))
    cfg = SolverConfig("EG", step_size=0.2, max_iters=30, stop_tol=0.0)
    trace = run(prob, cfg, np.array([1.0, 1.0]))
    for row in range(1, trace.iters.size):
        expect = np.mean(trace.z_half[1:row + 1], axis=0)
        assert np.allclose(trace.ergodic[row], expect, atol=1e-13)


def test_rate_certificate_formula():
    prob = xy_problem(Box(-2.0, 2.0, dim=1), Box(-2.0, 2.0, dim=1))
    cfg = SolverConfig("OGDA", step_size=0.1, max_iters=10, stop_tol=0.0)
    trace = run(prob, cfg, np.array([1.0, 1.0]), z_star=np.zeros(2))
    bound = trace.rate_certificate()
    assert bound[0] == np.inf
    num = 2.0  # ||z0 - z*||^2
    for row in range(1, trace.iters.size):
        assert bound[row] == pytest.approx(num / (2.0 * 0.1 * trace.iters[row]))


def test_eta_and_rho_formulas():
    # eta = 1/(2 alpha) - kappa_m at alpha = 0.01
    kappa = 12.5
    eta = 1.0 / (2.0 * 0.01) - kappa
    assert eta == pytest.approx(50.0 - kappa)
    # rho = (1 - alpha^2 kappa^2) / (2 alpha) at alpha = 0.01, kappa = 10
    rho = (1.0 - 0.01 ** 2 * 10.0 ** 2) / (2.0 * 0.01)
    assert rho == pytest.approx(49.5)


def test_delta_diagnostic_zero_at_fixed_reference():
    prob = zero_problem()
    cfg = SolverConfig("OGDA", step_size=0.1, max_iters=5, stop_tol=0.0)
    z_star = np.array([0.5, -0.5])
    trace = run(prob, cfg, z_star.copy(), z_star=z_star)
    delta = delta_diagnostic(prob, trace)
    assert np.allclose(delta, 0.0, atol=1e-15)


def test_delta_diagnostic_descent_on_example1():
    prob = catalog.example1_bilinear(seed=0)
    alpha, _ = catalog.paper_step_size(prob, "OGDA")
    cfg = SolverConfig("OGDA", step_size=alpha, max_iters=400, stop_tol=0.0)
    trace = run(prob, cfg, prob.meta["z0"], z_star=prob.meta["z_star"])
    delta = delta_diagnostic(prob, trace)
    eta = 1.0 / (2.0 * alpha) - prob.kappa_m
    steps = np.sum((trace.z[1:] - trace.z[:-1]) ** 2, axis=1)
    viol = np.max(delta[1:] - delta[:-1] + eta * steps)
    assert viol <= 1e-10
    assert np.all(delta[1:] <= delta[:-1] + 1e-10)
    assert trace.delta_k is delta


def test_delta_diagnostic_rejects_wrong_method_and_gaps():
    prob = catalog.example1_bilinear(seed=0)
    cfg = SolverConfig("EG", max_iters=10, stop_tol=0.0)
    trace = run(prob, cfg, prob.meta["z0"])
    with pytest.raises(ValueError):
        delta_diagnostic(prob, trace)
    cfg = SolverConfig("OGDA", max_iters=10, stop_tol=0.0, record_every=5)
    sparse = run(prob, cfg, prob.meta["z0"], z_star=prob.meta["z_star"])
    with pytest.raises(ValueError):
        delta_diagnostic(prob, sparse)


@pytest.mark.parametrize("unfit, method, every, with_ref, message", [
    ("wrong-method", "EG", 1, True,
     "delta diagnostic is defined along OGDA traces"),
    ("gaps", "OGDA", 5, True,
     "delta diagnostic needs consecutively recorded iterates"),
    ("no-reference", "OGDA", 1, False,
     "delta diagnostic needs a reference saddle point"),
    ("wrong-method", "OGDA", 1, True,
     "contraction check is defined along EG traces"),
    ("gaps", "EG", 5, True,
     "contraction check needs consecutively recorded iterates"),
    ("no-reference", "EG", 1, False,
     "contraction check needs a reference saddle point")])
def test_diagnostics_refuse_an_unfit_trace(unfit, method, every, with_ref,
                                            message):
    # the delta diagnostic reads OGDA traces and the contraction check EG
    # ones; both need every iteration and a reference point
    prob = catalog.example1_bilinear(seed=0)
    cfg = SolverConfig(method, max_iters=10, stop_tol=0.0, record_every=every)
    trace = run(prob, cfg, prob.meta["z0"],
                z_star=prob.meta["z_star"] if with_ref else None)
    check = (functools.partial(delta_diagnostic, prob)
             if message.startswith("delta") else eg_contraction_check)
    with pytest.raises(ValueError) as info:
        check(trace)
    assert str(info.value) == message


def test_eg_contraction_on_example1():
    prob = catalog.example1_bilinear(seed=0)
    alpha, _ = catalog.paper_step_size(prob, "EG")
    cfg = SolverConfig("EG", step_size=alpha, max_iters=400, stop_tol=0.0)
    trace = run(prob, cfg, prob.meta["z0"], z_star=prob.meta["z_star"])
    report = eg_contraction_check(trace)
    assert report["holds"]
    assert report["max_violation"] <= 1e-10
    assert report["rho"] > 0.0


def test_eg_contraction_trivial_at_reference():
    prob = zero_problem()
    cfg = SolverConfig("EG", step_size=0.1, max_iters=5, stop_tol=0.0)
    z_star = np.array([0.25, 0.25])
    trace = run(prob, cfg, z_star.copy(), z_star=z_star)
    report = eg_contraction_check(trace)
    assert report["holds"]
    assert report["max_violation"] == pytest.approx(0.0, abs=1e-15)


def test_run_is_deterministic():
    prob = catalog.example1_bilinear(seed=0)
    cfg = SolverConfig("OGDA", max_iters=200, stop_tol=0.0)
    t1 = run(prob, cfg, prob.meta["z0"])
    t2 = run(prob, cfg, prob.meta["z0"])
    assert np.array_equal(t1.z, t2.z)
    assert np.array_equal(t1.f_value, t2.f_value)


def test_trace_csv_roundtrip(tmp_path):
    prob = catalog.example1_bilinear(seed=0)
    cfg = SolverConfig("OGDA", max_iters=20, stop_tol=0.0)
    trace = run(prob, cfg, prob.meta["z0"], z_star=prob.meta["z_star"])
    delta_diagnostic(prob, trace)
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "iter"
    assert len(lines) == trace.iters.size + 1
    row1 = lines[2].split(",")
    assert float(row1[1]) == pytest.approx(trace.f_value[1], rel=1e-15)


@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("method", ["OGDA", "EG"])
def test_dist_to_ref_equals_the_row_norms(method, every):
    prob = catalog.example1_bilinear(seed=0)
    z_star = np.random.default_rng(5).uniform(-2.0, 2.0, prob.dim)
    z_star[:3] = -0.0
    cfg = SolverConfig(method, max_iters=200, stop_tol=0.0,
                       record_every=every)
    trace = run(prob, cfg, prob.meta["z0"], z_star=z_star)
    assert trace.iters.size == (201 if every == 1 else 30)
    rows = np.array([np.linalg.norm(z - z_star) for z in trace.z])
    assert trace.dist_to_ref.tobytes() == rows.tobytes()
    bare = run(prob, cfg, prob.meta["z0"])
    assert bare.dist_to_ref.shape == (trace.iters.size,)
    assert np.all(np.isnan(bare.dist_to_ref))


def csv_per_cell(trace):
    """The trace CSV formatted one cell at a time."""
    def fmt(v):
        if v is None or (isinstance(v, float) and not np.isfinite(v)):
            return ""
        return "%.17g" % v

    delta = trace.delta_k
    lines = ["iter,f_value,vi_residual,step_norm,dist_to_ref,ergodic_gap,"
             "delta_k"]
    for i in range(trace.iters.size):
        lines.append(",".join(
            [str(int(trace.iters[i]))]
            + [fmt(float(col[i])) for col in (
                trace.f_value, trace.vi_residual, trace.step_norm,
                trace.dist_to_ref, trace.ergodic_gap)]
            + [fmt(None if delta is None else float(delta[i]))]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("with_delta", [False, True])
def test_trace_csv_equals_the_per_cell_format(tmp_path, with_delta):
    prob = catalog.example1_bilinear(seed=0)
    cfg = SolverConfig("OGDA", max_iters=40, stop_tol=0.0)
    trace = run(prob, cfg, prob.meta["z0"], z_star=prob.meta["z_star"])
    if with_delta:
        delta_diagnostic(prob, trace)
    # NaN, infinities, signed zeros and extreme magnitudes in every column
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1.7e308, 0.1]
    for name in ("f_value", "vi_residual", "step_norm", "dist_to_ref",
                 "ergodic_gap"):
        getattr(trace, name)[1:1 + len(specials)] = specials
    if with_delta:
        trace.delta_k[-len(specials):] = specials
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    assert path.read_text() == csv_per_cell(trace)


def test_infeasible_start_projected_on_first_step():
    prob = xy_problem(Box(-2.0, 2.0, dim=1), Box(-2.0, 2.0, dim=1))
    cfg = SolverConfig("OGDA", step_size=0.1, max_iters=3, stop_tol=0.0)
    trace = run(prob, cfg, np.array([10.0, 10.0]))
    assert prob.domain.contains(trace.z[1], tol=1e-12)


def test_gradient_call_accounting():
    prob = xy_problem(Box(-2.0, 2.0, dim=1), Box(-2.0, 2.0, dim=1))
    t = run(prob, SolverConfig("OGDA", max_iters=10, stop_tol=0.0),
            np.array([1.0, 1.0]))
    assert t.gradient_calls == 11
    t = run(prob, SolverConfig("EG", max_iters=10, stop_tol=0.0),
            np.array([1.0, 1.0]))
    assert t.gradient_calls == 21


SADDLE_PRESETS = [lambda: catalog.example1_bilinear(seed=0),
                  catalog.quadratic_saddle]


@pytest.mark.parametrize("method", ["GDA", "OGDA", "EG"])
@pytest.mark.parametrize("build", SADDLE_PRESETS,
                         ids=["example1", "quadratic-saddle"])
def test_lazy_f_value_is_objective_per_row(build, method):
    prob = build()
    z_star = prob.meta["z_star"]
    cfg = SolverConfig(method, max_iters=200, stop_tol=0.0)
    trace = run(prob, cfg, prob.meta["z0"], z_star=z_star)
    eager = np.array([float(prob.value(*prob.split(z))) for z in trace.z])
    assert trace.f_value.tobytes() == eager.tobytes()
    # the derived columns equal the per-row values the loop used to store
    dist = np.array([np.linalg.norm(z - z_star) for z in trace.z])
    assert trace.dist_to_ref.tobytes() == dist.tobytes()
    f_star = float(prob.value(*prob.split(z_star)))
    gap = [np.nan] + [abs(float(prob.value(*prob.split(e))) - f_star)
                      for e in trace.ergodic[1:]]
    assert trace.ergodic_gap.tobytes() == np.array(gap).tobytes()


def test_run_evaluates_the_objective_once_for_the_reference(monkeypatch):
    # a stacked allocation run with a reference point evaluates L2 at the
    # reference alone; the ergodic gap is one stacked call when read
    prob = catalog.allocation_quadratics()
    kkt = solve_allocation_kkt(prob)
    z_star = np.concatenate([kkt.y, kkt.a.ravel(), kkt.lam.ravel()])
    stacked = allocation.as_saddle_problem(prob)
    calls = []
    l2 = allocation.lagrangian_L2

    def counted(*args):
        calls.append(args[1].shape)
        return l2(*args)

    monkeypatch.setattr(allocation, "lagrangian_L2", counted)
    cfg = SolverConfig("OGDA", max_iters=300, stop_tol=0.0)
    trace = run(stacked, cfg, prob.start(), z_star=z_star)
    assert len(calls) == 1
    gap = trace.ergodic_gap
    assert len(calls) == 2 and calls[1][0] == trace.iters.size - 1
    f_star = l2(prob, *prob.split(z_star))
    eager = [np.nan] + [abs(l2(prob, *prob.split(e)) - f_star)
                        for e in trace.ergodic[1:]]
    assert gap.tobytes() == np.array(eager).tobytes()


@pytest.mark.parametrize("method", ["GDA", "OGDA", "EG"])
def test_sparse_rows_equal_dense_rows(method):
    # 73 rows from 32 blocks, and a final row off the recording grid
    prob = catalog.example1_bilinear(seed=0)
    z0, z_star = prob.meta["z0"], prob.meta["z_star"]
    dense = run(prob, SolverConfig(method, max_iters=500, stop_tol=0.0),
                z0, z_star=z_star)
    sparse = run(prob, SolverConfig(method, max_iters=500, stop_tol=0.0,
                                    record_every=7), z0, z_star=z_star)
    rows = list(range(0, 500, 7)) + [500]
    assert sparse.iters.tolist() == rows
    for name in ("z", "ergodic", "vi_residual", "step_norm", "ergodic_gap",
                 "dist_to_ref", "f_value"):
        assert (getattr(sparse, name).tobytes()
                == getattr(dense, name)[rows].tobytes()), name
    if method == "EG":
        assert sparse.z_half.tobytes() == dense.z_half[rows].tobytes()
    else:
        assert sparse.z_half is None
