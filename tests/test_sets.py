import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlenet.sets import (Ball, Box, Product, WholeSpace,
                            normal_cone_residual, sample_points)


def test_box_scalar_clamp():
    b = Box(-5.0, 5.0, dim=1)
    assert b.project(np.array([7.0]))[0] == 5.0
    assert b.project(np.array([-9.0]))[0] == -5.0
    assert b.project(np.array([0.25]))[0] == 0.25


def test_whole_space_identity():
    w = WholeSpace(3)
    p = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(w.project(p), p)


def test_ball_projection_matches_grid_search():
    ball = Ball(np.zeros(2), 1.0)
    p = np.array([3.0, 4.0])
    q = ball.project(p)
    assert np.allclose(q, [0.6, 0.8], atol=1e-12)
    # brute-force check over a fine disc grid
    ts = np.linspace(0.0, 2.0 * np.pi, 4001)
    rs = np.linspace(0.0, 1.0, 401)
    best = np.inf
    for r in rs:
        pts = np.stack([r * np.cos(ts), r * np.sin(ts)], axis=1)
        best = min(best, np.min(np.linalg.norm(pts - p, axis=1)))
    assert np.linalg.norm(q - p) <= best + 1e-4


def test_ball_interior_point_unchanged():
    ball = Ball(np.array([1.0, 1.0]), 2.0)
    p = np.array([1.5, 0.5])
    assert np.array_equal(ball.project(p), p)


def test_contains_tolerance():
    b = Box(-1.0, 1.0, dim=1)
    assert b.contains(np.array([1.0000000001]), tol=1e-9)
    assert not b.contains(np.array([1.1]), tol=1e-9)


def test_projection_is_idempotent_and_nonexpansive():
    rng = np.random.default_rng(7)
    sets = [Box(-2.0, 3.0, dim=4),
            Ball(rng.normal(size=3), 1.5),
            Product(Box(-1.0, 1.0, dim=2), WholeSpace(2))]
    for cset in sets:
        for _ in range(50):
            p = rng.normal(scale=5.0, size=cset.dim)
            q = rng.normal(scale=5.0, size=cset.dim)
            pp = cset.project(p)
            qq = cset.project(q)
            assert np.allclose(cset.project(pp), pp, atol=1e-12)
            assert np.linalg.norm(pp - qq) <= np.linalg.norm(p - q) + 1e-12
            assert cset.contains(pp, tol=1e-9)


def test_product_projects_blockwise():
    prod = Product(Box(-1.0, 1.0, dim=2), Ball(np.zeros(2), 1.0))
    p = np.array([2.0, -3.0, 3.0, 4.0])
    q = prod.project(p)
    assert np.allclose(q[:2], [1.0, -1.0])
    assert np.allclose(q[2:], [0.6, 0.8])
    assert prod.dim == 4


def test_normal_cone_zero_gradient():
    b = Box(-1.0, 1.0, dim=1)
    assert normal_cone_residual(b, np.array([0.0]), np.array([0.0])) == 0.0


def test_normal_cone_minimizer_at_face():
    b = Box(0.0, 2.0, dim=1)
    p = np.array([0.0])
    # g = 1 pushes into the set; p is the constrained minimizer
    val = normal_cone_residual(b, p, np.array([1.0]))
    assert abs(val - 0.0) <= 1e-12
    # g = -1 makes q = 2 profitable: min g.(q - p) = -2
    val = normal_cone_residual(b, p, np.array([-1.0]))
    assert abs(val - (-2.0)) <= 1e-12


def test_normal_cone_takes_the_best_end_of_every_coordinate():
    # the minimizing q is the corner (-1, -1), not a point of an edge
    b = Box(-1.0, 1.0, dim=2)
    assert normal_cone_residual(b, np.zeros(2), np.ones(2)) == -2.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_normal_cone_at_infinite_ends():
    half = Box(0.0, np.inf, dim=2)
    p = np.array([0.0, 3.0])
    # pushing into the set, and no direction at all, along the open end
    assert normal_cone_residual(half, p, np.array([1.0, 0.0])) == 0.0
    assert normal_cone_residual(half, p, np.array([-1.0, 0.0])) == -np.inf
    assert normal_cone_residual(half, p, np.array([0.0, 2.0])) == -6.0
    assert normal_cone_residual(WholeSpace(3), np.ones(3), np.zeros(3)) == 0.0
    assert normal_cone_residual(WholeSpace(3), np.ones(3),
                                np.array([0.0, 1e-300, 0.0])) == -np.inf
    prod = Product(Box(-1.0, 2.0, dim=1), WholeSpace(1))
    assert normal_cone_residual(prod, [0.5, 7.0], [-2.0, 0.0]) == -3.0
    # an infinite base point lies in no set, the whole space included
    with pytest.raises(ValueError, match="not in the set"):
        normal_cone_residual(WholeSpace(2), [np.inf, 0.0], [1.0, 0.0])


def test_normal_cone_rejects_sets_without_clip_bounds():
    for cset in (Ball(np.zeros(2), 1.0),
                 Product(Box(-1.0, 1.0, dim=1), Ball(np.zeros(1), 1.0))):
        with pytest.raises(ValueError, match="box"):
            normal_cone_residual(cset, np.zeros(2), np.ones(2))


def vertex_minimum(box, p, g):
    """``min g.(q - p)`` over the corners ``q`` of a finite box."""
    corners = itertools.product(*zip(box.lower, box.upper))
    return min(float(g @ (np.array(q) - p)) for q in corners)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data())
def test_normal_cone_equals_the_vertex_minimum(dim, data):
    # a linear function attains its minimum over a box at a corner
    finite = st.floats(-1e3, 1e3)
    pairs = [sorted(data.draw(st.tuples(finite, finite))) for _ in range(dim)]
    box = Box([lo for lo, _ in pairs], [hi for _, hi in pairs])
    p = np.array([data.draw(st.floats(lo, hi)) for lo, hi in pairs])
    g = np.array(data.draw(st.lists(st.one_of(st.just(0.0), finite),
                                    min_size=dim, max_size=dim)))
    got = normal_cone_residual(box, p, g)
    assert got <= 0.0
    assert got == pytest.approx(vertex_minimum(box, p, g), rel=1e-12,
                                abs=1e-9)


def test_normal_cone_rejects_infeasible_base():
    b = Box(-1.0, 1.0, dim=1)
    with pytest.raises(ValueError):
        normal_cone_residual(b, np.array([5.0]), np.array([1.0]))


def test_whole_space_is_the_unbounded_box():
    w = WholeSpace(3)
    assert isinstance(w, Box)
    assert np.array_equal(w.lower, np.full(3, -np.inf))
    assert np.array_equal(w.upper, np.full(3, np.inf))
    with pytest.raises(ValueError, match="dimension"):
        WholeSpace(0)


@pytest.mark.parametrize("lower, upper, want_lo, want_hi", [
    # fully open boxes, the degenerate ones at one infinity included
    (-np.inf, np.inf, -10.0, 10.0),
    (np.inf, np.inf, -10.0, 10.0),
    (-np.inf, -np.inf, -10.0, 10.0),
    # half-open: the open end is 10 from the origin, or 10 past the
    # closed one when that lies further out
    (0.0, np.inf, 0.0, 10.0),
    (-3.0, np.inf, -3.0, 10.0),
    (20.0, np.inf, 20.0, 30.0),
    (-np.inf, 4.0, -10.0, 4.0),
    (-np.inf, -30.0, -40.0, -30.0),
    (-2.0, 5.0, -2.0, 5.0),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_box_bounding_box_is_finite(lower, upper, want_lo, want_hi):
    lo, hi = Box(lower, upper, dim=2).bounding_box()
    assert np.array_equal(lo, [want_lo] * 2)
    assert np.array_equal(hi, [want_hi] * 2)
    if np.isinf(lower) and np.isinf(upper):
        w_lo, w_hi = WholeSpace(2).bounding_box()
        assert np.array_equal(w_lo, lo) and np.array_equal(w_hi, hi)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sample_points_on_a_half_open_box():
    prod = Product(Box(0.0, np.inf, dim=2), Box([-np.inf], [-30.0]),
                   WholeSpace(1))
    pts = sample_points(prod, 200, np.random.default_rng(5))
    assert pts.shape == (200, 4) and np.isfinite(pts).all()
    for p in pts:
        assert prod.contains(p)
    assert pts[:, :2].min() >= 0.0 and pts[:, :2].max() <= 10.0
    assert pts[:, 2].min() >= -40.0 and pts[:, 2].max() <= -30.0


def test_sample_points_feasible_and_reproducible():
    prod = Product(Box(-1.0, 1.0, dim=2), WholeSpace(1))
    pts1 = sample_points(prod, 25, np.random.default_rng(3))
    pts2 = sample_points(prod, 25, np.random.default_rng(3))
    assert np.array_equal(pts1, pts2)
    for p in pts1:
        assert prod.contains(p, tol=1e-9)


@pytest.mark.parametrize("shape", [(2,), (1,), (4, 1), (3, 2), ()])
def test_compiled_product_rejects_a_wrong_trailing_axis(shape):
    # float arrays skip the conversion but not the check: (1,) and
    # (4, 1) would broadcast against the bounds in the clip
    prod = Product(Box(-1.0, 1.0, dim=2), WholeSpace(1))
    with pytest.raises(ValueError, match=r"expected \(3,\) or \(\.\.\., 3\)"):
        prod.project(np.zeros(shape))


def test_compiled_product_converts_other_inputs():
    prod = Product(Box(-1.0, 1.0, dim=2), WholeSpace(1))
    want = prod.project(np.array([2.0, 0.0, 7.0]))
    for p in ([2.0, 0.0, 7.0], np.array([2, 0, 7]),
              np.array([2.0, 0.0, 7.0], dtype=np.float32)):
        got = prod.project(p)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
    single = Product(Box(-1.0, 1.0, dim=1))
    for p in (3.0, np.float64(3.0), np.array(3.0)):
        assert single.project(p).tobytes() == np.array([1.0]).tobytes()


def test_box_rejects_nan_bounds():
    with pytest.raises(ValueError):
        Box(np.nan, 1.0, dim=2)
    with pytest.raises(ValueError):
        Box([0.0, -1.0], [1.0, np.nan])


def test_box_accepts_infinite_bounds():
    b = Box(-np.inf, np.inf, dim=2)
    p = np.array([-1e300, 3.0])
    assert np.array_equal(b.project(p), p)
    half = Box([0.0, -np.inf], [np.inf, 0.0])
    assert np.array_equal(half.project(np.array([-2.0, 2.0])), [0.0, 0.0])


@pytest.mark.parametrize("center, radius", [
    ([0.0, np.nan], 1.0), ([np.inf, 0.0], 1.0),
    ([0.0, 0.0], np.nan), ([0.0, 0.0], np.inf)])
def test_ball_rejects_non_finite_center_or_radius(center, radius):
    with pytest.raises(ValueError):
        Ball(np.array(center), radius)


INF, NAN = np.inf, np.nan
# bounds meeting at signed zeros, open to infinity, or excluding zero
CLIP_LOWER = [-1.0, -0.0, 0.0, 0.0, -INF, -INF, 1.0, -0.0]
CLIP_UPPER = [1.0, 0.0, 0.0, -0.0, INF, 0.0, 2.0, INF]
# the projection of a constant input onto those bounds, coordinate by
# coordinate: on a tie the upper bound's zero wins, otherwise the lower
# bound's, and NaN passes through
CLIP_EXPECTED = [
    (0.0, [0.0, 0.0, 0.0, -0.0, 0.0, 0.0, 1.0, -0.0]),
    (-0.0, [-0.0, 0.0, 0.0, -0.0, -0.0, 0.0, 1.0, -0.0]),
    (INF, [1.0, 0.0, 0.0, -0.0, INF, 0.0, 2.0, INF]),
    (-INF, [-1.0, 0.0, 0.0, -0.0, -INF, -INF, 1.0, -0.0]),
    (NAN, [NAN] * 8),
]


@pytest.mark.parametrize("value, expected", CLIP_EXPECTED)
@pytest.mark.parametrize("build", [
    lambda: (Box(CLIP_LOWER, CLIP_UPPER), 0),
    lambda: (Product(Box(CLIP_LOWER[:3], CLIP_UPPER[:3]),
                     Box(CLIP_LOWER[3:], CLIP_UPPER[3:])), 0),
    lambda: (Product(WholeSpace(2), Box(CLIP_LOWER, CLIP_UPPER)), 2),
], ids=["box", "product-of-boxes", "product-with-whole-space"])
def test_clip_projection_special_values(build, value, expected):
    cset, free = build()
    got = cset.project(np.full(cset.dim, value))
    want = np.array([value] * free + expected)
    assert np.array_equal(got, want, equal_nan=True)
    # equal signs on every zero, which array_equal does not see
    nan = np.isnan(want)
    assert np.array_equal(np.signbit(got[~nan]), np.signbit(want[~nan]))
    # a (2, 3, dim) stack mixing every special value across coordinates
    # projects each row to its one-point bytes, sign bits included
    mixed = np.resize([value, 0.0, -0.0, INF, -INF, NAN, 0.5], cset.dim)
    stack = np.array([[np.full(cset.dim, value), mixed, mixed[::-1]],
                      [mixed[::-1], mixed, np.full(cset.dim, value)]])
    got = cset.project(stack)
    assert got.shape == stack.shape
    want = np.array([[cset.project(row) for row in rows] for rows in stack])
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("build", [
    lambda: Product(Box(-1.0, 1.0, dim=2), WholeSpace(3),
                    Product(Box([0.0, -5.0], [0.5, 5.0]), WholeSpace(1))),
    lambda: Product(Box(-1.0, 1.0, dim=2), Ball([0.5, -0.5, 1.0], 0.75),
                    WholeSpace(2)),
], ids=["box-product", "ball-product"])
def test_sample_points_equals_rowwise_projection(build):
    # a clip-compiled set projects the whole draw at once; the result is
    # the per-row loop's, byte for byte, for the same seed
    cset = build()
    got = sample_points(cset, 50, np.random.default_rng(11))
    rng = np.random.default_rng(11)
    lo, hi = cset.bounding_box()
    want = rng.uniform(lo, hi, size=(50, cset.dim))
    for i in range(50):
        want[i] = cset.project(want[i])
    assert got.tobytes() == want.tobytes()
