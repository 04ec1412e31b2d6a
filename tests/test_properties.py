"""Property tests: the fused fast paths equal their literal definitions bitwise.

Three fast paths are checked byte for byte against the plain loops they
replace: the single-clip projection of a product of boxes and whole
spaces, the one-gather `lap_apply`, and the one-pass evaluation of the
allocation operator Psi.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlenet import catalog
from saddlenet.allocation import (AllocationAgentSpec, AllocationProblem,
                                  initial_state, operator_psi)
from saddlenet.graphs import random_connected, ring
from saddlenet.sets import Box, Product, WholeSpace

SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
SPECIAL = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
ANY_FLOAT = st.one_of(SPECIAL, st.floats(allow_nan=True, allow_infinity=True))
BOUND = st.one_of(SIGNED_ZEROS, st.sampled_from([np.inf, -np.inf]),
                  st.floats(-1e6, 1e6))


@st.composite
def boxes(draw):
    dim = draw(st.integers(1, 4))
    pairs = [sorted(draw(st.tuples(BOUND, BOUND))) for _ in range(dim)]
    return Box([lo for lo, _ in pairs], [hi for _, hi in pairs])


LEAVES = st.one_of(boxes(), st.integers(1, 3).map(WholeSpace))
PRODUCTS = st.recursive(
    st.lists(LEAVES, min_size=1, max_size=4).map(Product),
    lambda inner: st.lists(st.one_of(LEAVES, inner), min_size=1,
                           max_size=3).map(Product),
    max_leaves=8)


def project_factorwise(cset, p):
    """The per-factor projection: np.clip per box, identity per whole space."""
    if isinstance(cset, Box):
        return np.clip(p, cset.lower, cset.upper)
    if isinstance(cset, WholeSpace):
        return p
    parts, start = [], 0
    for f in cset.factors:
        parts.append(project_factorwise(f, p[start:start + f.dim]))
        start += f.dim
    return np.concatenate(parts)


@settings(max_examples=300, deadline=None)
@given(PRODUCTS, st.data())
def test_product_single_clip_equals_factorwise_clip(prod, data):
    p = np.array(data.draw(st.lists(ANY_FLOAT, min_size=prod.dim,
                                    max_size=prod.dim)), dtype=float)
    assert prod._bounds is not None
    got = prod.project(p)
    assert got.tobytes() == project_factorwise(prod, p).tobytes()


GRAPHS = st.one_of(
    st.integers(3, 12).map(ring),
    st.builds(random_connected, st.integers(2, 10), st.floats(0.05, 1.0),
              st.integers(0, 2 ** 32 - 1)))


def lap_literal(graph, u):
    """Per-vertex neighbor sums onto zeros, neighbors in ascending order."""
    out = np.zeros_like(u)
    for i in range(graph.n):
        for j in graph.neighbors[i]:
            out[i] += u[i] - u[j]
    return out


def same_values(got, want):
    """Equal values, NaN equal to NaN, and equal signs on every zero."""
    nan = np.isnan(want)
    return (np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got[~nan]), np.signbit(want[~nan])))


@settings(max_examples=200, deadline=None)
@given(GRAPHS, st.one_of(st.none(), st.integers(1, 4)), st.data())
def test_lap_apply_equals_literal_loop(graph, m, data):
    shape = (graph.n,) if m is None else (graph.n, m)
    values = st.one_of(SIGNED_ZEROS, st.sampled_from([np.inf, -np.inf]),
                       st.floats(allow_nan=False, allow_infinity=False))
    u = np.array(data.draw(st.lists(values, min_size=int(np.prod(shape)),
                                    max_size=int(np.prod(shape)))),
                 dtype=float).reshape(shape)
    # wide values may overflow and infinities cancel to NaN; both sides
    # must agree on inf and NaN, and on the sign of every zero
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_values(graph.lap_apply(u), lap_literal(graph, u))


def vector_allocation():
    """Three agents on a ring with decision sizes 1, 2, 3 and m = 2."""
    rng = np.random.default_rng(5)
    agents = []
    for q in (1, 2, 3):
        target = rng.normal(size=q)
        agents.append(AllocationAgentSpec(
            lambda y, t=target: float(0.5 * np.sum((y - t) ** 2)),
            lambda y, t=target: y - t,
            Box(-2.0, 2.0, dim=q), rng.uniform(-1.0, 1.0, size=(2, q)),
            rng.uniform(-1.0, 1.0, size=2), 1.0))
    return AllocationProblem(ring(3), agents)


def psi_blockwise(prob, y, a, lam):
    """Psi from its three block formulas, one Laplacian pass per product."""
    lap = prob.graph.lap_apply
    gy = prob.gradient_vec(y) + prob.wt_lam(lam)
    ga = -lap(lam)
    glam = -(prob.wy_minus_d(y) - lap(a + lam))
    return np.concatenate([gy, ga.ravel(), glam.ravel()])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["scalar", "vector"]), st.data())
def test_psi_is_one_laplacian_pass(kind, data):
    prob = (catalog.allocation_quadratics() if kind == "scalar"
            else vector_allocation())
    values = st.one_of(SIGNED_ZEROS, st.floats(-1e3, 1e3))
    nm = prob.n * prob.m

    def draw(size):
        return np.array(data.draw(st.lists(values, min_size=size,
                                           max_size=size)), dtype=float)

    y, a, lam = draw(prob.dim_y), draw(nm), draw(nm)
    expect = psi_blockwise(prob, y, prob.rows(a), prob.rows(lam))

    calls = []
    original = prob.graph.lap_apply

    def counted(u):
        calls.append(np.shape(u))
        return original(u)

    prob.graph.lap_apply = counted
    try:
        got = operator_psi(prob, y, a, lam)
        assert calls == [(prob.n, 2 * prob.m)]
        state = initial_state(prob, y, a, lam)
        psi = state.ensure_psi(prob)
        state.ensure_psi(prob)
        assert len(calls) == 2
    finally:
        del prob.graph.lap_apply
    assert got.tobytes() == expect.tobytes()
    assert psi.tobytes() == expect.tobytes()
