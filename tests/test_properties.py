"""Property tests: the fused fast paths equal their literal definitions bitwise.

Five fast paths are checked byte for byte against the plain loops they
replace: the single-clip projection of a product of boxes and whole
spaces, the one-gather `lap_apply`, and the one-pass evaluations of the
allocation operator Psi, the modified Lagrangian L2 and the consensus
operator Phi. The stack axis is checked the same way: `lap_apply` on
several columns equals one call per column, and `operator_F` and
`objective` on a stack of points equal one call per point.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlenet import allocation, catalog, consensus
from saddlenet.allocation import (AllocationAgentSpec, AllocationProblem,
                                  operator_psi)
from saddlenet.consensus import ConsensusAgentSpec, ConsensusProblem
from saddlenet.core import objective, operator_F
from saddlenet.graphs import random_connected, ring
from saddlenet.sets import Ball, Box, Product, WholeSpace

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


def counting_lap_apply(graph):
    """Record the shape of every `lap_apply` call on `graph`; returns the list."""
    calls = []
    original = graph.lap_apply

    def counted(u):
        calls.append(np.shape(u))
        return original(u)

    graph.lap_apply = counted
    return calls


def stacked_reference(saddle, z):
    """F from the gradient oracles: ``col(grad_x, -grad_y)``."""
    x, y = saddle.split(z)
    return np.concatenate([saddle.grad_x(x, y), -saddle.grad_y(x, y)])


def allocation_point(prob, data):
    """Draw flat ``(y, a, lam)`` with finite values and signed zeros."""
    values = st.one_of(SIGNED_ZEROS, st.floats(-1e3, 1e3))
    nm = prob.n * prob.m

    def draw(size):
        return np.array(data.draw(st.lists(values, min_size=size,
                                           max_size=size)), dtype=float)

    return draw(prob.dim_y), draw(nm), draw(nm)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["scalar", "vector"]), st.data())
def test_psi_is_one_laplacian_pass(kind, data):
    prob = (catalog.allocation_quadratics() if kind == "scalar"
            else vector_allocation())
    y, a, lam = allocation_point(prob, data)
    expect = psi_blockwise(prob, y, prob.rows(a), prob.rows(lam))
    saddle = allocation.as_saddle_problem(prob)
    z = np.concatenate([y, a, lam])
    reference = stacked_reference(saddle, z)

    calls = counting_lap_apply(prob.graph)
    try:
        got = operator_psi(prob, y, a, lam)
        assert calls == [(prob.n, 2 * prob.m)]
        f_z = operator_F(saddle, z)
        assert calls == [(prob.n, 2 * prob.m)] * 2
    finally:
        del prob.graph.lap_apply
    assert got.tobytes() == expect.tobytes()
    assert f_z.tobytes() == expect.tobytes()
    assert f_z.tobytes() == reference.tobytes()


def lagrangian_L2_two_pass(prob, y, a, lam):
    """L2 from its formula, one Laplacian pass per product."""
    lap = prob.graph.lap_apply
    return float(np.sum(prob.objective_rows(y))
                 + np.sum(lam * (prob.wy_minus_d(y) - lap(a)))
                 - 0.5 * np.sum(lam * lap(lam)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["scalar", "vector"]), st.data())
def test_lagrangian_L2_is_one_laplacian_pass(kind, data):
    prob = (catalog.allocation_quadratics() if kind == "scalar"
            else vector_allocation())
    y, a, lam = allocation_point(prob, data)
    expect = lagrangian_L2_two_pass(prob, y, prob.rows(a), prob.rows(lam))

    calls = counting_lap_apply(prob.graph)
    try:
        got = allocation.lagrangian_L2(prob, y, a, lam)
    finally:
        del prob.graph.lap_apply
    assert calls == [(prob.n, 2 * prob.m)]
    assert np.float64(got).tobytes() == np.float64(expect).tobytes()


def vector_consensus():
    """Four agents on a ring with m = 2 and shifted quadratic trackers."""
    rng = np.random.default_rng(7)
    agents = []
    for _ in range(4):
        target = rng.normal(size=2)
        agents.append(ConsensusAgentSpec(
            lambda s, t=target: float(np.sum((s - t) ** 2)),
            lambda s, t=target: 2.0 * (s - t),
            Box(-2.0, 2.0, dim=2), 2.0))
    return ConsensusProblem(ring(4), 2, agents)


def phi_blockwise(prob, x, v):
    """Phi from its two block formulas, one Laplacian pass per product."""
    lap = prob.graph.lap_apply
    gx = prob.gradient_rows(x) + lap(x + v)
    gv = -lap(x)
    return np.concatenate([gx.ravel(), gv.ravel()])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["scalar", "vector"]), st.data())
def test_phi_is_one_laplacian_pass(kind, data):
    prob = (catalog.consensus_quadratics(5) if kind == "scalar"
            else vector_consensus())
    values = st.one_of(SIGNED_ZEROS, st.floats(-1e3, 1e3))
    nm = prob.n * prob.m
    z = np.array(data.draw(st.lists(values, min_size=2 * nm,
                                    max_size=2 * nm)), dtype=float)
    x, v = prob.rows(z[:nm]), prob.rows(z[nm:])
    expect = phi_blockwise(prob, x, v)
    saddle = consensus.as_saddle_problem(prob)
    reference = stacked_reference(saddle, z)

    calls = counting_lap_apply(prob.graph)
    try:
        f_z = operator_F(saddle, z)
        assert calls == [(prob.n, 2 * prob.m)]
        operator_F(saddle, z)
        assert calls == [(prob.n, 2 * prob.m)] * 2
    finally:
        del prob.graph.lap_apply
    assert f_z.tobytes() == expect.tobytes()
    assert f_z.tobytes() == reference.tobytes()


@pytest.mark.parametrize("kind", ["scalar", "vector"])
def test_trace_consensus_residual_is_rowwise_norm(kind):
    # the trace takes every row's residual from one Laplacian pass
    prob = (catalog.consensus_quadratics(5) if kind == "scalar"
            else vector_consensus())
    trace = consensus.simulate_consensus(prob, "EG", max_iters=30,
                                         stop_tol=0.0)
    rowwise = np.array([np.linalg.norm(prob.graph.lap_apply(x))
                        for x in trace.x])
    assert trace.consensus_residual.tobytes() == rowwise.tobytes()
    assert [consensus.consensus_residual(prob, x)
            for x in trace.x] == rowwise.tolist()


IRREGULAR = st.builds(random_connected, st.integers(4, 9),
                      st.floats(0.05, 0.5), st.integers(0, 2 ** 32 - 1)
                      ).filter(lambda g: g.degrees.min() < g.max_degree)


@settings(max_examples=200, deadline=None)
@given(st.one_of(GRAPHS, IRREGULAR), st.integers(1, 5), st.integers(1, 3),
       st.data())
def test_lap_apply_columns_are_independent(graph, k, c, data):
    values = st.one_of(SIGNED_ZEROS, st.sampled_from([np.inf, -np.inf]),
                       st.floats(-1e300, 1e300))
    u = np.array(data.draw(st.lists(values, min_size=graph.n * k * c,
                                    max_size=graph.n * k * c)),
                 dtype=float).reshape(graph.n, k, c)
    with np.errstate(over="ignore", invalid="ignore"):
        got = graph.lap_apply(u)
        rows = graph.lap_rows(u.swapaxes(0, 1))
        for j in range(k):
            want = graph.lap_apply(u[:, j, :].copy())
            assert np.ascontiguousarray(got[:, j, :]).tobytes() == want.tobytes()
            assert np.ascontiguousarray(rows[j]).tobytes() == want.tobytes()


def consensus_on(graph, kind, rng):
    """Quadratic trackers on `graph`: scalar with vector oracles, or m = 2
    with per-agent oracles only and agent 0 on a `Ball`."""
    m = 1 if kind == "scalar" else 2
    targets = rng.normal(size=(graph.n, m))
    agents = [ConsensusAgentSpec(
        lambda s, t=t: float(np.sum((s - t) ** 2)),
        lambda s, t=t: 2.0 * (s - t),
        Ball(np.zeros(m), 2.0) if i == 0 and m == 2 else Box(-2.0, 2.0, dim=m),
        2.0) for i, t in enumerate(targets)]
    if kind == "vector":
        return ConsensusProblem(graph, m, agents)
    return ConsensusProblem(
        graph, m, agents,
        vector_objective=lambda x: np.sum((x - targets) ** 2, axis=-1),
        vector_gradient=lambda x: 2.0 * (x - targets))


def allocation_on(graph, kind, rng):
    """Quadratic suppliers on `graph`: scalar with vector oracles, or m = 2
    with decision sizes cycling through 1, 2, 3 and agent 0 on a `Ball`."""
    if kind == "scalar":
        targets = rng.normal(size=graph.n)
        agents = [AllocationAgentSpec(
            lambda y, t=t: float(0.5 * np.sum((y - t) ** 2)),
            lambda y, t=t: y - t, Box(-2.0, 2.0, dim=1),
            [[rng.uniform(-1.0, 1.0)]], [rng.uniform(-1.0, 1.0)], 1.0)
            for t in targets]
        return AllocationProblem(
            graph, agents,
            vector_objective=lambda y: 0.5 * (y - targets) ** 2,
            vector_gradient=lambda y: y - targets)
    agents = []
    for i in range(graph.n):
        q = 1 + i % 3
        target = rng.normal(size=q)
        agents.append(AllocationAgentSpec(
            lambda y, t=target: float(0.5 * np.sum((y - t) ** 2)),
            lambda y, t=target: y - t,
            Ball(np.zeros(q), 2.0) if i == 0 else Box(-2.0, 2.0, dim=q),
            rng.uniform(-1.0, 1.0, size=(2, q)),
            rng.uniform(-1.0, 1.0, size=2), 1.0))
    return AllocationProblem(graph, agents)


STACK_GRAPHS = st.one_of(st.integers(3, 6).map(ring), IRREGULAR)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["consensus", "allocation"]),
       st.sampled_from(["scalar", "vector"]), STACK_GRAPHS,
       st.integers(1, 4), st.data())
def test_stacked_operator_and_objective_equal_per_point(problem_kind, kind,
                                                        graph, k, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if problem_kind == "consensus":
        saddle = consensus.as_saddle_problem(consensus_on(graph, kind, rng))
    else:
        saddle = allocation.as_saddle_problem(allocation_on(graph, kind, rng))
    values = st.one_of(SIGNED_ZEROS, st.floats(-1e3, 1e3))
    Z = np.array(data.draw(st.lists(values, min_size=k * saddle.dim,
                                    max_size=k * saddle.dim)),
                 dtype=float).reshape(k, saddle.dim)

    calls = counting_lap_apply(graph)
    try:
        F = operator_F(saddle, Z)
        f = objective(saddle, Z)
        assert [shape[0] for shape in calls] == [graph.n, graph.n]
        assert all(len(shape) == 3 and shape[1] == k for shape in calls)
    finally:
        del graph.lap_apply
    assert F.shape == Z.shape and f.shape == (k,)
    for i in range(k):
        assert F[i].tobytes() == operator_F(saddle, Z[i]).tobytes()
        assert np.float64(f[i]).tobytes() == np.float64(
            objective(saddle, Z[i])).tobytes()
    # deeper stacks keep their leading shape
    deep = np.stack([Z, Z[::-1]])
    assert operator_F(saddle, deep).tobytes() == np.stack([F, F[::-1]]).tobytes()
    assert objective(saddle, deep).tobytes() == np.stack([f, f[::-1]]).tobytes()
