"""Property tests: the fused fast paths equal their literal definitions bitwise.

Five fast paths are checked byte for byte against the plain loops they
replace: the single-clip projection of a product of boxes and whole
spaces, the one-gather Laplacian pass (`lap_apply`, `lap_pass`), and the
one-pass evaluations of the allocation operator Psi, the modified
Lagrangian L2 and the consensus operator Phi; Phi and Psi also on
irregular graphs at infinities and NaN. The stack axis is checked the
same way: `lap_apply` on several columns equals one call per column, and
`operator_F` and `objective` on a stack of points equal one call per
point. A fixed graph of degree 11 to 15 joins the random ones, whose
degrees seldom reach 8, where an innermost pairwise reduction would sum
in another order than the per-vertex loop. The declared
constants kappa_c and kappa_s are checked against sampled Lipschitz
ratios on random graphs and boxes. The fused hooks of `example1` are
checked against its blockwise oracles, and a hookless copy of it must
run the same trajectories and trace columns bit for bit. The row helper
`sets._each_point`, which calls a one-point oracle once per distinct
point of a stack, is checked against the per-row loop on repeated rows,
signed zeros, NaN payloads and infinities.
"""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from saddlenet import allocation, catalog, consensus, sets
from saddlenet.allocation import (AllocationAgentSpec, AllocationProblem,
                                  operator_psi)
from saddlenet.consensus import ConsensusAgentSpec, ConsensusProblem
from saddlenet.core import estimate_kappa, objective, operator_F
from saddlenet.graphs import random_connected, ring
from saddlenet.sets import Ball, Box, Product, WholeSpace
from saddlenet.solvers import SolverConfig, delta_diagnostic, run

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
    """The per-factor projection: identity per whole space, np.clip per box."""
    if isinstance(cset, WholeSpace):
        return p
    if isinstance(cset, Box):
        return np.clip(p, cset.lower, cset.upper)
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


# degrees 11 to 15
DENSE = random_connected(16, 0.9, seed=0)

GRAPHS = st.one_of(
    st.integers(3, 12).map(ring),
    st.builds(random_connected, st.integers(2, 10), st.floats(0.05, 1.0),
              st.integers(0, 2 ** 32 - 1)),
    st.just(DENSE))

IRREGULAR = st.builds(random_connected, st.integers(4, 9),
                      st.floats(0.05, 0.5), st.integers(0, 2 ** 32 - 1)
                      ).filter(lambda g: g.degrees.min() < g.max_degree)


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
    """Psi from its three block formulas, one literal loop per product."""
    def lap(u):
        return lap_literal(prob.graph, u)

    gy = prob.gradient_rows(y) + prob.wt_lam(lam)
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


def counting_lap_pass(graph):
    """Record every Laplacian pass on `graph`; returns the list.

    Each `lap_pass` call, which `lap_apply` and the fused operators
    share, is recorded as ``(leading axes, columns per vertex)``.
    """
    calls = []
    original = graph.lap_pass

    def counted(flat, plan):
        calls.append((np.shape(flat)[:-1], plan[0].shape[-1] // graph.n))
        return original(flat, plan)

    graph.lap_pass = counted
    return calls


def psi_before_plan(prob, z):
    """Psi as `allocation` evaluated it before its gather plan: one
    `lap_rows` over the per-vertex columns ``[lam, a + lam]``."""
    y, a, lam = prob.split(z)
    n, m = prob.n, prob.m
    sy, sa, sl = prob._zslices
    rows = y.shape[:-1] + (n, m)
    lap = prob.graph.lap_rows(np.concatenate([lam, a + lam], axis=-1))
    psi = np.empty(y.shape[:-1] + (sl.stop,))
    np.add(prob.gradient_rows(y), prob.wt_lam(lam), out=psi[..., sy])
    np.negative(lap[..., :m], out=psi[..., sa].reshape(rows))
    glam = psi[..., sl].reshape(rows)
    np.subtract(prob.wy_minus_d(y), lap[..., m:], out=glam)
    np.negative(glam, out=glam)
    return psi


def phi_before_plan(prob, z):
    """Phi as `consensus` evaluated it before its gather plan: one
    `lap_rows` over the per-vertex columns ``[x + v, x]``."""
    n, m = prob.n, prob.m
    lead = z.shape[:-1]
    x, v = (block.reshape(lead + (n, m)) for block in np.split(z, 2, axis=-1))
    lap = prob.graph.lap_rows(np.concatenate([x + v, x], axis=-1))
    phi = np.empty(lead + (2, n, m))
    np.add(prob.gradient_rows(x), lap[..., :m], out=phi[..., 0, :, :])
    np.negative(lap[..., m:], out=phi[..., 1, :, :])
    return phi.reshape(lead + (2 * n * m,))


def assert_same_operator(got, want, exact):
    """`got` equals `want` byte for byte wherever `want` is not NaN, and
    is NaN where it is; with `exact`, NaN bytes too.

    Where two NaNs meet in an add, x86 keeps the first operand's in
    numpy's SIMD body and may keep the second's in its scalar tail, so
    a pass that lays its columns out differently may flip a NaN's sign.
    """
    assert same_values(got, want)
    if exact:
        assert got.tobytes() == want.tobytes()


def stacked_reference(saddle, z):
    """F from the gradient oracles: ``col(grad_x, -grad_y)``."""
    x, y = saddle.split(z)
    return np.concatenate([saddle.grad_x(x, y), -saddle.grad_y(x, y)])


FINITE = st.one_of(SIGNED_ZEROS, st.floats(-1e3, 1e3))


def allocation_point(prob, data, values=FINITE):
    """Draw flat ``(y, a, lam)``, by default finite with signed zeros."""
    nm = prob.n * prob.m

    def draw(size):
        return np.array(data.draw(st.lists(values, min_size=size,
                                           max_size=size)), dtype=float)

    return draw(prob.dim_y), draw(nm), draw(nm)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["scalar", "vector"]),
       st.one_of(st.none(), IRREGULAR), st.data())
def test_psi_is_one_laplacian_pass(kind, graph, data):
    # shipped rings at finite values; irregular graphs, whose padded
    # ranks are masked, at infinities and NaN too
    if graph is None:
        prob = (catalog.allocation_quadratics() if kind == "scalar"
                else vector_allocation())
        values = FINITE
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        prob = allocation_on(graph, kind, rng)
        values = ANY_FLOAT
    y, a, lam = allocation_point(prob, data, values)
    saddle = allocation.as_saddle_problem(prob)
    z = np.concatenate([y, a, lam])

    calls = counting_lap_pass(prob.graph)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            got = operator_psi(prob, y, a, lam)
            assert calls == [((), 2 * prob.m)]
            f_z = operator_F(saddle, z)
            assert calls == [((), 2 * prob.m)] * 2
    finally:
        del prob.graph.lap_pass
    with np.errstate(over="ignore", invalid="ignore"):
        before = psi_before_plan(prob, z)
        expect = psi_blockwise(prob, y, prob.rows(a), prob.rows(lam))
        reference = stacked_reference(saddle, z)
    # finite values on the rings: the same bytes as every reference
    for value in (got, f_z):
        for want in (before, expect, reference):
            assert_same_operator(value, want, exact=graph is None)


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
    """Phi from its two block formulas, one literal loop per product."""
    def lap(u):
        return lap_literal(prob.graph, u)

    gx = prob.gradient_rows(x) + lap(x + v)
    gv = -lap(x)
    return np.concatenate([gx.ravel(), gv.ravel()])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["scalar", "vector"]),
       st.one_of(st.none(), IRREGULAR), st.data())
def test_phi_is_one_laplacian_pass(kind, graph, data):
    # shipped rings at finite values; irregular graphs, whose padded
    # ranks are masked, at infinities and NaN too
    if graph is None:
        prob = (catalog.consensus_quadratics(5) if kind == "scalar"
                else vector_consensus())
        values = FINITE
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        prob = consensus_on(graph, kind, rng)
        values = ANY_FLOAT
    nm = prob.n * prob.m
    z = np.array(data.draw(st.lists(values, min_size=2 * nm,
                                    max_size=2 * nm)), dtype=float)
    x, v = prob.rows(z[:nm]), prob.rows(z[nm:])
    saddle = consensus.as_saddle_problem(prob)

    calls = counting_lap_pass(prob.graph)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            f_z = operator_F(saddle, z)
            assert calls == [((), 2 * prob.m)]
            got = consensus.operator_phi(prob, x, v)
            assert calls == [((), 2 * prob.m)] * 2
    finally:
        del prob.graph.lap_pass
    with np.errstate(over="ignore", invalid="ignore"):
        before = phi_before_plan(prob, z)
        expect = phi_blockwise(prob, x, v)
        reference = stacked_reference(saddle, z)
    # finite values on the rings: the same bytes as every reference
    for value in (got, f_z):
        for want in (before, expect, reference):
            assert_same_operator(value, want, exact=graph is None)


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


@pytest.mark.parametrize("kind", ["scalar", "vector", "dense"])
def test_trace_feasibility_gap_is_rowwise_norm(kind):
    # the trace takes every row's gap from one batched pass; the vector
    # and dense kinds have m = 2 and decision sizes 1, 2, 3
    if kind == "dense":
        prob = allocation_on(DENSE, "vector", np.random.default_rng(2))
    else:
        prob = (catalog.allocation_quadratics() if kind == "scalar"
                else vector_allocation())
    trace = allocation.simulate_allocation(prob, "EG", max_iters=30,
                                           stop_tol=0.0)
    sums = prob.wy_minus_d(trace.y).sum(axis=-2)
    rowwise = np.array([np.linalg.norm(e) for e in sums])
    assert trace.feasibility_gap.tobytes() == rowwise.tobytes()
    assert [allocation.feasibility_gap(prob, y)
            for y in trace.y] == rowwise.tolist()


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


def consensus_on(graph, kind, rng, bounds=None):
    """Quadratic trackers on `graph`: scalar with vector oracles, or m = 2
    with per-agent oracles only and agent 0 on a `Ball`. Agent i's box
    is ``bounds[i]``, by default ``(-2, 2)``."""
    m = 1 if kind == "scalar" else 2
    bounds = bounds or [(-2.0, 2.0)] * graph.n
    targets = rng.normal(size=(graph.n, m))
    agents = [ConsensusAgentSpec(
        lambda s, t=t: float(np.sum((s - t) ** 2)),
        lambda s, t=t: 2.0 * (s - t),
        Ball(np.zeros(m), 2.0) if i == 0 and m == 2
        else Box(*bounds[i], dim=m),
        2.0) for i, t in enumerate(targets)]
    if kind == "vector":
        return ConsensusProblem(graph, m, agents)
    return ConsensusProblem(
        graph, m, agents,
        vector_objective=lambda x: np.sum((x - targets) ** 2, axis=-1),
        vector_gradient=lambda x: 2.0 * (x - targets))


def allocation_on(graph, kind, rng, bounds=None):
    """Quadratic suppliers on `graph`: scalar with vector oracles, or m = 2
    with decision sizes cycling through 1, 2, 3 and agent 0 on a `Ball`.
    In the scalar kind agent i's box is ``bounds[i]``, by default
    ``(-2, 2)``."""
    if kind == "scalar":
        bounds = bounds or [(-2.0, 2.0)] * graph.n
        targets = rng.normal(size=graph.n)
        agents = [AllocationAgentSpec(
            lambda y, t=t: float(0.5 * np.sum((y - t) ** 2)),
            lambda y, t=t: y - t, Box(*b, dim=1),
            [[rng.uniform(-1.0, 1.0)]], [rng.uniform(-1.0, 1.0)], 1.0)
            for t, b in zip(targets, bounds)]
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


STACK_GRAPHS = st.one_of(st.integers(3, 6).map(ring), IRREGULAR,
                         st.just(DENSE))


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

    calls = counting_lap_pass(graph)
    try:
        F = operator_F(saddle, Z)
        f = objective(saddle, Z)
        # one pass each: the operator's over the 2m payload columns of
        # every point, the objective's (through `lap_apply`) over every
        # column of every point, one buffer each: x for L1, [a, lam]
        # for L2
        m = 1 if kind == "scalar" else 2
        width = m if problem_kind == "consensus" else 2 * m
        assert calls == [((k,), 2 * m), ((k * width,), 1)]
    finally:
        del graph.lap_pass
    assert F.shape == Z.shape and f.shape == (k,)
    for i in range(k):
        assert F[i].tobytes() == operator_F(saddle, Z[i]).tobytes()
        assert np.float64(f[i]).tobytes() == np.float64(
            objective(saddle, Z[i])).tobytes()
    # deeper stacks keep their leading shape
    deep = np.stack([Z, Z[::-1]])
    assert operator_F(saddle, deep).tobytes() == np.stack([F, F[::-1]]).tobytes()
    assert objective(saddle, deep).tobytes() == np.stack([f, f[::-1]]).tobytes()


# rings up to 200 vertices: the declared constants must be computable at
# every size the graph builders accept, not only at the presets' sizes
KAPPA_GRAPHS = st.one_of(
    st.integers(3, 200).map(ring),
    st.builds(random_connected, st.integers(2, 30), st.floats(0.05, 1.0),
              st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["consensus", "allocation"]), KAPPA_GRAPHS,
       st.integers(0, 2 ** 32 - 1))
@example("consensus", ring(200), 0)
@example("allocation", ring(200), 1)
def test_declared_kappa_bounds_the_sampled_ratio(problem_kind, graph, seed):
    # boxes [lo, lo + width] with widths over six decades
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-1e3, 1e3, size=graph.n)
    bounds = list(zip(lo, lo + 10.0 ** rng.uniform(-3.0, 3.0, size=graph.n)))
    if problem_kind == "consensus":
        saddle = consensus.as_saddle_problem(
            consensus_on(graph, "scalar", rng, bounds))
    else:
        saddle = allocation.as_saddle_problem(
            allocation_on(graph, "scalar", rng, bounds))
    report = estimate_kappa(saddle, n_pairs=200, seed=0)
    assert report["passed"]
    assert report["max_ratio"] <= report["kappa_m"]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.sampled_from([(), (1,), (4,), (2, 3), (3, 1)]),
       st.data())
def test_example1_hooks_equal_the_blockwise_oracles(seed, lead, data):
    # points drawn from the boxes [-5, 5]^10 x [-2, 2]^10, signed zeros
    # included; a stack (k, 20) or (j, k, 20), or one point
    prob = catalog.example1_bilinear(seed)
    rows = int(np.prod(lead, dtype=int))
    x = data.draw(st.lists(st.one_of(SIGNED_ZEROS, st.floats(-5.0, 5.0)),
                           min_size=10 * rows, max_size=10 * rows))
    y = data.draw(st.lists(st.one_of(SIGNED_ZEROS, st.floats(-2.0, 2.0)),
                           min_size=10 * rows, max_size=10 * rows))
    Z = np.concatenate([np.reshape(x, (rows, 10)), np.reshape(y, (rows, 10))],
                       axis=1)
    F = prob.operator(Z.reshape(lead + (20,)))
    f = prob.objective(Z.reshape(lead + (20,)))
    assert F.shape == lead + (20,)
    if lead == ():
        assert isinstance(f, float)
    assert np.shape(f) == lead
    blocks = [prob.split(z) for z in Z]
    want_F = [np.concatenate([prob.grad_x(x, y), -prob.grad_y(x, y)])
              for x, y in blocks]
    want_f = [prob.value(x, y) for x, y in blocks]
    assert same_values(F.reshape(rows, 20), np.array(want_F))
    assert same_values(np.reshape(f, rows), np.array(want_f))


def hookless(prob):
    bare = copy.copy(prob)
    bare.operator = bare.objective = None
    return bare


@pytest.mark.parametrize("method", ["GDA", "OGDA", "EG"])
def test_hookless_example1_runs_the_same_trace(method):
    prob = catalog.example1_bilinear(seed=0)
    alpha = catalog.paper_step_size(prob, method)[0]
    cfg = SolverConfig(method, step_size=alpha, max_iters=300, stop_tol=0.0)
    traces = []
    for p in (prob, hookless(prob)):
        trace = run(p, cfg, p.meta["z0"], z_star=p.meta["z_star"])
        if method == "OGDA":
            delta_diagnostic(p, trace)
        traces.append(trace)
    fused, rows = traces
    assert rows.gradient_calls == fused.gradient_calls
    for name in ("z", "f_value", "dist_to_ref", "ergodic_gap", "delta_k"):
        got, want = getattr(fused, name), getattr(rows, name)
        if method != "OGDA" and name == "delta_k":
            assert got is None and want is None
        else:
            assert got.tobytes() == want.tobytes(), name


# +0.0 and -0.0, and NaNs that differ in sign or payload, compare equal
# as values but are distinct inputs to an oracle
NAN_PAYLOAD = float(np.array([0x7FF8000000000123], dtype=np.uint64)
                    .view(float)[0])
ENTRIES = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                           NAN_PAYLOAD, 1.5, -2.0])


@st.composite
def point_stacks(draw):
    """Points ``(dim,)`` or stacks ``(..., dim)`` drawn from a small pool,
    so that rows repeat."""
    lead = draw(st.sampled_from([(), (1,), (2,), (7,), (16,), (3, 4)]))
    dim = draw(st.sampled_from([1, 3]))
    pool = draw(st.lists(st.lists(ENTRIES, min_size=dim, max_size=dim),
                         min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=int(np.prod(lead)),
                          max_size=int(np.prod(lead))))
    return np.array([pool[k] for k in picks], dtype=float).reshape(
        lead + (dim,))


def signs_and_reciprocals(y):
    """Tells +0.0 from -0.0 (copysign, 1/y) and keeps NaN payloads."""
    return np.concatenate((np.copysign(1.0, y), 1.0 / y, y))


def signed_reciprocal(y):
    return float(np.copysign(1.0, y[0]) / y[-1])


@settings(max_examples=300, deadline=None)
@given(point_stacks(), st.sampled_from([signs_and_reciprocals,
                                        signed_reciprocal]))
@example(np.array([[0.0], [-0.0], [0.0]]), signs_and_reciprocals)
@example(np.array([[np.nan], [NAN_PAYLOAD], [-np.nan], [np.nan]]),
         signs_and_reciprocals)
@example(np.array([[0.0, -0.0, 1.5], [-0.0, 0.0, 1.5]]), signed_reciprocal)
def test_each_point_equals_the_per_row_loop(p, oracle):
    seen = []

    def fn(y):
        seen.append(y.tobytes())
        return oracle(y)

    lead, dim = p.shape[:-1], p.shape[-1]
    slot = (3 * dim,) if oracle is signs_and_reciprocals else ()
    want = np.empty(lead + slot)
    got = np.empty(lead + slot)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in np.ndindex(lead):
            want[i] = oracle(p[i])
        assert sets._each_point(fn, p, got, "oracle") is got
    assert got.tobytes() == want.tobytes()
    # one call per distinct bit pattern, whatever the float values say
    distinct = {row.tobytes() for row in p.reshape(-1, dim)}
    assert sorted(seen) == sorted(distinct)
