"""Distributed resource allocation via a saddle-point reformulation.

Agents hold local decisions ``y_i`` (dimension ``q_i``), coupled only
through the global constraint ``sum_i (W_i y_i - d_i) = 0``. With
auxiliary variables ``a_i`` and multipliers ``lam_i`` (both dimension
``m``) on each vertex, the modified Lagrangian

``L2(y, a, lam) = sum_i h_i(y_i) + lam.(W y - d - (L (x) I_m) a)
                  - lam.(L (x) I_m) lam / 2``

has saddle points whose ``y`` solves the allocation problem whenever
the multipliers agree across agents, which the Laplacian penalty
enforces. The saddle operator

``Psi = [grad h + W' lam; -L lam; -(W y - d - L (a + lam))]``

again decomposes into neighbor sums.

`as_saddle_problem` casts the instance as one stacked saddle problem
over ``z = [y, a, lam]`` of length ``Q + 2 N m``, in the layout the
problem base in `solvers` owns: the decisions ``y`` (``Q = sum q_i``,
agent by agent), then two dual blocks, the auxiliary variables ``a``
and the multipliers ``lam``, each ``N x m`` in agent-major order. The
base also gives the blocks of ``z`` (`split`), the start (`start`) and
the agents' oracles on stacks (`objective_rows`, `gradient_rows`). The
operator is Psi in the same layout. It copies ``z`` into a buffer
``[z, a + lam]`` and takes both Laplacian products from a single
Laplacian pass over the columns ``[lam, a + lam]``, the payloads the
agents of `network` exchange, through a gather plan of absolute
indices into that buffer. The operator builds the plan when it is made
(`as_saddle_problem`). The pass writes its two blocks straight into
the ``a`` and ``lam`` blocks of the output, where one negation
finishes them. The operator is a workspace builder (see
`core.SaddleProblem`): the buffer, the pass bound to it
(`NetworkGraph.pass_workspace`), the rows of ``W y - d`` and the routes
of the coupling products and of the gradient are fixed when a
workspace is built, once per `solvers.run` and once per
`core.operator_F` call. A bind fixes an input and an output and the
views of F's blocks in it, once per row of `solvers.run`'s block
arrays, and each evaluation reads the input and writes the output;
every bind shares the workspace's buffer, pass and rows of ``W y - d``.
With scalar weights (every ``W_i`` 1x1, as in example2) the coupling
products ``W' lam`` and ``W y - d`` are multiplies by the weight
vector on flat views of the workspace; other weights go through
`AllocationProblem.wt_lam` and `wy_minus_d`, which take an output, so
an evaluation writes them into the workspace with the bits of the
fresh products. A vector gradient oracle is called directly, its
result checked on every evaluation. One point ``(dim,)`` and a stack
``(..., dim)`` take the same calls, the stack's points as leading
axes. L2 takes stacks too, through one `lap_apply` of per-vertex rows
in the same vertex-major layout.
As in `consensus`, `simulate_allocation` is one call into the shared
body in `solvers`, which runs the generic `solvers.run` on it and reads
the per-agent trace off the recorded rows, and the per-agent route in
`network` uses the same expressions and neighbor ordering, so both
produce the same trajectories.
"""

import numpy as np

from . import sets
from .core import (SaddleProblem, ValidationError, _batched, _evaluated,
                   _finite_constant, _matvec, _row_dots, spectral_norm)
from .network import AllocationNetworkSimulator
from .solvers import (_NetworkProblem, _NetworkTrace, _Route, _simulate,
                      _write_agent_csv, step_eg, step_ogda)

__all__ = ["AllocationAgentSpec", "AllocationProblem", "lagrangian_L2",
           "operator_psi", "feasibility_gap", "as_saddle_problem",
           "step_allocation_ogda", "step_allocation_eg",
           "simulate_allocation", "AllocationTrace"]


class AllocationAgentSpec(object):
    """Local data of one agent in the allocation problem.

    Parameters
    ----------
    objective : callable
        ``h_i(y_i) -> float`` on q_i-vectors; must be pure.
    gradient : callable
        ``grad h_i(y_i) -> q_i-vector``; must be pure. Both are called
        once per distinct point of a stack, so their values may be
        reused for bit-equal inputs.
    cset : ConvexSet
        Local set Omega_i of dimension q_i.
    weight : array_like
        Coupling matrix ``W_i`` of shape ``(m, q_i)``, finite.
    demand : array_like
        Local demand ``d_i`` of shape ``(m,)``, finite.
    lipschitz : float
        Lipschitz constant of the gradient, finite and nonnegative.
    """

    def __init__(self, objective, gradient, cset, weight, demand, lipschitz):
        self.objective = objective
        self.gradient = gradient
        self.cset = cset
        self.weight = np.atleast_2d(np.asarray(weight, dtype=float))
        self.demand = np.atleast_1d(np.asarray(demand, dtype=float))
        self.lipschitz = _finite_constant("agent lipschitz constant", lipschitz)
        if self.weight.shape != (self.demand.size, cset.dim):
            raise ValidationError("weight must be (m, q_i) with d of size m")
        if not (np.isfinite(self.weight).all() and np.isfinite(self.demand).all()):
            raise ValidationError("agent weight and demand must be finite")


class AllocationProblem(_NetworkProblem):
    """Resource allocation instance over an undirected connected graph.

    Parameters
    ----------
    graph : NetworkGraph
    agents : list of AllocationAgentSpec
        One per vertex; all demands must share the dimension ``m``.
    vector_objective, vector_gradient : callable, optional
        Vectorized oracles on the stacked decision vector (length
        ``Q = sum q_i``) returning per-agent values ``(N,)`` resp. the
        stacked gradient ``(Q,)``. Leading axes are a batch of points,
        ``(..., Q)`` to ``(..., N)`` resp. ``(..., Q)``. They must match
        the per-agent oracles elementwise. Long runs need these to stay
        fast.

    Attributes
    ----------
    kappa_s : float
        Declared Lipschitz constant of Psi,
        ``max_i l_i + sigma_max(W) + 2 lambda_max(L) + 1``.
    """

    _kappa_name = "kappa_s"
    _blocks = ("y", "a", "lam")

    def __init__(self, graph, agents, vector_objective=None,
                 vector_gradient=None, name=None):
        m = agents[0].demand.size if agents else 0
        self.q = [a.cset.dim for a in agents]
        self.dim_y = int(sum(self.q))
        super().__init__(graph, m, agents, vector_objective, vector_gradient,
                         name or "allocation", (self.dim_y,))
        if any(a.demand.size != m for a in agents):
            raise ValidationError("all agents must share the constraint dimension")
        self.l_h = max(a.lipschitz for a in agents)
        # block-diagonal W, so the largest singular value is the max over agents
        self.sigma_w = max(spectral_norm(a.weight) for a in agents)
        self.kappa_s = self.l_h + self.sigma_w + 2.0 * self.lambda_max + 1.0
        self.demand = np.stack([a.demand for a in agents])
        # scalar fast path: every W_i is 1x1, so the coupling reduces to
        # elementwise products with the same one multiply per component
        if self.m == 1 and all(qi == 1 for qi in self.q):
            self._wdiag = np.array([a.weight[0, 0] for a in agents])
            self._demand_col = self.demand[:, 0].copy()
        else:
            self._wdiag = None

    def wt_lam(self, lam, out=None):
        """Stacked ``W_i' lam_i`` ``(..., Q)`` of multiplier rows ``(..., N, m)``.

        With `out` ``(..., Q)`` the products are written into it and it
        is returned, with the bits of a fresh result.
        """
        if self._wdiag is not None:
            return np.multiply(self._wdiag, lam[..., 0], out)
        return np.concatenate([_matvec(a.weight.T, lam[..., i, :])
                               for i, a in enumerate(self.agents)], axis=-1,
                              out=out)

    def wy_minus_d(self, y, out=None):
        """Per-agent ``W_i y_i - d_i`` as rows ``(..., N, m)`` of ``(..., Q)``.

        With `out` ``(..., N, m)`` the rows are written into it and it is
        returned, with the bits of a fresh result.
        """
        if self._wdiag is not None:
            col = np.multiply(self._wdiag, y,
                              None if out is None else out[..., 0])
            np.subtract(col, self._demand_col, col)
            return col[..., None] if out is None else out
        return np.stack([_matvec(a.weight, y[..., sl]) - a.demand
                         for sl, a in zip(self._agent_slices, self.agents)],
                        axis=-2, out=out)

    def _route(self):
        return _Route(as_saddle_problem, AllocationNetworkSimulator,
                      AllocationTrace)


def lagrangian_L2(problem, y, a, lam):
    """Modified Lagrangian value.

    `y`, `a` and `lam` as rows or flat vectors give a float. A stack
    of points, ``y`` of shape ``(..., Q)`` with rows ``a`` and ``lam``
    of shape ``(..., N, m)``, gives one value per point. Blocks of any
    other shape raise `ValidationError`. Both Laplacian products come
    from one `lap_apply` of the per-vertex rows ``[a, lam]``.
    """
    y, a, lam = problem._shaped_blocks(y, a, lam)
    m = problem.m
    lap = problem.graph.lap_apply(np.concatenate([a, lam], axis=-1))
    # np.add.reduce is what np.sum calls, minus its Python wrapper; over
    # the trailing axes of each point it sums exactly as over all axes
    # of one point
    total = np.add.reduce
    both = (-2, -1)
    value = (total(problem.objective_rows(y), axis=-1)
             + total(lam * (problem.wy_minus_d(y) - lap[..., :m]), axis=both)
             - 0.5 * total(lam * lap[..., m:], axis=both))
    return float(value) if value.ndim == 0 else value


def _psi_operator(problem):
    """Psi on flat iterates ``z = [y, a, lam]``, one point or a stack.

    Returns the fused hook, a workspace builder (see
    `core.SaddleProblem`): ``build(lead)`` fixes the scratch, the buffer
    ``[z, a + lam]`` with its block views, the Laplacian pass over its
    columns ``[lam, a + lam]`` (`NetworkGraph.pass_workspace`) and the
    rows of ``W y - d``, which every bind shares, and the route of the
    coupling products and the gradient. ``bind(z, out)`` fixes the
    views of F's blocks in `out`, and its ``evaluate()`` copies `z` into
    the buffer and writes ``grad h + W'lam``, ``-L lam`` and ``-(W y -
    d - L(a + lam))`` into `out`, laid out like ``z``; ``W'lam`` is
    written straight into F's ``y`` block and the pass into its dual
    blocks. With scalar weights (every ``W_i`` 1x1) both coupling
    products are single multiplies by the weight vector, on flat views
    fixed here; other weights go through `AllocationProblem.wt_lam` and
    `wy_minus_d` with an output. A vector gradient oracle is called
    directly and its result checked on every call as `core._batched`
    checks it; without one the per-agent loop of `gradient_rows` runs.
    The gather plan is built with the hook. A stack ``(..., dim)`` takes
    the same calls as one point, with its points as leading axes.
    """
    n, m = problem.n, problem.m
    sy, sa, sl = problem._zslices
    dim, nm = sl.stop, n * m
    plan = problem.graph.gather_plan((sl.start, dim), m)
    wdiag = problem._wdiag
    scalar = wdiag is not None
    demand = problem._demand_col if scalar else None
    wt_lam, wy_minus_d = problem.wt_lam, problem.wy_minus_d
    # the vector oracle, followed inline by the check `_batched` makes;
    # without one the per-agent loop, which always passes that check
    gradient = problem.vector_gradient
    if gradient is None:
        gradient = problem.gradient_rows
    ndarray, FLOAT = np.ndarray, sets._FLOAT
    add, subtract, multiply, negative = (np.add, np.subtract, np.multiply,
                                         np.negative)
    # the blocks of F, as indices formed once: a bind takes its views with
    # them and builds no slices
    y_block, lam_block = (Ellipsis, sy), (Ellipsis, sl)
    dual_blocks = (Ellipsis, slice(sa.start, None))

    def build(lead):
        ext = np.empty(lead + (dim + nm,))
        zbuf, y, a, lam, pay = (ext[..., :dim], ext[..., sy], ext[..., sa],
                                ext[..., sl], ext[..., dim:])
        lap_pass = problem.graph.pass_workspace(plan, ext)
        # scalar weights take lam and its block of F flat, (..., N): with
        # m = 1 that is the rows' one column; other weights take rows
        lam_rows = lam.reshape(lead + (n, m))
        wy_d = np.empty(lam.shape if scalar else lam_rows.shape)
        y_shape = y.shape

        def bind(z, out):
            gy, duals, glam = out[y_block], out[dual_blocks], out[lam_block]
            if not scalar:
                glam = glam.reshape(lam_rows.shape)

            def evaluate():
                zbuf[...] = z
                add(a, lam, pay)
                # grad h + W'lam, with W'lam written into its block first
                if scalar:
                    multiply(wdiag, lam, gy)
                else:
                    wt_lam(lam_rows, gy)
                g = gradient(y)
                if not (g.__class__ is ndarray and g.dtype is FLOAT
                        and g.shape == y_shape):
                    g = _batched(g, y_shape, "vector_gradient")
                add(g, gy, gy)
                # [L lam, L(a + lam)] into the a and lam blocks
                lap_pass(duals)
                # W y - d - L(a + lam) in place, then one negation of both
                # dual blocks
                if scalar:
                    multiply(wdiag, y, wy_d)
                    subtract(wy_d, demand, wy_d)
                else:
                    wy_minus_d(y, wy_d)
                subtract(wy_d, glam, glam)
                negative(duals, duals)

            return evaluate

        return bind

    return build


def operator_psi(problem, y, a, lam):
    """Saddle operator Psi at ``(y, a, lam)`` as one stacked vector."""
    return _evaluated(_psi_operator(problem), problem.start(y, a, lam))


def feasibility_gap(problem, y):
    """Norm of the aggregate constraint violation ``sum_i (W_i y_i - d_i)``."""
    return float(_gap_rows(problem, np.asarray(y, dtype=float).reshape(1, -1))[0])


def _gap_rows(problem, ys):
    """`feasibility_gap` of each row of the decisions ``ys`` ``(rows, Q)``.

    One batched matmul takes every row's dot, the one ``e.dot(e)`` of
    that row alone takes.
    """
    e = problem.wy_minus_d(ys).sum(axis=-2)
    return np.sqrt(_row_dots(e, e))


def as_saddle_problem(problem):
    """Expose the allocation dynamics as a generic saddle problem.

    Primal block: stacked ``(y, a)`` over the product of the agent sets
    and a free block; dual block: stacked multipliers. The declared
    operator constant is ``kappa_s``. The operator is the fused Psi.
    """
    nm = problem.n * problem.m
    dim_x = problem.dim_y + nm

    def split_x(x):
        return x[:problem.dim_y], problem.rows(x[problem.dim_y:])

    def value(x, lam):
        y, a = split_x(x)
        return lagrangian_L2(problem, y, a, lam)

    def grad_x(x, lam):
        y, a = split_x(x)
        lam = problem.rows(lam)
        gy = problem.gradient_rows(y) + problem.wt_lam(lam)
        ga = -problem.graph.lap_apply(lam)
        return np.concatenate([gy, ga.ravel()])

    def grad_y(x, lam):
        y, a = split_x(x)
        lam = problem.rows(lam)
        e = problem.wy_minus_d(y) - problem.graph.lap_apply(a + lam)
        return e.ravel()

    def objective(z):
        return lagrangian_L2(problem, *problem.split(z))

    return SaddleProblem(
        dim_x, nm,
        sets.Product([problem.decision_set, sets.WholeSpace(nm)]),
        sets.WholeSpace(nm),
        value, grad_x, grad_y,
        kappa_m=problem.kappa_s, operator=_psi_operator(problem),
        objective=objective,
        name=problem.name + "-stacked")


def step_allocation_ogda(problem, z, z_prev, alpha):
    """One OGDA step of the stacked dynamics from ``z`` after ``z_prev``."""
    return step_ogda(as_saddle_problem(problem), z, z_prev, alpha)


def step_allocation_eg(problem, z, alpha):
    """One EG step of the stacked dynamics; returns ``(z_half, z_next)``."""
    return step_eg(as_saddle_problem(problem), z, alpha)


class AllocationTrace(_NetworkTrace):
    """Recorded trajectory of a distributed allocation run.

    The `RunTrace` of the stacked run itself, taking over its attributes
    as `ConsensusTrace` does. It adds, per recorded row, views of the
    iterates, ``y`` of shape ``(rows, Q)`` and ``a``/``lam`` of shape
    ``(rows, N, m)``, and of the running ergodic averages
    ``erg_y``/``erg_a``/``erg_lam`` (NaN on row 0), ``feasibility_gap``
    and ``objective`` (sum of agent objectives). Its CSV is per agent.
    """

    def __init__(self, problem, trace):
        self.y, self.a, self.lam = problem.split(trace.z)
        self.erg_y, self.erg_a, self.erg_lam = problem.split(trace.ergodic)
        super().__init__(problem, trace, self.y)
        self.feasibility_gap = _gap_rows(problem, self.y)

    def to_csv(self, path):
        """Write the per-agent trace: one row per (iteration, agent).

        Requires every agent to have the same decision dimension so the
        rows are homogeneous.
        """
        q = set(self.problem.q)
        if len(q) != 1:
            raise ValidationError("per-agent trace needs equal decision"
                                  " dimensions across agents")
        y = self.y.reshape(self.iters.size, self.problem.n, q.pop())
        _write_agent_csv(path, self.iters,
                         (("y", y), ("a", self.a), ("lambda", self.lam)),
                         (("feasibility_gap", self.feasibility_gap),
                          ("objective_sum", self.objective)))


def simulate_allocation(problem, method, alpha=None, max_iters=1000,
                        y0=None, a0=None, lam0=None, record_every=1,
                        stop_tol=0.0):
    """Run the distributed allocation dynamics on the stacked problem.

    Parameters and errors mirror `simulate_consensus`; the step-size
    bounds use ``kappa_s``. Returns an `AllocationTrace`.
    """
    return _simulate(problem, method, alpha, (y0, a0, lam0),
                     max_iters=max_iters, record_every=record_every,
                     stop_tol=stop_tol)
