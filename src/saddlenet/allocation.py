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
over ``z = [y, a, lam]`` of length ``Q + 2 N m``: the decisions ``y``
(``Q = sum q_i``, agent by agent), then the auxiliary variables ``a``
and the multipliers ``lam``, each ``N x m`` in agent-major order. Its
operator is Psi in the same layout. It copies ``z`` into a buffer
``[z, a + lam]`` and takes both Laplacian products from a single
`NetworkGraph.lap_pass` over the columns ``[lam, a + lam]``, the
payloads the agents of `network` exchange, through a gather plan of
absolute indices into that buffer. The problem builds the plan on its
first evaluation, and one negation writes the pass's two blocks into
the ``a`` and ``lam`` blocks of the result. One point ``(dim,)`` and a
stack ``(..., dim)`` take the same calls, the stack's points as
leading axes. L2 takes stacks too, through `lap_rows`.
As in `consensus`, `simulate_allocation` is one call into the shared
body in `solvers`, which runs the generic `solvers.run` on it and reads
the per-agent trace off the recorded rows, and the per-agent route in
`network` uses the same expressions and neighbor ordering, so both
produce the same trajectories.
"""

import numpy as np

from . import sets
from .core import (SaddleProblem, ValidationError, _batched, _matvec,
                   _row_dots, spectral_norm)
from .network import AllocationNetworkSimulator
from .solvers import (_NetworkProblem, _NetworkTrace, _Route, _simulate,
                      _write_agent_csv, step_eg, step_ogda)

__all__ = ["AllocationAgentSpec", "AllocationProblem", "lagrangian_L2",
           "operator_psi", "feasibility_gap", "as_saddle_problem",
           "initial_state", "step_allocation_ogda", "step_allocation_eg",
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
        Coupling matrix ``W_i`` of shape ``(m, q_i)``.
    demand : array_like
        Local demand ``d_i`` of shape ``(m,)``.
    lipschitz : float
        Lipschitz constant of the gradient.
    """

    def __init__(self, objective, gradient, cset, weight, demand, lipschitz):
        self.objective = objective
        self.gradient = gradient
        self.cset = cset
        self.weight = np.atleast_2d(np.asarray(weight, dtype=float))
        self.demand = np.atleast_1d(np.asarray(demand, dtype=float))
        self.lipschitz = float(lipschitz)
        if self.weight.shape != (self.demand.size, cset.dim):
            raise ValidationError("weight must be (m, q_i) with d of size m")
        if self.lipschitz < 0:
            raise ValidationError("agent lipschitz constant must be nonnegative")


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

    def __init__(self, graph, agents, vector_objective=None,
                 vector_gradient=None, name=None):
        m = agents[0].demand.size if agents else 0
        super().__init__(graph, m, agents, vector_objective, vector_gradient,
                         name or "allocation")
        if any(a.demand.size != m for a in agents):
            raise ValidationError("all agents must share the constraint dimension")
        self.q = [a.cset.dim for a in agents]
        self.dim_y = int(sum(self.q))
        offsets = np.cumsum([0] + self.q)
        self._yslices = [slice(int(offsets[i]), int(offsets[i + 1]))
                         for i in range(self.n)]
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
        nm = self.n * self.m
        self._zslices = (slice(0, self.dim_y),
                         slice(self.dim_y, self.dim_y + nm),
                         slice(self.dim_y + nm, self.dim_y + 2 * nm))

    def y_block(self, y, i):
        return y[self._yslices[i]]

    def split(self, z):
        """Views ``(y, a, lam)`` of a stacked iterate ``z = [y, a, lam]``.

        On a stack of iterates ``(..., dim)`` the views keep the leading
        axes: ``(..., Q)`` and rows ``(..., N, m)``.
        """
        sy, sa, sl = self._zslices
        rows = z.shape[:-1] + (self.n, self.m)
        return z[..., sy], z[..., sa].reshape(rows), z[..., sl].reshape(rows)

    def objective_rows(self, y):
        """Per-agent objective values ``(..., N)`` of decisions ``(..., Q)``."""
        if self.vector_objective is not None:
            return _batched(self.vector_objective(y), y.shape[:-1] + (self.n,),
                            "vector_objective")
        out = np.empty(y.shape[:-1] + (self.n,))
        for i, (a, sl) in enumerate(zip(self.agents, self._yslices)):
            name = "AllocationAgentSpec.objective of agent {}".format(i)
            sets._each_point(a.objective, y[..., sl], out[..., i], name)
        return out

    def gradient_vec(self, y):
        """Stacked objective gradient, shaped like `y` ``(..., Q)``."""
        if self.vector_gradient is not None:
            return _batched(self.vector_gradient(y), y.shape,
                            "vector_gradient")
        out = np.empty(y.shape)
        for i, (a, sl) in enumerate(zip(self.agents, self._yslices)):
            name = "AllocationAgentSpec.gradient of agent {}".format(i)
            sets._each_point(a.gradient, y[..., sl], out[..., sl], name)
        return out

    def wt_lam(self, lam):
        """Stacked ``W_i' lam_i`` ``(..., Q)`` of multiplier rows ``(..., N, m)``."""
        if self._wdiag is not None:
            return self._wdiag * lam[..., 0]
        return np.concatenate([_matvec(a.weight.T, lam[..., i, :])
                               for i, a in enumerate(self.agents)], axis=-1)

    def wy_minus_d(self, y):
        """Per-agent ``W_i y_i - d_i`` as rows ``(..., N, m)`` of ``(..., Q)``."""
        if self._wdiag is not None:
            return (self._wdiag * y - self._demand_col)[..., None]
        return np.stack([_matvec(a.weight, y[..., sl]) - a.demand
                         for sl, a in zip(self._yslices, self.agents)],
                        axis=-2)

    def project_y(self, y):
        """Project the stacked decision vector onto the product set."""
        return self.decision_set.project(y)

    def _route(self):
        return _Route(as_saddle_problem, initial_state, simulate_allocation,
                      AllocationNetworkSimulator, AllocationTrace)


def lagrangian_L2(problem, y, a, lam):
    """Modified Lagrangian value.

    `y` flat with `a` and `lam` as rows or flat vectors give a float.
    A stack of points, ``y`` of shape ``(..., Q)`` with rows ``a`` and
    ``lam`` of shape ``(..., N, m)``, gives one value per point. Both
    Laplacian products come from one `lap_apply` over the stacked
    columns ``[a, lam]``.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.ndim < 3:
        y = np.asarray(y, dtype=float).ravel()
        a = problem.rows(a)
        lam = problem.rows(lam)
    m = problem.m
    lap = problem.graph.lap_rows(np.concatenate([a, lam], axis=-1))
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

    Returns ``psi(z)``, which writes ``grad h + W'lam``, ``-L lam`` and
    ``-(W y - d - L(a + lam))`` into an array laid out like ``z``. Both
    Laplacian products come from one `NetworkGraph.lap_pass` over the
    columns ``[lam, a + lam]`` of the buffer ``[z, a + lam]``; its gather
    plan is built on the first call. A stack ``(..., dim)`` takes the
    same calls as one point, with its points as leading axes.
    """
    n, m = problem.n, problem.m
    sy, sa, sl = problem._zslices
    dim, nm = sl.stop, n * m
    plan = None

    def psi(z):
        nonlocal plan
        if plan is None:
            plan = problem.graph.gather_plan((sl.start, dim), m)
        lead = z.shape[:-1]
        rows = lead + (n, m)
        y, lam = z[..., sy], z[..., sl]
        ext = np.empty(lead + (dim + nm,))
        ext[..., :dim] = z
        np.add(z[..., sa], lam, out=ext[..., dim:])
        out = np.empty(z.shape)
        np.add(problem.gradient_vec(y), problem.wt_lam(lam.reshape(rows)),
               out=out[..., sy])
        # [L lam, L(a + lam)]; W y - d - L(a + lam) in place, then one
        # negation writes the a and lam blocks
        lap = problem.graph.lap_pass(ext, plan)
        glam = lap[..., nm:].reshape(rows)
        np.subtract(problem.wy_minus_d(y), glam, out=glam)
        np.negative(lap, out=out[..., sa.start:])
        return out

    return psi


def operator_psi(problem, y, a, lam):
    """Saddle operator Psi at ``(y, a, lam)`` as one stacked vector."""
    return _psi_operator(problem)(initial_state(problem, y, a, lam))


def feasibility_gap(problem, y):
    """Norm of the aggregate constraint violation ``sum_i (W_i y_i - d_i)``."""
    return float(_gap_rows(problem, np.asarray(y, dtype=float).reshape(1, -1))[0])


def _gap_rows(problem, ys):
    """`feasibility_gap` of each row of the decisions ``ys`` ``(rows, Q)``.

    One batched matmul takes every row's dot, the one `core._norm`
    takes.
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
    lam_norm = problem.lambda_max
    cross = float(np.sqrt(problem.sigma_w ** 2 + lam_norm ** 2))

    def split_x(x):
        return x[:problem.dim_y], problem.rows(x[problem.dim_y:])

    def value(x, lam):
        y, a = split_x(x)
        return lagrangian_L2(problem, y, a, lam)

    def grad_x(x, lam):
        y, a = split_x(x)
        lam = problem.rows(lam)
        gy = problem.gradient_vec(y) + problem.wt_lam(lam)
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
        lipschitz={"l_xx": problem.l_h, "l_xy": cross,
                   "l_yx": cross, "l_yy": lam_norm},
        kappa=problem.kappa_s, operator=_psi_operator(problem),
        objective=objective,
        name=problem.name + "-stacked")


def initial_state(problem, y0=None, a0=None, lam0=None):
    """Stacked start ``z0 = [y0, a0, lam0]``.

    Decisions default to the projection of zero, the other blocks to zero.
    """
    if y0 is None:
        y0 = problem.project_y(np.zeros(problem.dim_y))
    else:
        y0 = np.asarray(y0, dtype=float).ravel()
        if y0.size != problem.dim_y:
            raise ValidationError("y0 has {} entries, expected {}"
                                  .format(y0.size, problem.dim_y))
    a0 = np.zeros(problem.n * problem.m) if a0 is None else problem.rows(a0)
    lam0 = np.zeros(problem.n * problem.m) if lam0 is None else problem.rows(lam0)
    return np.concatenate([y0, a0.ravel(), lam0.ravel()])


def step_allocation_ogda(problem, z, z_prev, alpha):
    """One OGDA step of the stacked dynamics from ``z`` after ``z_prev``."""
    return step_ogda(as_saddle_problem(problem), z, z_prev, alpha)


def step_allocation_eg(problem, z, alpha):
    """One EG step of the stacked dynamics; returns ``(z_half, z_next)``."""
    return step_eg(as_saddle_problem(problem), z, alpha)


class AllocationTrace(_NetworkTrace):
    """Recorded trajectory of a distributed allocation run.

    Reads the per-agent view off a `RunTrace` of the stacked problem.
    Arrays indexed by recorded row: ``y`` of shape ``(rows, Q)``,
    ``a``/``lam`` of shape ``(rows, N, m)``, running ergodic averages
    (NaN on row 0), ``feasibility_gap``, ``objective`` and the stacked
    natural-map residual ``vi_residual``.
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
