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

again decomposes into neighbor sums. As in `consensus`, the stacked
step functions here and the per-agent message-passing route in
`network` use the same expression shapes and neighbor ordering so both
produce the same trajectories.

The stacked route keeps the whole iterate in one vector
``z = [y, a, lam]`` of length ``Q + 2 N m``: the decisions ``y``
(``Q = sum q_i``, agent by agent), then the auxiliary variables ``a``
and the multipliers ``lam``, each ``N x m`` in agent-major order. Psi
uses the same layout, so one step updates all three blocks with one
expression and one projection onto `AllocationProblem.iterate_set`.
"""

import numpy as np

from . import sets
from .core import SaddleProblem, ValidationError
from .graphs import lambda_max
from .solvers import step_bound

__all__ = ["AllocationAgentSpec", "AllocationProblem", "AllocationState",
           "lagrangian_L2", "operator_psi", "step_allocation_ogda",
           "step_allocation_eg", "feasibility_gap", "simulate_allocation",
           "AllocationTrace"]


class AllocationAgentSpec(object):
    """Local data of one agent in the allocation problem.

    Parameters
    ----------
    objective : callable
        ``h_i(y_i) -> float`` on q_i-vectors.
    gradient : callable
        ``grad h_i(y_i) -> q_i-vector``.
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


class AllocationProblem(object):
    """Resource allocation instance over an undirected connected graph.

    Parameters
    ----------
    graph : NetworkGraph
    agents : list of AllocationAgentSpec
        One per vertex; all demands must share the dimension ``m``.
    vector_objective, vector_gradient : callable, optional
        Vectorized oracles on the stacked decision vector (length
        ``Q = sum q_i``) returning per-agent values ``(N,)`` resp. the
        stacked gradient ``(Q,)``; must match the per-agent oracles
        elementwise. Long runs need these to stay fast.

    Attributes
    ----------
    kappa_s : float
        Declared Lipschitz constant of Psi,
        ``max_i l_i + sigma_max(W) + 2 lambda_max(L) + 1``.
    """

    def __init__(self, graph, agents, vector_objective=None,
                 vector_gradient=None, name=None):
        if len(agents) != graph.n:
            raise ValidationError("need one agent spec per vertex")
        m = agents[0].demand.size
        if any(a.demand.size != m for a in agents):
            raise ValidationError("all agents must share the constraint dimension")
        self.graph = graph
        self.n = graph.n
        self.m = int(m)
        self.agents = list(agents)
        self.q = [a.cset.dim for a in agents]
        self.dim_y = int(sum(self.q))
        offsets = np.cumsum([0] + self.q)
        self._yslices = [slice(int(offsets[i]), int(offsets[i + 1]))
                         for i in range(self.n)]
        self.vector_objective = vector_objective
        self.vector_gradient = vector_gradient
        self.name = name or "allocation"
        self.meta = {}
        self.lambda_max = lambda_max(graph)
        self.l_h = max(a.lipschitz for a in agents)
        # block-diagonal W, so the largest singular value is the max over agents
        self.sigma_w = max(np.linalg.norm(a.weight, 2) for a in agents)
        self.kappa_s = self.l_h + self.sigma_w + 2.0 * self.lambda_max + 1.0
        self.demand = np.stack([a.demand for a in agents])
        # scalar fast path: every W_i is 1x1, so the coupling reduces to
        # elementwise products with the same one multiply per component
        if self.m == 1 and all(qi == 1 for qi in self.q):
            self._wdiag = np.array([a.weight[0, 0] for a in agents])
            self._demand_col = self.demand[:, 0].copy()
        else:
            self._wdiag = None
        self.decision_set = sets.Product([a.cset for a in agents])
        # domain of the stacked iterate: the agent sets, then the free
        # auxiliary variables and multipliers
        nm = self.n * self.m
        self.iterate_set = sets.Product([self.decision_set,
                                         sets.WholeSpace(2 * nm)])
        self._zslices = (slice(0, self.dim_y),
                         slice(self.dim_y, self.dim_y + nm),
                         slice(self.dim_y + nm, self.dim_y + 2 * nm))

    def y_block(self, y, i):
        return y[self._yslices[i]]

    def split(self, z):
        """Views ``(y, a, lam)`` of a stacked iterate ``z = [y, a, lam]``."""
        sy, sa, sl = self._zslices
        return (z[sy], z[sa].reshape(self.n, self.m),
                z[sl].reshape(self.n, self.m))

    def rows(self, flat):
        """Reshape a stacked ``Nm`` vector into per-agent rows."""
        return np.asarray(flat, dtype=float).reshape(self.n, self.m)

    def objective_rows(self, y):
        if self.vector_objective is not None:
            return np.asarray(self.vector_objective(y), dtype=float)
        return np.array([a.objective(y[self._yslices[i]])
                         for i, a in enumerate(self.agents)])

    def total_objective(self, y):
        return float(np.sum(self.objective_rows(y)))

    def gradient_vec(self, y):
        """Stacked objective gradient of length ``Q``."""
        if self.vector_gradient is not None:
            return np.asarray(self.vector_gradient(y), dtype=float)
        return np.concatenate([np.atleast_1d(a.gradient(y[self._yslices[i]]))
                               for i, a in enumerate(self.agents)])

    def wt_lam(self, lam):
        """Stacked ``W_i' lam_i`` of length ``Q``."""
        if self._wdiag is not None:
            return self._wdiag * lam[:, 0]
        return np.concatenate([a.weight.T @ lam[i]
                               for i, a in enumerate(self.agents)])

    def wy_minus_d(self, y):
        """Per-agent constraint contributions ``W_i y_i - d_i`` as rows."""
        if self._wdiag is not None:
            return (self._wdiag * y - self._demand_col).reshape(self.n, 1)
        return np.stack([a.weight @ y[self._yslices[i]] - a.demand
                         for i, a in enumerate(self.agents)])

    def project_y(self, y):
        """Project the stacked decision vector onto the product set."""
        return self.decision_set.project(y)

    def __repr__(self):
        return "AllocationProblem({}, n={}, m={})".format(self.name, self.n, self.m)


def lagrangian_L2(problem, y, a, lam):
    """Modified Lagrangian value; `a` and `lam` as rows or flat vectors."""
    y = np.asarray(y, dtype=float).ravel()
    a = problem.rows(a)
    lam = problem.rows(lam)
    e = problem.wy_minus_d(y)
    return float(np.sum(problem.objective_rows(y))
                 + np.sum(lam * (e - problem.graph.lap_apply(a)))
                 - 0.5 * np.sum(lam * problem.graph.lap_apply(lam)))


def _psi(problem, y, a, lam):
    """Psi at ``(y, a, lam)``, written once into a vector laid out like ``z``.

    Blocks: ``grad h + W'lam``, ``-L lam`` and ``-(W y - d - L(a + lam))``.
    Both Laplacian products come from one `lap_apply` over the stacked
    columns ``[lam, a + lam]``.
    """
    n, m = problem.n, problem.m
    sy, sa, sl = problem._zslices
    lap = problem.graph.lap_apply(np.concatenate([lam, a + lam], axis=1))
    psi = np.empty(sl.stop)
    np.add(problem.gradient_vec(y), problem.wt_lam(lam), out=psi[sy])
    np.negative(lap[:, :m], out=psi[sa].reshape(n, m))
    glam = psi[sl].reshape(n, m)
    np.subtract(problem.wy_minus_d(y), lap[:, m:], out=glam)
    np.negative(glam, out=glam)
    return psi


def operator_psi(problem, y, a, lam):
    """Saddle operator Psi at ``(y, a, lam)`` as one stacked vector."""
    return _psi(problem, np.asarray(y, dtype=float).ravel(),
                problem.rows(a), problem.rows(lam))


def feasibility_gap(problem, y):
    """Norm of the aggregate constraint violation ``sum_i (W_i y_i - d_i)``."""
    y = np.asarray(y, dtype=float).ravel()
    return float(np.linalg.norm(problem.wy_minus_d(y).sum(axis=0)))


def as_saddle_problem(problem):
    """Expose the allocation dynamics as a generic saddle problem.

    Primal block: stacked ``(y, a)`` over the product of the agent sets
    and a free block; dual block: stacked multipliers. The declared
    operator constant is ``kappa_s``.
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

    return SaddleProblem(
        dim_x, nm,
        sets.Product([problem.decision_set, sets.WholeSpace(nm)]),
        sets.WholeSpace(nm),
        value, grad_x, grad_y,
        lipschitz={"l_xx": problem.l_h, "l_xy": cross,
                   "l_yx": cross, "l_yy": lam_norm},
        kappa=problem.kappa_s,
        name=problem.name + "-stacked")


class AllocationState(object):
    """Stacked iterate ``z = [y, a, lam]`` and its memoized operator value.

    ``z`` has length ``Q + 2 N m`` (layout in the module docstring).
    ``y``, ``a`` and ``lam`` are views of ``z`` with shapes ``(Q,)``,
    ``(N, m)`` and ``(N, m)``. ``psi`` holds Psi at ``z`` in the same
    layout, filled on demand so that one evaluation serves both the step
    and the residual. ``psi_prev`` carries the previous step's value for
    the optimistic correction; ``z_half`` is the mid-point of the
    extra-gradient step that produced this state.
    """

    def __init__(self, problem, z, psi_prev=None, z_half=None):
        self.z = z
        self.y, self.a, self.lam = problem.split(z)
        self.psi_prev = psi_prev
        self.z_half = z_half
        self.psi = None

    def ensure_psi(self, problem):
        """Memoize Psi at the current point and return it."""
        if self.psi is None:
            self.psi = _psi(problem, self.y, self.a, self.lam)
        return self.psi


def initial_state(problem, y0=None, a0=None, lam0=None):
    """Starting state; decisions default to the projection of zero."""
    if y0 is None:
        y0 = problem.project_y(np.zeros(problem.dim_y))
    else:
        y0 = np.asarray(y0, dtype=float).ravel()
        if y0.size != problem.dim_y:
            raise ValidationError("y0 has {} entries, expected {}"
                                  .format(y0.size, problem.dim_y))
    a0 = np.zeros(problem.n * problem.m) if a0 is None else problem.rows(a0)
    lam0 = np.zeros(problem.n * problem.m) if lam0 is None else problem.rows(lam0)
    return AllocationState(problem, np.concatenate(
        [y0, a0.ravel(), lam0.ravel()]))


def step_allocation_ogda(problem, state, alpha):
    """One optimistic step of every agent; returns the new state."""
    g = state.ensure_psi(problem)
    gp = g if state.psi_prev is None else state.psi_prev
    z_new = problem.iterate_set.project(state.z - 2.0 * alpha * g + alpha * gp)
    return AllocationState(problem, z_new, psi_prev=g)


def step_allocation_eg(problem, state, alpha):
    """One extra-gradient step of every agent; returns the new state.

    The final update steps from the current point using the mid-point
    operator values for every block, decisions included.
    """
    g = state.ensure_psi(problem)
    half = AllocationState(
        problem, problem.iterate_set.project(state.z - alpha * g))
    g_half = half.ensure_psi(problem)
    z_new = problem.iterate_set.project(state.z - alpha * g_half)
    return AllocationState(problem, z_new, z_half=half.z)


def _vi_residual(problem, state):
    # natural-map residual of the stacked saddle problem; the free
    # blocks contribute their operator values directly
    psi = state.ensure_psi(problem)
    sy, sa, sl = problem._zslices
    ry = state.y - problem.project_y(state.y - psi[sy])
    free = np.square(psi[sa.start:])
    nm = sa.stop - sa.start
    return float(np.sqrt(np.add.reduce(np.square(ry))
                         + np.add.reduce(free[:nm])
                         + np.add.reduce(free[nm:])))


class AllocationTrace(object):
    """Recorded trajectory of a distributed allocation run.

    Arrays indexed by recorded row: ``y`` of shape ``(rows, Q)``,
    ``a``/``lam`` of shape ``(rows, N, m)``, running ergodic averages
    (NaN on row 0), ``feasibility_gap``, ``objective`` and the stacked
    natural-map residual ``vi_residual``.
    """

    def __init__(self, problem, method, alpha):
        self.problem = problem
        self.method = method
        self.alpha = alpha
        self.gradient_calls = 0
        self.stopped_at = None
        self._rows = []

    def _append(self, it, state, erg, resid):
        # `erg` is a fresh stacked average (None on row 0)
        self._rows.append((it, state.z.copy(), erg,
                           feasibility_gap(self.problem, state.y),
                           self.problem.total_objective(state.y),
                           resid))

    def _finalize(self):
        rows = self._rows
        n, m = self.problem.n, self.problem.m
        sy, sa, sl = self.problem._zslices
        self.iters = np.array([r[0] for r in rows], dtype=int)
        z = np.array([r[1] for r in rows])
        erg = np.full(z.shape, np.nan)
        for i, r in enumerate(rows):
            if r[2] is not None:
                erg[i] = r[2]
        for name, block in (("", z), ("erg_", erg)):
            setattr(self, name + "y", block[:, sy].copy())
            setattr(self, name + "a", block[:, sa].reshape(-1, n, m))
            setattr(self, name + "lam", block[:, sl].reshape(-1, n, m))
        self.feasibility_gap = np.array([r[3] for r in rows])
        self.objective = np.array([r[4] for r in rows])
        self.vi_residual = np.array([r[5] for r in rows])
        del self._rows

    def to_csv(self, path):
        """Write the per-agent trace: one row per (iteration, agent).

        Requires every agent to have the same decision dimension so the
        rows are homogeneous.
        """
        q = set(self.problem.q)
        if len(q) != 1:
            raise ValidationError("per-agent trace needs equal decision"
                                  " dimensions across agents")
        q = q.pop()
        m = self.problem.m
        header = (["iter", "agent_id"]
                  + ["y{}".format(c) for c in range(q)]
                  + ["a{}".format(c) for c in range(m)]
                  + ["lambda{}".format(c) for c in range(m)]
                  + ["feasibility_gap", "objective_sum"])
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for r in range(self.iters.size):
                yr = self.y[r].reshape(self.problem.n, q)
                for i in range(self.problem.n):
                    row = ([str(int(self.iters[r])), str(i)]
                           + ["%.17g" % val for val in yr[i]]
                           + ["%.17g" % val for val in self.a[r, i]]
                           + ["%.17g" % val for val in self.lam[r, i]]
                           + ["%.17g" % self.feasibility_gap[r],
                              "%.17g" % self.objective[r]])
                    fh.write(",".join(row) + "\n")


def simulate_allocation(problem, method, alpha=None, max_iters=1000,
                        y0=None, a0=None, lam0=None, record_every=1,
                        stop_tol=0.0):
    """Run the distributed allocation dynamics on stacked arrays.

    Parameters mirror `simulate_consensus`; the step-size bounds use
    ``kappa_s``. Returns an `AllocationTrace`.
    """
    method = str(method).upper()
    if method not in ("OGDA", "EG"):
        raise ValidationError("distributed methods are OGDA and EG")
    bound = step_bound(method, problem.kappa_s)
    if alpha is None:
        alpha = 0.9 * bound
    elif not alpha < bound:
        raise ValidationError(
            "step size {:g} violates the {} bound {:g} (kappa_s={:g})"
            .format(alpha, method, bound, problem.kappa_s))

    state = initial_state(problem, y0, a0, lam0)
    trace = AllocationTrace(problem, method, alpha)
    trace.gradient_calls = 1
    resid = _vi_residual(problem, state)
    trace._append(0, state, None, resid)

    erg = np.zeros(state.z.size)
    count = 0
    step = step_allocation_ogda if method == "OGDA" else step_allocation_eg
    calls_per_step = 2 if method == "EG" else 1

    def reached(r):
        return stop_tol > 0 and r <= stop_tol

    if reached(resid):
        trace.stopped_at = 0
        trace._finalize()
        return trace

    for k in range(max_iters):
        it = k + 1
        state = step(problem, state, alpha)
        erg += state.z if state.z_half is None else state.z_half
        count += 1
        trace.gradient_calls += calls_per_step
        resid = _vi_residual(problem, state)
        done = reached(resid) or it == max_iters
        if it % record_every == 0 or done:
            trace._append(it, state, erg / count, resid)
        if reached(resid):
            trace.stopped_at = it
            break
    trace._finalize()
    return trace
