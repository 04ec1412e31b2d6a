"""Optimal consensus over a network with per-agent constraint sets.

The problem is ``min sum_i f_i(x_i)`` subject to all agents agreeing,
expressed through the Laplacian constraint ``(L (x) I_m) x = 0``. Its
augmented Lagrangian

``L1(x, v) = sum_i f_i(x_i) + v.(L (x) I_m) x + x.(L (x) I_m) x / 2``

is convex-concave over ``Omega x R^{Nm}``, and its saddle operator
``Phi = [grad f(x) + L(x + v); -L x]`` decomposes into neighbor sums,
so the generic projected methods become per-agent update rules.

`as_saddle_problem` casts the instance as one stacked saddle problem
over ``z = [x, v]`` (each block ``N x m``, agent-major), whose operator
is Phi from a single `NetworkGraph.lap_apply` over the columns
``[x + v, x]``, the payloads the agents of `network` exchange. Phi and
L1 take one point or a stack of points: the stack's leading axes ride
along as further Laplacian columns, so one pass serves every point.
`simulate_consensus` runs the generic `solvers.run` on it and reads the
per-agent trace off the recorded rows. Every neighbor sum goes through
`lap_apply` and the per-agent route in `network` uses the same
expressions, so the two routes agree to the last bit.
"""

import numpy as np

from . import sets
from .core import SaddleProblem, ValidationError, _batched, _norm
from .graphs import lambda_max
from .solvers import SolverConfig, run, step_bound, step_eg, step_ogda

__all__ = ["ConsensusAgentSpec", "ConsensusProblem", "lagrangian_L1",
           "operator_phi", "consensus_residual", "as_saddle_problem",
           "initial_state", "step_consensus_ogda", "step_consensus_eg",
           "simulate_consensus", "ConsensusTrace"]


class ConsensusAgentSpec(object):
    """Local data of one agent: objective, gradient, set, smoothness.

    Parameters
    ----------
    objective : callable
        ``f_i(x_i) -> float`` on m-vectors.
    gradient : callable
        ``grad f_i(x_i) -> m-vector``; must be pure.
    cset : ConvexSet
        Local constraint set Omega_i of dimension m.
    lipschitz : float
        Lipschitz constant of the gradient.
    """

    def __init__(self, objective, gradient, cset, lipschitz):
        if lipschitz < 0:
            raise ValidationError("agent lipschitz constant must be nonnegative")
        self.objective = objective
        self.gradient = gradient
        self.cset = cset
        self.lipschitz = float(lipschitz)


class ConsensusProblem(object):
    """Consensus problem instance over an undirected connected graph.

    Parameters
    ----------
    graph : NetworkGraph
    m : int
        Decision dimension per agent.
    agents : list of ConsensusAgentSpec
        One per vertex; all sets must have dimension `m`.
    vector_objective, vector_gradient : callable, optional
        Vectorized oracles mapping stacked ``(..., N, m)`` decisions to
        per-agent values ``(..., N)`` / gradients ``(..., N, m)``; any
        leading axes are a batch of points (reduce over ``axis=-1``,
        never a fixed axis). They must agree with the per-agent oracles
        to the last bit (same elementwise operations); used to keep
        long runs fast.

    Attributes
    ----------
    kappa_c : float
        Declared Lipschitz constant of Phi,
        ``max_i l_i + 2 lambda_max(L)``.
    """

    def __init__(self, graph, m, agents, vector_objective=None,
                 vector_gradient=None, name=None):
        if len(agents) != graph.n:
            raise ValidationError("need one agent spec per vertex")
        if any(a.cset.dim != m for a in agents):
            raise ValidationError("agent sets must have dimension m")
        self.graph = graph
        self.n = graph.n
        self.m = int(m)
        self.agents = list(agents)
        self.vector_objective = vector_objective
        self.vector_gradient = vector_gradient
        self.name = name or "consensus"
        self.meta = {}
        self.lambda_max = lambda_max(graph)
        self.l_f = max(a.lipschitz for a in agents)
        self.kappa_c = self.l_f + 2.0 * self.lambda_max
        # product of the agent sets over the flattened rows; boxes make
        # it one clip
        self.decision_set = sets.Product([a.cset for a in agents])

    def rows(self, flat):
        """Reshape a stacked ``Nm`` vector into per-agent rows."""
        return np.asarray(flat, dtype=float).reshape(self.n, self.m)

    def objective_rows(self, x):
        """Per-agent objective values ``f_i(x_i)`` as an ``(..., N)`` array.

        `x` holds rows ``(N, m)`` or a stack of them ``(..., N, m)``.
        """
        if self.vector_objective is not None:
            return _batched(self.vector_objective(x), x.shape[:-1],
                            "vector_objective")
        if x.ndim > 2:
            return np.stack([self.objective_rows(r) for r in x])
        return np.array([a.objective(x[i]) for i, a in enumerate(self.agents)])

    def total_objective(self, x):
        return float(np.add.reduce(self.objective_rows(x), axis=None))

    def gradient_rows(self, x):
        """Stacked gradients ``grad f_i(x_i)``, shaped like `x` ``(..., N, m)``."""
        if self.vector_gradient is not None:
            return _batched(self.vector_gradient(x), x.shape,
                            "vector_gradient")
        if x.ndim > 2:
            return np.stack([self.gradient_rows(r) for r in x])
        return np.stack([a.gradient(x[i]) for i, a in enumerate(self.agents)])

    def project_rows(self, x):
        """Project each row onto its agent's set."""
        return self.decision_set.project(np.ravel(x)).reshape(self.n, self.m)

    def __repr__(self):
        return "ConsensusProblem({}, n={}, m={})".format(self.name, self.n, self.m)


def _point_rows(problem, u):
    """Rows of a flat ``Nm`` vector; blocks and stacks ``(..., N, m)`` pass."""
    u = np.asarray(u, dtype=float)
    return problem.rows(u) if u.ndim == 1 else u


def lagrangian_L1(problem, x, v):
    """Augmented Lagrangian value.

    `x` and `v` as rows or flat vectors give a float; stacks of rows
    ``(..., N, m)`` give one value per point, from one `lap_apply`.
    """
    x = _point_rows(problem, x)
    v = _point_rows(problem, v)
    lap_x = problem.graph.lap_rows(x)
    # np.add.reduce is what np.sum calls, minus its Python wrapper; over
    # the trailing axes of each point it sums exactly as over all axes
    # of one point
    total = np.add.reduce
    both = (-2, -1)
    value = (total(problem.objective_rows(x), axis=-1)
             + total(v * lap_x, axis=both)
             + 0.5 * total(x * lap_x, axis=both))
    return float(value) if value.ndim == 0 else value


def _phi(problem, x, v):
    """Phi at rows ``(x, v)``, written once into an array laid out like ``z``.

    Blocks: ``grad f + L(x + v)`` and ``-L x``. Both Laplacian products
    come from one `lap_apply` over the stacked columns ``[x + v, x]``;
    a stack of points ``(..., N, m)`` adds its points as columns.
    """
    n, m = problem.n, problem.m
    lead = x.shape[:-2]
    lap = problem.graph.lap_rows(np.concatenate([x + v, x], axis=-1))
    phi = np.empty(lead + (2, n, m))
    np.add(problem.gradient_rows(x), lap[..., :m], out=phi[..., 0, :, :])
    np.negative(lap[..., m:], out=phi[..., 1, :, :])
    return phi.reshape(lead + (2 * n * m,))


def operator_phi(problem, x, v):
    """Saddle operator Phi at ``(x, v)`` as one stacked ``2Nm`` vector."""
    return _phi(problem, problem.rows(x), problem.rows(v))


def consensus_residual(problem, x):
    """Norm of ``(L (x) I_m) x``; zero exactly at consensus."""
    return float(_residual_rows(problem, problem.rows(x)[None])[0])


def _residual_rows(problem, xs):
    """`consensus_residual` of each ``(N, m)`` block of ``xs``.

    One Laplacian pass takes every block's decisions as columns; each
    norm is that of the block raveled into contiguous memory, as
    `np.linalg.norm` takes it (a strided dot sums in another order).
    """
    rows, n, m = xs.shape
    lap = np.ascontiguousarray(problem.graph.lap_rows(xs))
    return np.array([_norm(block) for block in lap.reshape(rows, n * m)])


def as_saddle_problem(problem):
    """Expose the consensus dynamics as a generic saddle problem.

    Primal block: stacked decisions over the product of the agent sets.
    Dual block: unconstrained stacked multipliers. The declared operator
    constant is ``kappa_c``, which is what the distributed step-size
    bounds are stated against (tighter than twice the max block
    constant). The operator is the fused Phi.
    """
    n, m = problem.n, problem.m
    nm = n * m
    lam = problem.lambda_max

    def value(x, v):
        return lagrangian_L1(problem, x, v)

    def grad_x(x, v):
        x = problem.rows(x)
        return (problem.gradient_rows(x)
                + problem.graph.lap_apply(x + problem.rows(v))).ravel()

    def grad_y(x, v):
        return problem.graph.lap_apply(problem.rows(x)).ravel()

    def blocks(z):
        shape = z.shape[:-1] + (n, m)
        return z[..., :nm].reshape(shape), z[..., nm:].reshape(shape)

    def operator(z):
        return _phi(problem, *blocks(z))

    def objective(z):
        return lagrangian_L1(problem, *blocks(z))

    return SaddleProblem(
        nm, nm,
        problem.decision_set,
        sets.WholeSpace(nm),
        value, grad_x, grad_y,
        lipschitz={"l_xx": problem.l_f + lam, "l_xy": lam,
                   "l_yx": lam, "l_yy": 0.0},
        kappa=problem.kappa_c, operator=operator, objective=objective,
        name=problem.name + "-stacked")


def initial_state(problem, x0=None, v0=None):
    """Stacked start ``z0 = [x0, v0]``.

    Decisions default to the projection of zero, multipliers to zero.
    """
    if x0 is None:
        x0 = problem.project_rows(np.zeros((problem.n, problem.m)))
    v0 = np.zeros(problem.n * problem.m) if v0 is None else problem.rows(v0)
    return np.concatenate([problem.rows(x0).ravel(), v0.ravel()])


def step_consensus_ogda(problem, z, z_prev, alpha):
    """One OGDA step of the stacked dynamics from ``z`` after ``z_prev``."""
    return step_ogda(as_saddle_problem(problem), z, z_prev, alpha)


def step_consensus_eg(problem, z, alpha):
    """One EG step of the stacked dynamics; returns ``(z_half, z_next)``."""
    return step_eg(as_saddle_problem(problem), z, alpha)


class ConsensusTrace(object):
    """Recorded trajectory of a distributed consensus run.

    Reads the per-agent view off a `RunTrace` of the stacked problem.
    Arrays indexed by recorded row: iterates ``x``/``v`` of shape
    ``(rows, N, m)``, running ergodic averages ``erg_x``/``erg_v``
    (iterates for OGDA, mid-points for EG; NaN on row 0),
    ``consensus_residual``, ``objective`` (sum of agent objectives),
    and the stacked natural-map residual ``vi_residual``.
    """

    def __init__(self, problem, trace):
        n, m = problem.n, problem.m
        rows = trace.iters.size
        self.problem = problem
        self.method = trace.method
        self.alpha = trace.alpha
        self.gradient_calls = trace.gradient_calls
        self.stopped_at = trace.stopped_at
        self.iters = trace.iters
        self.vi_residual = trace.vi_residual
        self.x, self.v = (block.reshape(rows, n, m)
                          for block in np.hsplit(trace.z, 2))
        self.erg_x, self.erg_v = (block.reshape(rows, n, m)
                                  for block in np.hsplit(trace.ergodic, 2))
        self.consensus_residual = _residual_rows(problem, self.x)
        self.objective = np.add.reduce(problem.objective_rows(self.x),
                                       axis=-1)

    def to_csv(self, path):
        """Write the per-agent trace: one row per (iteration, agent)."""
        m = self.problem.m
        header = (["iter", "agent_id"]
                  + ["x{}".format(c) for c in range(m)]
                  + ["v{}".format(c) for c in range(m)]
                  + ["consensus_residual", "objective_sum"])
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for r in range(self.iters.size):
                for i in range(self.problem.n):
                    row = ([str(int(self.iters[r])), str(i)]
                           + ["%.17g" % val for val in self.x[r, i]]
                           + ["%.17g" % val for val in self.v[r, i]]
                           + ["%.17g" % self.consensus_residual[r],
                              "%.17g" % self.objective[r]])
                    fh.write(",".join(row) + "\n")


def simulate_consensus(problem, method, alpha=None, max_iters=1000,
                       x0=None, v0=None, record_every=1, stop_tol=0.0):
    """Run the distributed consensus dynamics on the stacked problem.

    Parameters
    ----------
    problem : ConsensusProblem
    method : str
        ``OGDA`` or ``EG``.
    alpha : float, optional
        Step size; defaults to ``0.9 / (2 kappa_c)`` resp.
        ``0.9 / kappa_c`` and is validated against the method's bound.
    max_iters, record_every, stop_tol
        As in the generic solver; `stop_tol` acts on the stacked
        natural-map residual and zero disables early stopping.

    Returns
    -------
    ConsensusTrace

    Raises
    ------
    DivergenceError
        When an iterate turns non-finite or leaves the guard region.
    """
    method = str(method).upper()
    if method not in ("OGDA", "EG"):
        raise ValidationError("distributed methods are OGDA and EG")
    bound = step_bound(method, problem.kappa_c)
    if alpha is not None and not alpha < bound:
        raise ValidationError(
            "step size {:g} violates the {} bound {:g} (kappa_c={:g})"
            .format(alpha, method, bound, problem.kappa_c))
    config = SolverConfig(method, step_size=alpha, max_iters=max_iters,
                          stop_tol=stop_tol, record_every=record_every)
    trace = run(as_saddle_problem(problem), config,
                initial_state(problem, x0, v0))
    return ConsensusTrace(problem, trace)
