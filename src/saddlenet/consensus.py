"""Optimal consensus over a network with per-agent constraint sets.

The problem is ``min sum_i f_i(x_i)`` subject to all agents agreeing,
expressed through the Laplacian constraint ``(L (x) I_m) x = 0``. Its
augmented Lagrangian

``L1(x, v) = sum_i f_i(x_i) + v.(L (x) I_m) x + x.(L (x) I_m) x / 2``

is convex-concave over ``Omega x R^{Nm}``, and its saddle operator
``Phi = [grad f(x) + L(x + v); -L x]`` decomposes into neighbor sums,
so the generic projected methods become per-agent update rules.

`as_saddle_problem` casts the instance as one stacked saddle problem
over ``z = [x, v]`` (each block ``N x m``, agent-major). Its operator
is Phi: it copies ``z`` into a buffer ``[z, x + v]`` and takes both
Laplacian products from a single `NetworkGraph.lap_pass` over the
columns ``[x + v, x]``, the payloads the agents of `network` exchange,
through a gather plan of absolute indices into that buffer. The problem
builds the plan on its first evaluation; the pass comes out laid out
like ``z`` and becomes the result. Phi takes one point ``(dim,)`` or a
stack ``(..., dim)`` through the same calls, and L1 takes stacks
through `lap_rows`, so one pass serves every point. `simulate_consensus` is
one call into the body it shares with `allocation` in `solvers`, which
runs the generic `solvers.run` on it and reads the per-agent trace off
the recorded rows; the problem and trace classes extend shared bases
there too. Every neighbor sum goes through `lap_pass` and the
per-agent route in `network` uses the same expressions, so the two
routes agree to the last bit.
"""

import numpy as np

from . import sets
from .core import SaddleProblem, ValidationError, _batched, _row_dots
from .network import ConsensusNetworkSimulator
from .solvers import (_NetworkProblem, _NetworkTrace, _Route, _simulate,
                      _write_agent_csv, step_eg, step_ogda)

__all__ = ["ConsensusAgentSpec", "ConsensusProblem", "lagrangian_L1",
           "operator_phi", "consensus_residual", "as_saddle_problem",
           "initial_state", "step_consensus_ogda", "step_consensus_eg",
           "simulate_consensus", "ConsensusTrace"]


class ConsensusAgentSpec(object):
    """Local data of one agent: objective, gradient, set, smoothness.

    Parameters
    ----------
    objective : callable
        ``f_i(x_i) -> float`` on m-vectors; must be pure.
    gradient : callable
        ``grad f_i(x_i) -> m-vector``; must be pure. Both are called
        once per distinct point of a stack, so their values may be
        reused for bit-equal inputs.
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


class ConsensusProblem(_NetworkProblem):
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

    _kappa_name = "kappa_c"

    def __init__(self, graph, m, agents, vector_objective=None,
                 vector_gradient=None, name=None):
        super().__init__(graph, m, agents, vector_objective, vector_gradient,
                         name or "consensus")
        if any(a.cset.dim != m for a in agents):
            raise ValidationError("agent sets must have dimension m")
        self.l_f = max(a.lipschitz for a in agents)
        self.kappa_c = self.l_f + 2.0 * self.lambda_max

    def objective_rows(self, x):
        """Per-agent objective values ``f_i(x_i)`` as an ``(..., N)`` array.

        `x` holds rows ``(N, m)`` or a stack of them ``(..., N, m)``.
        """
        if self.vector_objective is not None:
            return _batched(self.vector_objective(x), x.shape[:-1],
                            "vector_objective")
        out = np.empty(x.shape[:-1])
        for i, a in enumerate(self.agents):
            name = "ConsensusAgentSpec.objective of agent {}".format(i)
            sets._each_point(a.objective, x[..., i, :], out[..., i], name)
        return out

    def gradient_rows(self, x):
        """Stacked gradients ``grad f_i(x_i)``, shaped like `x` ``(..., N, m)``."""
        if self.vector_gradient is not None:
            return _batched(self.vector_gradient(x), x.shape,
                            "vector_gradient")
        out = np.empty(x.shape)
        for i, a in enumerate(self.agents):
            name = "ConsensusAgentSpec.gradient of agent {}".format(i)
            sets._each_point(a.gradient, x[..., i, :], out[..., i, :], name)
        return out

    def project_rows(self, x):
        """Project each row onto its agent's set."""
        return self.decision_set.project(np.ravel(x)).reshape(self.n, self.m)

    def _split(self, z):
        """Rows ``(x, v)`` ``(..., N, m)`` of stacked iterates ``(..., 2Nm)``."""
        nm = self.n * self.m
        rows = z.shape[:-1] + (self.n, self.m)
        return z[..., :nm].reshape(rows), z[..., nm:].reshape(rows)

    def _route(self):
        return _Route(as_saddle_problem, initial_state, simulate_consensus,
                      ConsensusNetworkSimulator, ConsensusTrace)


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


def _phi_operator(problem):
    """Phi on flat iterates ``z = [x, v]``, one point or a stack.

    Returns ``phi(z)``, which writes ``grad f + L(x + v)`` and ``-L x``
    into an array laid out like ``z``. Both Laplacian products come from
    one `NetworkGraph.lap_pass` over the columns ``[x + v, x]`` of the
    buffer ``[z, x + v]``; its gather plan is built on the first call. A
    stack ``(..., dim)`` takes the same calls as one point, with its
    points as leading axes.
    """
    n, m = problem.n, problem.m
    nm = n * m
    plan = None

    def phi(z):
        nonlocal plan
        if plan is None:
            plan = problem.graph.gather_plan((2 * nm, 0), m)
        lead = z.shape[:-1]
        rows = lead + (n, m)
        ext = np.empty(lead + (3 * nm,))
        ext[..., :2 * nm] = z
        x = z[..., :nm]
        np.add(x, z[..., nm:], out=ext[..., 2 * nm:])
        # [L(x + v), L x], laid out like z
        out = problem.graph.lap_pass(ext, plan)
        gx = out[..., :nm].reshape(rows)
        np.add(problem.gradient_rows(x.reshape(rows)), gx, out=gx)
        np.negative(out[..., nm:], out=out[..., nm:])
        return out

    return phi


def operator_phi(problem, x, v):
    """Saddle operator Phi at ``(x, v)`` as one stacked ``2Nm`` vector."""
    return _phi_operator(problem)(initial_state(problem, x, v))


def consensus_residual(problem, x):
    """Norm of ``(L (x) I_m) x``; zero exactly at consensus."""
    return float(_residual_rows(problem, problem.rows(x)[None])[0])


def _residual_rows(problem, xs):
    """`consensus_residual` of each ``(N, m)`` block of ``xs``.

    One Laplacian pass takes every block's decisions as columns; each
    norm is that of the block raveled into contiguous memory, as
    `np.linalg.norm` takes it (a strided dot sums in another order), and
    one batched matmul takes every block's dot.
    """
    rows, n, m = xs.shape
    lap = np.ascontiguousarray(problem.graph.lap_rows(xs))
    flat = lap.reshape(rows, n * m)
    return np.sqrt(_row_dots(flat, flat))


def as_saddle_problem(problem):
    """Expose the consensus dynamics as a generic saddle problem.

    Primal block: stacked decisions over the product of the agent sets.
    Dual block: unconstrained stacked multipliers. The declared operator
    constant is ``kappa_c``, which is what the distributed step-size
    bounds are stated against (tighter than twice the max block
    constant). The operator is the fused Phi.
    """
    nm = problem.n * problem.m
    lam = problem.lambda_max

    def value(x, v):
        return lagrangian_L1(problem, x, v)

    def grad_x(x, v):
        x = problem.rows(x)
        return (problem.gradient_rows(x)
                + problem.graph.lap_apply(x + problem.rows(v))).ravel()

    def grad_y(x, v):
        return problem.graph.lap_apply(problem.rows(x)).ravel()

    def objective(z):
        return lagrangian_L1(problem, *problem._split(z))

    return SaddleProblem(
        nm, nm,
        problem.decision_set,
        sets.WholeSpace(nm),
        value, grad_x, grad_y,
        lipschitz={"l_xx": problem.l_f + lam, "l_xy": lam,
                   "l_yx": lam, "l_yy": 0.0},
        kappa=problem.kappa_c, operator=_phi_operator(problem),
        objective=objective,
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


class ConsensusTrace(_NetworkTrace):
    """Recorded trajectory of a distributed consensus run.

    Reads the per-agent view off a `RunTrace` of the stacked problem.
    Arrays indexed by recorded row: iterates ``x``/``v`` of shape
    ``(rows, N, m)``, running ergodic averages ``erg_x``/``erg_v``
    (iterates for OGDA, mid-points for EG; NaN on row 0),
    ``consensus_residual``, ``objective`` (sum of agent objectives),
    and the stacked natural-map residual ``vi_residual``.
    """

    def __init__(self, problem, trace):
        self.x, self.v = problem._split(trace.z)
        self.erg_x, self.erg_v = problem._split(trace.ergodic)
        super().__init__(problem, trace, self.x)
        self.consensus_residual = _residual_rows(problem, self.x)

    def to_csv(self, path):
        """Write the per-agent trace: one row per (iteration, agent)."""
        _write_agent_csv(path, self.iters, (("x", self.x), ("v", self.v)),
                         (("consensus_residual", self.consensus_residual),
                          ("objective_sum", self.objective)))


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
    return _simulate(problem, method, alpha, (x0, v0), max_iters=max_iters,
                     record_every=record_every, stop_tol=stop_tol)
