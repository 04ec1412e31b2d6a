"""Optimal consensus over a network with per-agent constraint sets.

The problem is ``min sum_i f_i(x_i)`` subject to all agents agreeing,
expressed through the Laplacian constraint ``(L (x) I_m) x = 0``. Its
augmented Lagrangian

``L1(x, v) = sum_i f_i(x_i) + v.(L (x) I_m) x + x.(L (x) I_m) x / 2``

is convex-concave over ``Omega x R^{Nm}``, and its saddle operator
``Phi = [grad f(x) + L(x + v); -L x]`` decomposes into neighbor sums,
so the generic projected methods become per-agent update rules.

`as_saddle_problem` casts the instance as one stacked saddle problem
over ``z = [x, v]``, in the layout the problem base in `solvers` owns:
the decisions ``x`` shaped ``(N, m)``, then one dual block ``v`` of the
same shape, both agent-major. The base also gives the blocks of ``z``
(`split`), the start (`start`) and the agents' oracles on stacks
(`objective_rows`, `gradient_rows`).

The operator is Phi: it copies ``z`` into a buffer ``[z, x + v]`` and
takes both Laplacian products from a single Laplacian pass over the
columns ``[x + v, x]``, the payloads the agents of `network` exchange,
through a gather plan of absolute indices into that buffer. The
operator builds the plan when it is made (`as_saddle_problem`); the
pass comes out laid out like ``z``, straight into the output. The
operator is a workspace builder (see `core.SaddleProblem`): the
buffer, the pass bound to it (`NetworkGraph.pass_workspace`) and the
route of the gradient are fixed when a workspace is built, once per
`solvers.run` and once per `core.operator_F` call. A bind fixes an
input and an output and the views of F's blocks in it, once per row
of `solvers.run`'s block arrays, and each evaluation reads the input
and writes the output; every bind shares the workspace's buffer and
pass. Phi takes one point ``(dim,)`` or a stack ``(..., dim)`` through
the same calls, and L1 takes a stack of rows ``(..., N, m)`` through
one `lap_apply`, in the same vertex-major layout, so one pass serves
every point.
`simulate_consensus` is one call into the body it shares with
`allocation` in `solvers`, which runs the generic `solvers.run` on it
and reads the per-agent trace off the recorded rows; the trace class
extends a shared base there too. Every neighbor sum goes through a
pass that `NetworkGraph.pass_workspace` binds, and the per-agent route
in `network` uses the same expressions, so the two routes agree to the
last bit.
"""

import numpy as np

from . import sets
from .core import (SaddleProblem, ValidationError, _batched, _evaluated,
                   _finite_constant, _row_dots)
from .network import ConsensusNetworkSimulator
from .solvers import (_NetworkProblem, _NetworkTrace, _Route, _simulate,
                      _write_agent_csv, step_eg, step_ogda)

__all__ = ["ConsensusAgentSpec", "ConsensusProblem", "lagrangian_L1",
           "operator_phi", "consensus_residual", "as_saddle_problem",
           "step_consensus_ogda", "step_consensus_eg",
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
        Lipschitz constant of the gradient, finite and nonnegative.
    """

    def __init__(self, objective, gradient, cset, lipschitz):
        self.objective = objective
        self.gradient = gradient
        self.cset = cset
        self.lipschitz = _finite_constant("agent lipschitz constant", lipschitz)


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
    _blocks = ("x", "v")

    def __init__(self, graph, m, agents, vector_objective=None,
                 vector_gradient=None, name=None):
        super().__init__(graph, m, agents, vector_objective, vector_gradient,
                         name or "consensus", (graph.n, int(m)))
        if any(a.cset.dim != m for a in agents):
            raise ValidationError("agent sets must have dimension m")
        self.l_f = max(a.lipschitz for a in agents)
        self.kappa_c = self.l_f + 2.0 * self.lambda_max

    def _route(self):
        return _Route(as_saddle_problem, ConsensusNetworkSimulator,
                      ConsensusTrace)


def lagrangian_L1(problem, x, v):
    """Augmented Lagrangian value.

    `x` and `v` as rows or flat vectors give a float; stacks of rows
    ``(..., N, m)`` give one value per point, from one `lap_apply` of
    the rows ``x``.
    Blocks of any other shape raise `ValidationError`.
    """
    x, v = problem._shaped_blocks(x, v)
    lap_x = problem.graph.lap_apply(x)
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

    Returns the fused hook, a workspace builder (see
    `core.SaddleProblem`): ``build(lead)`` fixes the scratch, the buffer
    ``[z, x + v]`` with its block views and the Laplacian pass over the
    columns ``[x + v, x]`` of that buffer (`NetworkGraph.pass_workspace`),
    which every bind shares. ``bind(z, out)`` fixes the views of F's
    blocks in `out`, and its ``evaluate()`` copies `z` into the buffer
    and writes ``grad f + L(x + v)`` and ``-L x`` into `out`, laid out
    like ``z``; the pass writes straight into it. A vector gradient
    oracle is called directly and its result checked on every call as
    `core._batched` checks it; without one the per-agent loop of
    `gradient_rows` runs. The gather plan is built with the hook. A
    stack ``(..., dim)`` takes the same calls as one point, with its
    points as leading axes.
    """
    n, m = problem.n, problem.m
    nm = n * m
    plan = problem.graph.gather_plan((2 * nm, 0), m)
    # the vector oracle, followed inline by the check `_batched` makes;
    # without one the per-agent loop, which always passes that check
    gradient = problem.vector_gradient
    if gradient is None:
        gradient = problem.gradient_rows
    ndarray, FLOAT = np.ndarray, sets._FLOAT
    add, negative = np.add, np.negative
    # the blocks of F, as indices formed once: a bind takes its views with
    # them and builds no slices
    x_block, v_block = (Ellipsis, slice(None, nm)), (Ellipsis, slice(nm, None))

    def build(lead):
        rows = lead + (n, m)
        ext = np.empty(lead + (3 * nm,))
        zbuf, x, v, pay = (ext[..., :2 * nm], ext[..., :nm],
                           ext[..., nm:2 * nm], ext[..., 2 * nm:])
        x_rows = x.reshape(rows)
        lap_pass = problem.graph.pass_workspace(plan, ext)

        def bind(z, out):
            gx, gv = out[x_block].reshape(rows), out[v_block]

            def evaluate():
                zbuf[...] = z
                add(x, v, pay)
                # [L(x + v), L x], laid out like z
                lap_pass(out)
                g = gradient(x_rows)
                if not (g.__class__ is ndarray and g.dtype is FLOAT
                        and g.shape == rows):
                    g = _batched(g, rows, "vector_gradient")
                add(g, gx, gx)
                negative(gv, gv)

            return evaluate

        return bind

    return build


def operator_phi(problem, x, v):
    """Saddle operator Phi at ``(x, v)`` as one stacked ``2Nm`` vector."""
    return _evaluated(_phi_operator(problem), problem.start(x, v))


def consensus_residual(problem, x):
    """Norm of ``(L (x) I_m) x``; zero exactly at consensus."""
    return float(_residual_rows(problem, problem.rows(x)[None])[0])


def _residual_rows(problem, xs):
    """`consensus_residual` of each ``(N, m)`` block of ``xs``.

    One `lap_apply` takes every block as a point; its result is
    C-ordered, so each block's norm sums over it raveled, as
    `np.linalg.norm` takes it (a strided dot sums in another order), and
    one batched matmul takes every block's dot.
    """
    rows, n, m = xs.shape
    flat = problem.graph.lap_apply(xs).reshape(rows, n * m)
    return np.sqrt(_row_dots(flat, flat))


def as_saddle_problem(problem):
    """Expose the consensus dynamics as a generic saddle problem.

    Primal block: stacked decisions over the product of the agent sets.
    Dual block: unconstrained stacked multipliers. The declared operator
    constant is ``kappa_c``, which is what the distributed step-size
    bounds are stated against. The operator is the fused Phi.
    """
    nm = problem.n * problem.m

    def value(x, v):
        return lagrangian_L1(problem, x, v)

    def grad_x(x, v):
        x = problem.rows(x)
        return (problem.gradient_rows(x)
                + problem.graph.lap_apply(x + problem.rows(v))).ravel()

    def grad_y(x, v):
        return problem.graph.lap_apply(problem.rows(x)).ravel()

    def objective(z):
        return lagrangian_L1(problem, *problem.split(z))

    return SaddleProblem(
        nm, nm,
        problem.decision_set,
        sets.WholeSpace(nm),
        value, grad_x, grad_y,
        kappa_m=problem.kappa_c, operator=_phi_operator(problem),
        objective=objective,
        name=problem.name + "-stacked")


def step_consensus_ogda(problem, z, z_prev, alpha):
    """One OGDA step of the stacked dynamics from ``z`` after ``z_prev``."""
    return step_ogda(as_saddle_problem(problem), z, z_prev, alpha)


def step_consensus_eg(problem, z, alpha):
    """One EG step of the stacked dynamics; returns ``(z_half, z_next)``."""
    return step_eg(as_saddle_problem(problem), z, alpha)


class ConsensusTrace(_NetworkTrace):
    """Recorded trajectory of a distributed consensus run.

    The `RunTrace` of the stacked run itself, taking over its attributes:
    its rows (``z``, ``z_half``, ``ergodic``, ``vi_residual``,
    ``step_norm``), ``dist_to_ref``, ``ergodic_gap`` and
    ``rate_certificate()`` are the run's. It adds, per recorded row,
    views of the iterates ``x``/``v`` of shape ``(rows, N, m)`` and of
    the running ergodic averages ``erg_x``/``erg_v`` (iterates for OGDA,
    mid-points for EG; NaN on row 0), ``consensus_residual`` and
    ``objective`` (sum of agent objectives). Its CSV is per agent.
    """

    def __init__(self, problem, trace):
        self.x, self.v = problem.split(trace.z)
        self.erg_x, self.erg_v = problem.split(trace.ergodic)
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
