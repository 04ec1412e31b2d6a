"""Optimal consensus over a network with per-agent constraint sets.

The problem is ``min sum_i f_i(x_i)`` subject to all agents agreeing,
expressed through the Laplacian constraint ``(L (x) I_m) x = 0``. Its
augmented Lagrangian

``L1(x, v) = sum_i f_i(x_i) + v.(L (x) I_m) x + x.(L (x) I_m) x / 2``

is convex-concave over ``Omega x R^{Nm}``, and its saddle operator
``Phi = [grad f(x) + L(x + v); -L x]`` decomposes into neighbor sums,
so the generic projected methods become per-agent update rules.

Both computation routes live here: vectorized step functions over
stacked ``(N, m)`` arrays (what the experiment harness runs), and
`as_saddle_problem`, which exposes the same dynamics to the generic
solvers. Every neighbor sum goes through `NetworkGraph.lap_apply` and
every update uses the same expression shape as the generic steps, so
the two routes agree to the last bit; the message-passing simulation in
`network` is held to the same standard.
"""

import numpy as np

from . import sets
from .core import SaddleProblem, ValidationError
from .graphs import lambda_max
from .solvers import step_bound

__all__ = ["ConsensusAgentSpec", "ConsensusProblem", "ConsensusState",
           "lagrangian_L1", "operator_phi", "step_consensus_ogda",
           "step_consensus_eg", "consensus_residual", "simulate_consensus",
           "ConsensusTrace"]


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
        Vectorized oracles mapping stacked ``(N, m)`` decisions to
        per-agent values ``(N,)`` / gradients ``(N, m)``. They must
        agree with the per-agent oracles to the last bit (same
        elementwise operations); used to keep long runs fast.

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
        """Per-agent objective values ``f_i(x_i)`` as an ``(N,)`` array."""
        if self.vector_objective is not None:
            return np.asarray(self.vector_objective(x), dtype=float)
        return np.array([a.objective(x[i]) for i, a in enumerate(self.agents)])

    def total_objective(self, x):
        return float(np.sum(self.objective_rows(x)))

    def gradient_rows(self, x):
        """Stacked gradients ``grad f_i(x_i)`` as an ``(N, m)`` array."""
        if self.vector_gradient is not None:
            return np.asarray(self.vector_gradient(x), dtype=float)
        return np.stack([a.gradient(x[i]) for i, a in enumerate(self.agents)])

    def project_rows(self, x):
        """Project each row onto its agent's set."""
        return self.decision_set.project(np.ravel(x)).reshape(self.n, self.m)

    def __repr__(self):
        return "ConsensusProblem({}, n={}, m={})".format(self.name, self.n, self.m)


def lagrangian_L1(problem, x, v):
    """Augmented Lagrangian value; `x` and `v` as rows or flat vectors."""
    x = problem.rows(x)
    v = problem.rows(v)
    lap_x = problem.graph.lap_apply(x)
    return float(np.sum(problem.objective_rows(x)) + np.sum(v * lap_x)
                 + 0.5 * np.sum(x * lap_x))


def _phi_rows(problem, x, v):
    """Blocks of Phi as stacked rows: ``(grad f + L(x + v), -L x)``."""
    gx = problem.gradient_rows(x) + problem.graph.lap_apply(x + v)
    gv = -problem.graph.lap_apply(x)
    return gx, gv


def operator_phi(problem, x, v):
    """Saddle operator Phi at ``(x, v)`` as one stacked ``2Nm`` vector."""
    gx, gv = _phi_rows(problem, problem.rows(x), problem.rows(v))
    return np.concatenate([gx.ravel(), gv.ravel()])


def consensus_residual(problem, x):
    """Norm of ``(L (x) I_m) x``; zero exactly at consensus."""
    return float(np.linalg.norm(problem.graph.lap_apply(problem.rows(x))))


def as_saddle_problem(problem):
    """Expose the consensus dynamics as a generic saddle problem.

    Primal block: stacked decisions over the product of the agent sets.
    Dual block: unconstrained stacked multipliers. The declared operator
    constant is ``kappa_c``, which is what the distributed step-size
    bounds are stated against (tighter than twice the max block
    constant).
    """
    n, m = problem.n, problem.m
    lam = problem.lambda_max

    def value(x, v):
        return lagrangian_L1(problem, x, v)

    def grad_x(x, v):
        gx, _ = _phi_rows(problem, problem.rows(x), problem.rows(v))
        return gx.ravel()

    def grad_y(x, v):
        return problem.graph.lap_apply(problem.rows(x)).ravel()

    return SaddleProblem(
        n * m, n * m,
        problem.decision_set,
        sets.WholeSpace(n * m),
        value, grad_x, grad_y,
        lipschitz={"l_xx": problem.l_f + lam, "l_xy": lam,
                   "l_yx": lam, "l_yy": 0.0},
        kappa=problem.kappa_c,
        name=problem.name + "-stacked")


class ConsensusState(object):
    """Per-agent iterates and the cached operator values of the last step.

    ``x`` and ``v`` are ``(N, m)`` arrays. ``phi_x``/``phi_v`` memoize
    Phi at the current point (filled on demand, so one evaluation per
    iteration covers both the step and the residual), and
    ``phi_x_prev``/``phi_v_prev`` carry the previous step's values for
    the optimistic correction. ``x_half``/``v_half`` hold the mid-point
    of the extra-gradient step that produced this state.
    """

    def __init__(self, x, v, x_prev=None, v_prev=None,
                 phi_x_prev=None, phi_v_prev=None,
                 x_half=None, v_half=None):
        self.x = x
        self.v = v
        self.x_prev = x_prev
        self.v_prev = v_prev
        self.phi_x_prev = phi_x_prev
        self.phi_v_prev = phi_v_prev
        self.x_half = x_half
        self.v_half = v_half
        self.phi_x = None
        self.phi_v = None

    def ensure_phi(self, problem):
        """Memoize Phi at the current point; returns ``(phi_x, phi_v)``."""
        if self.phi_x is None:
            self.phi_x, self.phi_v = _phi_rows(problem, self.x, self.v)
        return self.phi_x, self.phi_v


def initial_state(problem, x0=None, v0=None):
    """Build the starting state; decisions default to the projection of zero."""
    if x0 is None:
        x0 = problem.project_rows(np.zeros((problem.n, problem.m)))
    else:
        x0 = problem.rows(x0).copy()
    v0 = np.zeros((problem.n, problem.m)) if v0 is None else problem.rows(v0).copy()
    return ConsensusState(x0, v0)


def step_consensus_ogda(problem, state, alpha):
    """One optimistic step of every agent; returns the new state.

    Each agent moves with twice the current minus the cached previous
    operator value, projecting its decision block onto its own set; the
    first call (no cache yet) reduces to a plain projected step.
    """
    gx, gv = state.ensure_phi(problem)
    gxp = gx if state.phi_x_prev is None else state.phi_x_prev
    gvp = gv if state.phi_v_prev is None else state.phi_v_prev
    x_new = problem.project_rows(state.x - 2.0 * alpha * gx + alpha * gxp)
    v_new = state.v - 2.0 * alpha * gv + alpha * gvp
    return ConsensusState(x_new, v_new, x_prev=state.x, v_prev=state.v,
                          phi_x_prev=gx, phi_v_prev=gv)


def step_consensus_eg(problem, state, alpha):
    """One extra-gradient step of every agent; returns the new state.

    Agents probe the mid-point with current neighbor values, exchange
    mid-points, and step from the current point using the mid-point
    operator values (two exchanges per iteration).
    """
    gx, gv = state.ensure_phi(problem)
    x_half = problem.project_rows(state.x - alpha * gx)
    v_half = state.v - alpha * gv
    gxh, gvh = _phi_rows(problem, x_half, v_half)
    x_new = problem.project_rows(state.x - alpha * gxh)
    v_new = state.v - alpha * gvh
    return ConsensusState(x_new, v_new, x_prev=state.x, v_prev=state.v,
                          x_half=x_half, v_half=v_half)


def _vi_residual_rows(problem, state):
    # natural-map residual of the stacked saddle problem, reusing the
    # memoized operator values (no extra oracle calls)
    gx, gv = state.ensure_phi(problem)
    rx = state.x - problem.project_rows(state.x - gx)
    return float(np.sqrt(np.sum(rx ** 2) + np.sum(gv ** 2)))


class ConsensusTrace(object):
    """Recorded trajectory of a distributed consensus run.

    Arrays indexed by recorded row: iterates ``x``/``v`` of shape
    ``(rows, N, m)``, running ergodic averages ``erg_x``/``erg_v``
    (iterates for OGDA, mid-points for EG; NaN on row 0),
    ``consensus_residual``, ``objective`` (sum of agent objectives),
    and the stacked natural-map residual ``vi_residual``.
    """

    def __init__(self, problem, method, alpha):
        self.problem = problem
        self.method = method
        self.alpha = alpha
        self.gradient_calls = 0
        self.stopped_at = None
        self._rows = []

    def _append(self, it, state, erg_x, erg_v, resid):
        self._rows.append((it, state.x.copy(), state.v.copy(),
                           None if erg_x is None else erg_x.copy(),
                           None if erg_v is None else erg_v.copy(),
                           consensus_residual(self.problem, state.x),
                           self.problem.total_objective(state.x),
                           resid))

    def _finalize(self):
        rows = self._rows
        n, m = self.problem.n, self.problem.m
        self.iters = np.array([r[0] for r in rows], dtype=int)
        self.x = np.array([r[1] for r in rows])
        self.v = np.array([r[2] for r in rows])
        self.erg_x = np.full((len(rows), n, m), np.nan)
        self.erg_v = np.full((len(rows), n, m), np.nan)
        for i, r in enumerate(rows):
            if r[3] is not None:
                self.erg_x[i] = r[3]
                self.erg_v[i] = r[4]
        self.consensus_residual = np.array([r[5] for r in rows])
        self.objective = np.array([r[6] for r in rows])
        self.vi_residual = np.array([r[7] for r in rows])
        del self._rows

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
    """Run the distributed consensus dynamics on stacked arrays.

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
    """
    method = str(method).upper()
    if method not in ("OGDA", "EG"):
        raise ValidationError("distributed methods are OGDA and EG")
    bound = step_bound(method, problem.kappa_c)
    if alpha is None:
        alpha = 0.9 * bound
    elif not alpha < bound:
        raise ValidationError(
            "step size {:g} violates the {} bound {:g} (kappa_c={:g})"
            .format(alpha, method, bound, problem.kappa_c))

    state = initial_state(problem, x0, v0)
    trace = ConsensusTrace(problem, method, alpha)
    state.ensure_phi(problem)
    trace.gradient_calls = 1
    resid = _vi_residual_rows(problem, state)
    trace._append(0, state, None, None, resid)

    erg_x = np.zeros((problem.n, problem.m))
    erg_v = np.zeros((problem.n, problem.m))
    count = 0
    step = step_consensus_ogda if method == "OGDA" else step_consensus_eg

    def reached(r):
        return stop_tol > 0 and r <= stop_tol

    if reached(resid):
        trace.stopped_at = 0
        trace._finalize()
        return trace

    for k in range(max_iters):
        it = k + 1
        state = step(problem, state, alpha)
        if method == "EG":
            erg_x += state.x_half
            erg_v += state.v_half
        else:
            erg_x += state.x
            erg_v += state.v
        count += 1
        state.ensure_phi(problem)
        trace.gradient_calls += 2 if method == "EG" else 1
        resid = _vi_residual_rows(problem, state)
        done = reached(resid) or it == max_iters
        if it % record_every == 0 or done:
            trace._append(it, state, erg_x / count, erg_v / count, resid)
        if reached(resid):
            trace.stopped_at = it
            break
    trace._finalize()
    return trace
