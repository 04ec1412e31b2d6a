"""Bulk-synchronous message-passing simulation of the distributed runs.

This module re-implements the consensus and allocation dynamics the way
they would run on an actual network: each agent is one `_Agent` holding
only its own variables, and all cross-agent information flows through
`Network.exchange`, which delivers payloads strictly along graph edges.
No agent ever reads another agent's fields or any stacked array.

An agent keeps its variables in one local vector, its own slice of the
stacked iterate: ``[x_i, v_i]`` for consensus and ``[y_i, a_i, lam_i]``
for allocation. Each round it publishes one payload of ``2m`` floats,
computed from the variables it shares alone: ``[x_i + v_i, x_i]`` from
``(x_i, v_i)``, and ``[lam_i, a_i + lam_i]`` from ``(a_i, lam_i)``.
Decisions ``y_i`` and gradients never leave an agent. With its own
payload ``p_i``, agent i forms one neighbor sum ``s = sum_j (p_i - p_j)``
onto zeros in ascending neighbor order, which is row i of the stacked
`NetworkGraph.lap_apply` over the payload columns. A per-problem local
operator turns ``s`` into the agent's block of Phi (resp. Psi), and the
agent moves its whole vector with the stacked step's expression and one
projection onto its set times the free variables.

The point of the duplication is evidence, not speed. Since the sums and
the update expressions are the stacked ones, elementwise, the two routes
produce the same trajectories up to the last bit (checked in the tests);
the stacked route is the one that gets the fast vectorized oracles.
"""

import numpy as np

from . import sets

__all__ = ["Network", "ConsensusNetworkSimulator", "AllocationNetworkSimulator"]


class Network(object):
    """Synchronous neighbor exchange on an undirected graph.

    ``exchange(payloads)`` takes one payload per vertex and returns,
    for each vertex, a dict mapping neighbor id to that neighbor's
    payload, in ascending neighbor order. Agents receive nothing else.
    """

    def __init__(self, graph):
        self.graph = graph

    def exchange(self, payloads):
        if len(payloads) != self.graph.n:
            raise ValueError("need one payload per vertex")
        return [{j: payloads[j] for j in self.graph.neighbors[i]}
                for i in range(self.graph.n)]


class _Agent(object):
    """One agent: a local vector ``w``, its payload and its local operator.

    ``payload(w)`` returns the array the agent publishes at point ``w``.
    ``local(w, s, out)`` writes the agent's operator value at ``w`` into
    ``out``, given the neighbor sum ``s``, which it may overwrite.
    ``cset`` is the agent's own set times its free variables.
    """

    def __init__(self, w0, payload, local, cset):
        self.w = self.point = np.array(w0, dtype=float)
        self._payload = payload
        self._local = local
        self._cset = cset
        self._own = None
        self._g_prev = None

    def publish(self):
        # every step rebinds `point`, so a published payload never
        # changes after the neighbors received it
        self._own = self._payload(self.point)
        return self._own

    def _operator(self, inbox):
        own = self._own
        s = np.zeros(own.size)
        for p in inbox.values():
            s += own - p
        g = np.empty(self.w.size)
        self._local(self.point, s, g)
        return g

    def step_ogda(self, inbox, alpha):
        g = self._operator(inbox)
        gp = g if self._g_prev is None else self._g_prev
        self.w = self.point = self._cset.project(
            self.w - 2.0 * alpha * g + alpha * gp)
        self._g_prev = g

    def step_eg_probe(self, inbox, alpha):
        self.point = self._cset.project(self.w - alpha * self._operator(inbox))

    def step_eg_commit(self, inbox_half, alpha):
        self.w = self.point = self._cset.project(
            self.w - alpha * self._operator(inbox_half))


class _Simulator(object):
    """Per-agent run loop shared by the consensus and allocation simulators.

    A subclass passes each agent's starting vector and its ``(payload,
    local)`` pair, and reshapes the rows of `_history`.
    """

    def __init__(self, problem, method, alpha, kappa, starts, roles):
        from .solvers import step_bound
        method = str(method).upper()
        if method not in ("OGDA", "EG"):
            raise ValueError("distributed methods are OGDA and EG")
        self.problem = problem
        self.method = method
        self.alpha = 0.9 * step_bound(method, kappa) if alpha is None else alpha
        self.network = Network(problem.graph)
        self.agents = [
            _Agent(w0, payload, local, sets.Product(
                [spec.cset, sets.WholeSpace(len(w0) - spec.cset.dim)]))
            for w0, spec, (payload, local)
            in zip(starts, problem.agents, roles)]

    def _history(self, iters):
        """Rows of the concatenated agent vectors, row 0 the initial point."""
        agents, alpha = self.agents, self.alpha
        hist = np.empty((iters + 1, sum(ag.w.size for ag in agents)))
        np.concatenate([ag.w for ag in agents], out=hist[0])
        for k in range(1, iters + 1):
            inbox = self.network.exchange([ag.publish() for ag in agents])
            if self.method == "OGDA":
                for ag, box in zip(agents, inbox):
                    ag.step_ogda(box, alpha)
            else:
                for ag, box in zip(agents, inbox):
                    ag.step_eg_probe(box, alpha)
                inbox = self.network.exchange([ag.publish() for ag in agents])
                for ag, box in zip(agents, inbox):
                    ag.step_eg_commit(box, alpha)
            np.concatenate([ag.w for ag in agents], out=hist[k])
        return hist


def _consensus_roles(spec, m):
    """Payload ``[x + v, x]`` and ``Phi_i = [grad f_i(x) + s_1, -s_2]``.

    With this payload the neighbor sum is ``s = [(L(x + v))_i, (L x)_i]``.
    """
    grad = spec.gradient

    def payload(w):
        x = w[:m]
        return np.concatenate((x + w[m:], x))

    def local(w, s, out):
        np.add(grad(w[:m]), s[:m], out=out[:m])
        np.negative(s[m:], out=out[m:])

    return payload, local


class ConsensusNetworkSimulator(_Simulator):
    """Run the consensus dynamics through per-agent message passing.

    Parameters
    ----------
    problem : ConsensusProblem
    method : str
        ``OGDA`` (one exchange per iteration) or ``EG`` (two: current
        points, then probe points).
    alpha : float, optional
        Defaults to ``0.9`` times the method's bound at ``kappa_c``, the
        default of the stacked route.
    x0, v0 : array_like, optional
        Initial stacked values; same defaults as the stacked route.
    """

    def __init__(self, problem, method="OGDA", alpha=None, x0=None, v0=None):
        from .consensus import initial_state
        x, v = np.split(initial_state(problem, x0, v0), 2)
        super().__init__(problem, method, alpha, problem.kappa_c,
                         np.concatenate([problem.rows(x), problem.rows(v)],
                                        axis=1),
                         [_consensus_roles(spec, problem.m)
                          for spec in problem.agents])

    def run(self, iters):
        """Advance `iters` steps; returns stacked histories.

        Returns ``(x_hist, v_hist)`` of shape ``(iters + 1, N, m)``
        with row 0 holding the initial point.
        """
        n, m = self.problem.n, self.problem.m
        hist = self._history(iters).reshape(iters + 1, n, 2 * m)
        return hist[:, :, :m], hist[:, :, m:]


def _allocation_roles(spec, m):
    """Payload ``[lam, a + lam]`` and Psi_i from ``s``.

    With this payload the neighbor sum is ``s = [(L lam)_i,
    (L(a + lam))_i]`` and ``Psi_i = [grad h_i(y) + W_i' lam, -s_1,
    -((W_i y - d_i) - s_2)]``.
    """
    q = spec.cset.dim
    grad, weight, weight_t, demand = (spec.gradient, spec.weight,
                                      spec.weight.T, spec.demand)
    sa, sl = slice(q, q + m), slice(q + m, None)

    def payload(w):
        lam = w[sl]
        return np.concatenate((lam, w[sa] + lam))

    def local(w, s, out):
        y = w[:q]
        np.add(grad(y), weight_t @ w[sl], out=out[:q])
        s_u = s[m:]
        np.subtract(weight @ y - demand, s_u, out=s_u)
        np.negative(s, out=out[q:])

    return payload, local


class AllocationNetworkSimulator(_Simulator):
    """Run the allocation dynamics through per-agent message passing.

    Mirrors `ConsensusNetworkSimulator`; payloads are computed from the
    auxiliary variable and the multiplier alone, never from decisions
    or gradients.
    """

    def __init__(self, problem, method="OGDA", alpha=None, y0=None,
                 a0=None, lam0=None):
        from .allocation import initial_state
        m = problem.m
        y, a, lam = problem.split(initial_state(problem, y0, a0, lam0))
        super().__init__(problem, method, alpha, problem.kappa_s,
                         [np.concatenate((problem.y_block(y, i), a[i], lam[i]))
                          for i in range(problem.n)],
                         [_allocation_roles(spec, m)
                          for spec in problem.agents])
        # columns of y, a and lam in the concatenated agent vectors
        cols = np.split(np.arange(problem.dim_y + 2 * m * problem.n),
                        np.cumsum([q + 2 * m for q in problem.q])[:-1])
        self._cols = (np.concatenate([c[:-2 * m] for c in cols]),
                      np.stack([c[-2 * m:-m] for c in cols]),
                      np.stack([c[-m:] for c in cols]))

    def run(self, iters):
        """Advance `iters` steps; returns stacked histories.

        Returns ``(y_hist, a_hist, lam_hist)`` with ``iters + 1`` rows,
        row 0 holding the initial point.
        """
        hist = self._history(iters)
        return tuple(hist[:, cols] for cols in self._cols)
