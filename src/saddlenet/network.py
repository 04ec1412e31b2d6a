"""Bulk-synchronous message-passing simulation of the distributed runs.

This module re-implements the consensus and allocation dynamics the way
they would run on an actual network: each agent holds only its own
variables, and all cross-agent information flows through
`Network.exchange`, which delivers payloads strictly along graph edges.
No agent ever reads another agent's variables or any stacked array.

An agent keeps its variables in one local vector, its columns of the
stacked iterate as the problem's layout gives them: its decisions, then
its row of each dual block, ``[x_i, v_i]`` for consensus and
``[y_i, a_i, lam_i]`` for allocation. Each round it publishes one
payload of ``2m`` floats, computed from the variables it shares alone:
``[x_i + v_i, x_i]`` from ``(x_i, v_i)``, and ``[lam_i, a_i + lam_i]``
from ``(a_i, lam_i)``.
Decisions ``y_i`` and gradients never leave an agent. With its own
payload ``p_i``, agent i forms one neighbor sum ``s = sum_j (p_i - p_j)``
onto zeros in ascending neighbor order, which is row i of the stacked
`NetworkGraph.lap_apply` over the payload columns. A per-problem local
operator turns ``s`` into the agent's block of Phi (resp. Psi), and the
agent moves its whole vector with the stacked step's expression and one
projection onto its set times the free variables.

A round is written once, in `_Simulator._round`: from the agents'
points and their operator values (one exchange), OGDA takes its
projected step with the previous operator values, and EG its projected
probe, the operator values at the probes (a second exchange) and its
projected step. A local vector may be one point or a stack of points
``(K, local_dim)``: payloads are then ``(K, 2m)``, sums, update
expressions and projections act on every row alike, and the per-point
gradient oracles are called once per distinct row. Two drivers take
the operator values and hand them to that round:

- `run` (the serial run): every agent holds one point and the network
  takes ``iters`` rounds, one exchange per OGDA step and two per EG
  step. Every call starts from the simulator's start.
- `replay` (the replay): every agent holds its slices of all the
  iterates a stacked `solvers.run` recorded, and takes one step from
  each of them in one round (two exchanges for EG), the shifted
  operator values serving as OGDA's previous ones. The replayed trace
  may be a `RunTrace` or a kind's trace of one, which is the same
  record.

Since an agent's step depends only on its own slice and its neighbors'
payloads, the serial run reproduces a stacked trace bitwise iff it
starts from the trace's first row and every replayed step from row k
gives row k + 1 (and, for EG, the recorded mid-point); induction over k
proves it. The sums and update expressions are the stacked ones,
elementwise, so both hold to the last bit. `saddlenet verify` replays;
the tests compare the serial run with the stacked one as independent
evidence. Both simulators share one constructor, which reads the
declared constant and its name and the agents' columns off the problem,
and one `run`; each passes only its start and its agents' roles.
"""

import numpy as np

from . import sets
from .core import _matvec
from .solvers import _budget, _distributed_step

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


class _Simulator(object):
    """Per-agent rounds, their serial run and their replay.

    Each agent's local vector is its columns of the stacked layout,
    which the problem gives. A subclass passes the stacked start
    ``z0`` and `roles`, which gives an agent's ``(payload, local)``
    pair from its spec and ``m``:
    ``payload(w)`` is the array the agent publishes at ``w``, and
    ``local(w, s, out)`` writes its operator value at ``w`` into
    ``out`` given the neighbor sum ``s``, which it may overwrite. Each
    agent projects onto its own set times its free variables.
    """

    def __init__(self, problem, method, alpha, z0, roles):
        self.problem = problem
        self.method, self.alpha = _distributed_step(problem, method, alpha)
        self.network = Network(problem.graph)
        self._z0 = z0
        self._cols = cols = problem._agent_columns()
        self._payloads, self._locals = zip(*(roles(spec, problem.m)
                                             for spec in problem.agents))
        self._csets = [
            sets.Product([spec.cset, sets.WholeSpace(c.size - spec.cset.dim)])
            for c, spec in zip(cols, problem.agents)]

    def _operators(self, points):
        """Each agent's operator value at its point(s), from one exchange."""
        payloads = [payload(w) for payload, w in zip(self._payloads, points)]
        inboxes = self.network.exchange(payloads)
        values = []
        for local, w, own, inbox in zip(self._locals, points, payloads,
                                        inboxes):
            s = np.zeros(own.shape)
            for p in inbox.values():
                s += own - p
            g = np.empty(w.shape)
            local(w, s, g)
            values.append(g)
        return values

    def _descend(self, points, g, prev=None):
        """Each agent's projected step from its point(s) along `g`.

        With `prev`, the previous operator values, the step is OGDA's.
        """
        a = self.alpha
        if prev is None:
            return [cset.project(w - a * gi)
                    for cset, w, gi in zip(self._csets, points, g)]
        return [cset.project(w - 2.0 * a * gi + a * gp)
                for cset, w, gi, gp in zip(self._csets, points, g, prev)]

    def _round(self, points, g, prev):
        """One round from `points` given their operator values `g`.

        OGDA steps with the previous operator values `prev`; EG, which
        ignores `prev`, probes mid-points and steps from `points` with
        the operator values there, from a second exchange. Returns
        ``(mid-points or None, next points)``.
        """
        if self.method == "OGDA":
            return None, self._descend(points, g, prev)
        half = self._descend(points, g)
        return half, self._descend(points, self._operators(half))

    def _history(self, iters):
        """Stacked iterates of `iters` rounds from the start, row 0 the start."""
        iters = _budget("iters", iters, 0)
        w = [self._z0[c] for c in self._cols]
        hist = np.empty((iters + 1, self._z0.size))
        np.concatenate(w, out=hist[0])
        prev = None
        for k in range(1, iters + 1):
            g = self._operators(w)
            # z_{-1} = z_0 on the first step
            w, prev = self._round(w, g, g if prev is None else prev)[1], g
            np.concatenate(w, out=hist[k])
        # from the agents' concatenated vectors to the stacked layout
        stacked = np.empty_like(hist)
        stacked[:, np.concatenate(self._cols)] = hist
        return stacked

    def run(self, iters):
        """Take `iters` steps from the start; returns stacked histories.

        Returns the blocks of `problem.split` with ``iters + 1`` rows,
        row 0 holding the initial point: ``(x_hist, v_hist)``, each
        ``(iters + 1, N, m)``, for consensus; ``(y_hist, a_hist,
        lam_hist)``, ``y_hist`` of shape ``(iters + 1, Q)``, for
        allocation.
        """
        return self.problem.split(self._history(iters))

    def replay(self, trace):
        """Largest deviation of the per-agent steps from a stacked trace.

        `trace` is a `solvers.RunTrace` of the stacked problem with this
        simulator's method and step that recorded every iteration. Every
        agent takes its slices of the recorded iterates as one stack and
        steps from all of them in one round. Returns the largest
        absolute difference between those steps and the next recorded
        iterates (for EG, also between the probes and the recorded
        mid-points) and between the trace's first row and this
        simulator's start. It is 0.0 exactly when every replayed step
        lands on the recorded values, which by induction from the
        shared start means that `run` reproduces the trace (a difference
        does not see the sign of a zero); it is NaN when a value is NaN.
        """
        if trace.method != self.method or trace.alpha != self.alpha:
            raise ValueError(
                "trace ran {} at step {!r}; this simulator runs {} at {!r}"
                .format(trace.method, trace.alpha, self.method, self.alpha))
        if not np.array_equal(trace.iters, np.arange(trace.iters.size)):
            raise ValueError("replay needs every iteration recorded")
        z, cols = trace.z, self._cols
        w = [z[:-1, c] for c in cols]
        g = self._operators(w)
        # OGDA's previous point's operator; z_{-1} = z_0 on row 0
        prev = ([np.concatenate((gi[:1], gi[:-1])) for gi in g]
                if self.method == "OGDA" else None)
        half, steps = self._round(w, g, prev)
        devs = [np.abs(z[0] - self._z0)]
        if half is not None:
            devs += [np.abs(h - trace.z_half[1:, c]) for h, c in zip(half, cols)]
        devs += [np.abs(step - z[1:, c]) for step, c in zip(steps, cols)]
        return float(np.max([np.max(d, initial=0.0) for d in devs]))


def _consensus_roles(spec, m):
    """Payload ``[x + v, x]`` and ``Phi_i = [grad f_i(x) + s_1, -s_2]``.

    With this payload the neighbor sum is ``s = [(L(x + v))_i, (L x)_i]``.
    """
    grad = spec.gradient

    def payload(w):
        x = w[..., :m]
        return np.concatenate((x + w[..., m:], x), axis=-1)

    def local(w, s, out):
        g = sets._each_point(grad, w[..., :m], out[..., :m],
                             "ConsensusAgentSpec.gradient")
        np.add(g, s[..., :m], out=g)
        np.negative(s[..., m:], out=out[..., m:])

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
        Must be positive and below the method's bound at ``kappa_c``.
        Defaults to the stacked route's default: ``0.9`` times that
        bound, or 1.0 when ``kappa_c`` is zero.
    x0, v0 : array_like, optional
        Initial stacked values; same defaults as the stacked route.
    """

    def __init__(self, problem, method="OGDA", alpha=None, x0=None, v0=None):
        # agent i holds [x_i, v_i]
        super().__init__(problem, method, alpha, problem.start(x0, v0),
                         _consensus_roles)


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
        lam = w[..., sl]
        return np.concatenate((lam, w[..., sa] + lam), axis=-1)

    def local(w, s, out):
        y = w[..., :q]
        g = sets._each_point(grad, y, out[..., :q],
                             "AllocationAgentSpec.gradient")
        np.add(g, _matvec(weight_t, w[..., sl]), out=g)
        s_u = s[..., m:]
        np.subtract(_matvec(weight, y) - demand, s_u, out=s_u)
        np.negative(s, out=out[..., q:])

    return payload, local


class AllocationNetworkSimulator(_Simulator):
    """Run the allocation dynamics through per-agent message passing.

    Mirrors `ConsensusNetworkSimulator`; payloads are computed from the
    auxiliary variable and the multiplier alone, never from decisions
    or gradients.
    """

    def __init__(self, problem, method="OGDA", alpha=None, y0=None,
                 a0=None, lam0=None):
        # agent i holds [y_i, a_i, lam_i]
        super().__init__(problem, method, alpha, problem.start(y0, a0, lam0),
                         _allocation_roles)
