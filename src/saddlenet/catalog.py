"""Problem instance constructors with seeded, reproducible randomness.

Random draws use numpy's PCG64 generator (`numpy.random.default_rng`),
a named and versioned algorithm, so a seed fully determines an instance
across machines. Each constructor records its draws and references in
the problem's ``meta`` dict for serialization next to run outputs.
"""

import numpy as np

from . import sets
from .allocation import AllocationAgentSpec, AllocationProblem
from .consensus import ConsensusAgentSpec, ConsensusProblem
from .core import SaddleProblem, spectral_norm
from .graphs import ring
from .oracle import CertificationError, solve_allocation_kkt
from .solvers import step_bound

__all__ = ["example1_bilinear", "example2_allocation", "paper_step_size",
           "bilinear_scalar", "quadratic_saddle", "consensus_quadratics",
           "consensus_quadratics_badgrad", "allocation_quadratics"]

# the experiments' nominal step size, before `paper_step_size` halves it
PAPER_STEP = 0.01


def example1_bilinear(seed=0):
    """Bilinear box experiment: f(x, y) = x'By over [-5,5]^10 x [-2,2]^10.

    Entries of B drawn uniformly from [0, 5] under the seed. Since B is
    entrywise positive the only saddle point is the origin with value
    zero (checked: the operator vanishes there and the residual is 0).
    The cross-block constant is `core.spectral_norm` of B, an upper
    bound on ||B|| by construction, so kappa_m = 2 ||B||.

    Seed 0 has sigma_max(B) = 28.55 and sigma_min(B) = 0.52. The value
    f = x'By changes sign along OGDA, EG and GDA trajectories alike, so
    |f(z_k)| is not a convergence measure; the distance to the origin
    is. At the paper step, progress along the weakest direction is set
    by alpha * sigma_min(B), which makes convergence slow.

    The problem has fused `operator` and `objective` hooks that take one
    point or a stack of points in one call; their values equal those
    of the blockwise oracles bit for bit.
    """
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.0, 5.0, size=(10, 10))
    b_norm = spectral_norm(b)
    operator, objective = _bilinear_hooks(b)
    problem = SaddleProblem(
        10, 10,
        sets.Box(-5.0, 5.0, dim=10), sets.Box(-2.0, 2.0, dim=10),
        lambda x, y: float(x @ b @ y),
        lambda x, y: b @ y,
        lambda x, y: b.T @ x,
        lipschitz={"l_xx": 0.0, "l_xy": b_norm, "l_yx": b_norm, "l_yy": 0.0},
        operator=operator, objective=objective,
        name="bilinear-box-{}".format(seed))
    problem.meta.update(seed=seed, matrix=b, matrix_norm=b_norm,
                        z_star=np.zeros(20), f_star=0.0,
                        z0=10.0 * np.ones(20))
    return problem


def _bilinear_hooks(b):
    """Fused operator and objective of ``f(x, y) = x'By`` on points and stacks.

    A stack ``(..., dim)`` goes through per-item batched matmuls, so each
    row runs the kernel the one-point oracles run (gemv, then dot) and
    keeps their bits; a stacked gemm (``X @ b``) or einsum would not.
    """
    n, bt = b.shape[0], b.T

    def operator(z):
        # one point, the run loop's case: the gradients' products, unbatched
        if z.ndim == 1:
            return np.concatenate([b @ z[n:], -(bt @ z[:n])])
        out = np.empty(z.shape)
        out[..., :n] = np.matmul(b, z[..., n:, None])[..., 0]
        np.negative(np.matmul(bt, z[..., :n, None])[..., 0],
                    out=out[..., n:])
        return out

    def objective(z):
        values = np.matmul(np.matmul(z[..., None, :n], b),
                           z[..., n:, None])[..., 0, 0]
        return float(values) if z.ndim == 1 else values

    return operator, objective


def paper_step_size(problem, method):
    """Validate the experiment's nominal step size against the theory.

    Halves `PAPER_STEP` until it satisfies the method's bound for the
    drawn instance (the nominal value may violate it, since the instance
    norm is random). Returns ``(alpha, halvings)``.
    """
    bound = step_bound(method, problem.kappa_m)
    alpha = PAPER_STEP
    halvings = 0
    while not alpha < bound:
        alpha *= 0.5
        halvings += 1
    return alpha, halvings


def example2_allocation(seed=0):
    """Resource allocation experiment: 20 agents on a ring.

    Objectives ``h_i(y) = a_i y + b_i log(1 + exp(c_i y))`` with
    a ~ U[-5,5], b ~ U[0,2], c ~ U[0,1]; coupling weights W ~ U[-1,1]
    and demands d ~ U[-2,2]; local sets [-1, 1]. The gradient constant
    is ``b c^2 / 4``, the maximum of the second derivative. A draw can
    put the total demand outside what the boxes can supply; in that
    case only ``d`` is redrawn (continuing the same stream) until the
    reference oracle certifies feasibility, at most 100 times (the
    oracle's error is raised after that). The certified reference is
    stored in ``meta['kkt']``.
    """
    rng = np.random.default_rng(seed)
    n = 20
    a = rng.uniform(-5.0, 5.0, n)
    b = rng.uniform(0.0, 2.0, n)
    c = rng.uniform(0.0, 1.0, n)
    w = rng.uniform(-1.0, 1.0, n)
    d = rng.uniform(-2.0, 2.0, n)
    # factors of the vectorized gradient, formed once: the same values
    # `b * c` and `-c` that the per-agent gradients compute on each call
    bc = b * c
    neg_c = -c

    def build(demands):
        agents = []
        for i in range(n):
            ai, bi, ci = a[i], b[i], c[i]
            agents.append(AllocationAgentSpec(
                lambda y, ai=ai, bi=bi, ci=ci:
                    float(ai * y[0] + bi * np.log1p(np.exp(ci * y[0]))),
                lambda y, ai=ai, bi=bi, ci=ci:
                    np.array([ai + bi * ci / (1.0 + np.exp(-ci * y[0]))]),
                sets.Box(-1.0, 1.0, dim=1),
                [[w[i]]], [demands[i]], bi * ci * ci / 4.0))
        return AllocationProblem(
            ring(n), agents,
            vector_objective=lambda y: a * y + b * np.log1p(np.exp(c * y)),
            vector_gradient=lambda y: a + bc / (1.0 + np.exp(neg_c * y)),
            name="allocation-logistic-{}".format(seed))

    redraws = 0
    while True:
        problem = build(d)
        try:
            reference = solve_allocation_kkt(problem)
            break
        except CertificationError:
            redraws += 1
            if redraws > 100:
                raise
            d = rng.uniform(-2.0, 2.0, n)
    problem.meta.update(seed=seed, a=a, b=b, c=c, w=w, d=d,
                        redraws=redraws, kkt=reference)
    return problem


def bilinear_scalar():
    """Unconstrained scalar bilinear toy f(x, y) = xy; saddle at the origin."""
    problem = SaddleProblem(
        1, 1, sets.WholeSpace(1), sets.WholeSpace(1),
        lambda x, y: float(x[0] * y[0]),
        lambda x, y: np.array([y[0]]),
        lambda x, y: np.array([x[0]]),
        lipschitz={"l_xx": 0.0, "l_xy": 1.0, "l_yx": 1.0, "l_yy": 0.0},
        name="bilinear-scalar")
    problem.meta.update(z_star=np.zeros(2), f_star=0.0,
                        z0=np.array([1.0, 1.0]))
    return problem


def quadratic_saddle():
    """Strongly convex-concave toy f(x, y) = x^2/2 - y^2/2 on boxes.

    The operator is the identity, so kappa_m = 2 and EG contracts
    strictly; saddle at the origin with value zero.
    """
    problem = SaddleProblem(
        1, 1, sets.Box(-10.0, 10.0, dim=1), sets.Box(-10.0, 10.0, dim=1),
        lambda x, y: float(0.5 * x[0] ** 2 - 0.5 * y[0] ** 2),
        lambda x, y: np.array([x[0]]),
        lambda x, y: np.array([-y[0]]),
        lipschitz={"l_xx": 1.0, "l_xy": 0.0, "l_yx": 0.0, "l_yy": 1.0},
        name="quadratic-saddle")
    problem.meta.update(z_star=np.zeros(2), f_star=0.0,
                        z0=np.array([5.0, -4.0]))
    return problem


def _quadratic_consensus_agents(targets, corrupt_first=False):
    agents = []
    for i, t in enumerate(targets):
        scale = 3.0 if (corrupt_first and i == 0) else 2.0
        agents.append(ConsensusAgentSpec(
            lambda x, t=t: float(np.sum((x - t) ** 2)),
            lambda x, t=t, scale=scale: scale * (x - t),
            sets.Box(-10.0, 10.0, dim=1), 2.0))
    return agents


def consensus_quadratics(n=5):
    """Ring of quadratic trackers f_i(s) = (s - i)^2, i = 1..n.

    The agreement optimum is the mean of the targets (3 for n = 5).
    """
    targets = np.arange(1.0, n + 1.0)
    col = targets.reshape(n, 1)
    problem = ConsensusProblem(
        ring(n), 1, _quadratic_consensus_agents(targets),
        vector_objective=lambda x: np.sum((x - col) ** 2, axis=-1),
        vector_gradient=lambda x: 2.0 * (x - col),
        name="consensus-quadratics-{}".format(n))
    problem.meta.update(targets=targets, x_bar_star=float(targets.mean()))
    return problem


def consensus_quadratics_badgrad(n=5):
    """Negative control: one agent's gradient deliberately inconsistent.

    Agent 0 reports 3(x - t) for the objective (x - t)^2, so the
    finite-difference gradient check must flag it. No vectorized
    oracles: both computation routes must share the defect.
    """
    targets = np.arange(1.0, n + 1.0)
    problem = ConsensusProblem(
        ring(n), 1, _quadratic_consensus_agents(targets, corrupt_first=True),
        name="consensus-quadratics-badgrad-{}".format(n))
    problem.meta.update(targets=targets)
    return problem


def allocation_quadratics():
    """Three quadratic suppliers h_i(y) = (y - c_i)^2 / 2 on a ring.

    W_i = 1, d_i = 0, c = (1, 2, 3): at the optimum the decisions are
    c_i - mu with the multiplier mu = mean(c) = 2, so y* = (-1, 0, 1).
    """
    targets = np.array([1.0, 2.0, 3.0])
    agents = []
    for t in targets:
        agents.append(AllocationAgentSpec(
            lambda y, t=t: float(0.5 * np.sum((y - t) ** 2)),
            lambda y, t=t: y - t,
            sets.Box(-10.0, 10.0, dim=1), [[1.0]], [0.0], 1.0))
    problem = AllocationProblem(
        ring(3), agents,
        vector_objective=lambda y: 0.5 * (y - targets) ** 2,
        vector_gradient=lambda y: y - targets,
        name="allocation-quadratics-3")
    problem.meta.update(targets=targets)
    return problem
