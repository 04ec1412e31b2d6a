"""Constrained convex-concave saddle-point problems and their operator F.

A problem packages the objective and gradient oracles of
``min over x in X, max over y in Y of f(x, y)`` together with the
blockwise Lipschitz constants the step-size bounds are built from.
The module also carries the sampled verifiers (monotonicity, Lipschitz,
natural-map residual) that every shipped instance must pass before the
solvers are trusted on it.
"""

import functools
import math

import numpy as np

from . import sets

__all__ = ["SaddleProblem", "IterateZ", "ValidationError", "operator_F",
           "objective", "vi_residual", "check_monotone", "estimate_kappa",
           "spectral_norm"]


class ValidationError(ValueError):
    """A declared contract (step size, Lipschitz constant, config) is violated."""


class IterateZ(object):
    """Stacked primal-dual point ``z = col(x, y)``.

    Thin container used at API boundaries; the solvers themselves work
    on flat arrays for speed.
    """

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)

    @property
    def vector(self):
        return np.concatenate([self.x, self.y])

    @classmethod
    def from_vector(cls, problem, z):
        x, y = problem.split(z)
        return cls(x, y)

    def __repr__(self):
        return "IterateZ(x={}, y={})".format(self.x, self.y)


class SaddleProblem(object):
    """Saddle-point problem description.

    Parameters
    ----------
    dim_x, dim_y : int
        Block dimensions.
    set_x, set_y : ConvexSet
        Feasible sets X and Y.
    value : callable
        ``value(x, y) -> float``, the objective f.
    grad_x, grad_y : callable
        Gradient oracles ``(x, y) -> vector``; must be pure functions.
    lipschitz : dict
        Blockwise constants with keys ``l_xx, l_xy, l_yx, l_yy``. The
        operator bound defaults to ``kappa_m = 2 max of the blocks``.
    kappa : float, optional
        Explicit Lipschitz constant of F overriding the blockwise
        bound. The stacked network problems declare their own constants
        (kappa_c, kappa_s), which are tighter than 2 max of the blocks.
    operator : callable, optional
        Fused operator hook ``operator(z) -> F(z)``, for problems that
        evaluate both blocks of F in one pass. It takes one point
        ``(dim,)`` or a stack of points ``(..., dim)`` and returns F of
        the same shape; every row must equal ``col(grad_x, -grad_y)``
        at that row to the last bit.
    objective : callable, optional
        Fused objective hook ``objective(z) -> f``: a float at one point
        ``(dim,)``, an array of shape ``(...)`` on a stack ``(..., dim)``.
        Every value must equal `value` at that row to the last bit.
    name : str, optional
        Label used in reports.

    Notes
    -----
    `operator_F` and `objective` evaluate a whole stack of points in
    one call of a fused hook; without the hook they evaluate `grad_x`,
    `grad_y` resp. `value` one row at a time. The sampled checks, the
    finite differences and the descent diagnostic pass stacks.
    """

    def __init__(self, dim_x, dim_y, set_x, set_y, value, grad_x, grad_y,
                 lipschitz, kappa=None, operator=None, objective=None,
                 name=None):
        if set_x.dim != dim_x or set_y.dim != dim_y:
            raise ValidationError("set dimensions disagree with block dimensions")
        self.dim_x = int(dim_x)
        self.dim_y = int(dim_y)
        self.dim = self.dim_x + self.dim_y
        self.set_x = set_x
        self.set_y = set_y
        self.value = value
        self.grad_x = grad_x
        self.grad_y = grad_y
        missing = {"l_xx", "l_xy", "l_yx", "l_yy"} - set(lipschitz)
        if missing:
            raise ValidationError("lipschitz record misses {}".format(sorted(missing)))
        if any(lipschitz[k] < 0 for k in ("l_xx", "l_xy", "l_yx", "l_yy")):
            raise ValidationError("lipschitz constants must be nonnegative")
        self.lipschitz = dict(lipschitz)
        self._kappa = None if kappa is None else float(kappa)
        self.operator = operator
        self.objective = objective
        self.name = name or "saddle-problem"
        self.domain = sets.Product(set_x, set_y)
        self.meta = {}

    @property
    def kappa_m(self):
        """Declared Lipschitz constant of F."""
        if self._kappa is not None:
            return self._kappa
        return 2.0 * max(self.lipschitz[k] for k in ("l_xx", "l_xy", "l_yx", "l_yy"))

    def split(self, z):
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,):
            raise ValidationError("iterate has shape {}, expected ({},)"
                                  .format(z.shape, self.dim))
        return z[:self.dim_x], z[self.dim_x:]

    def join(self, x, y):
        return np.concatenate([np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float)])

    def __repr__(self):
        return "SaddleProblem({}, dim_x={}, dim_y={})".format(
            self.name, self.dim_x, self.dim_y)


def _batched(values, shape, oracle):
    """`values` as a float array of `shape`, else name the oracle at fault.

    Vectorized oracles map leading batch axes through; one that reduces
    over a fixed axis returns the wrong shape on a stack of points.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValidationError(
            "{} returned shape {} where {} was expected; vectorized oracles"
            " must keep every leading batch axis".format(
                oracle, values.shape, shape))
    return values


def _rowwise(point_fn, z):
    """`point_fn` of each row of a stack ``(..., dim)``, stacked alike."""
    z = np.asarray(z, dtype=float)
    out = np.array([point_fn(p) for p in z.reshape(-1, z.shape[-1])],
                   dtype=float)
    return out.reshape(z.shape[:-1] + out.shape[1:])


def operator_F(problem, z):
    """Evaluate ``F(z) = col(grad_x f, -grad_y f)``.

    `z` is one stacked point ``(dim,)`` or an array of them
    ``(..., dim)``; F has the same shape. The problem's fused `operator`
    takes the whole stack in one call; without it each row is one
    `operator_F` call on the blockwise gradients.
    """
    if isinstance(z, IterateZ):
        z = z.vector
    if problem.operator is not None:
        return problem.operator(z)
    if getattr(z, "ndim", 1) > 1:
        return _rowwise(functools.partial(operator_F, problem), z)
    x, y = problem.split(z)
    return np.concatenate([problem.grad_x(x, y), -problem.grad_y(x, y)])


def objective(problem, z):
    """Evaluate f at one point (a float) or at each row of a stack.

    Mirrors `operator_F`: the fused `objective` hook takes the whole
    stack ``(..., dim)`` in one call and returns an array of shape
    ``(...)``; without it each row is one call of `value`.
    """
    if isinstance(z, IterateZ):
        z = z.vector
    if problem.objective is not None:
        return problem.objective(z)
    if getattr(z, "ndim", 1) > 1:
        return _rowwise(functools.partial(objective, problem), z)
    x, y = problem.split(z)
    return float(problem.value(x, y))


def vi_residual(problem, z, f_z=None):
    """Natural-map residual ``|| z - P(z - F(z)) ||`` with unit step.

    Zero exactly at solutions of the saddle-point variational
    inequality. `f_z` may pass a precomputed ``F(z)`` so callers that
    already hold the operator value spend no extra oracle calls.
    """
    if isinstance(z, IterateZ):
        z = z.vector
    z = np.asarray(z, dtype=float)
    if f_z is None:
        f_z = operator_F(problem, z)
    return float(np.linalg.norm(z - problem.domain.project(z - f_z)))


def _norm(v):
    # np.linalg.norm of a 1-D float vector is the square root of v.dot(v);
    # calling those two directly gives the same bits without its Python
    # dispatch, which costs more than the dot on the solvers' vectors
    return math.sqrt(v.dot(v))


def _sample_feasible(problem, count, rng):
    return sets.sample_points(problem.domain, count, rng)


def check_monotone(problem, n_pairs=1000, seed=0, tol=1e-10):
    """Sampled monotonicity check of F over the feasible set.

    Draws `n_pairs` feasible pairs ``(z1, z2)`` and evaluates
    ``(F(z1) - F(z2)) . (z1 - z2)``, which is nonnegative exactly when
    f is convex-concave.

    Returns
    -------
    dict
        ``min_inner`` (worst sampled product), ``passed`` (all products
        at least ``-tol``) and ``worst_pair``.
    """
    rng = np.random.default_rng(seed)
    z1 = _sample_feasible(problem, n_pairs, rng)
    z2 = _sample_feasible(problem, n_pairs, rng)
    f1 = operator_F(problem, z1)
    f2 = operator_F(problem, z2)
    min_inner = np.inf
    worst = None
    for a, b, fa, fb in zip(z1, z2, f1, f2):
        inner = float((fa - fb).dot(a - b))
        if inner < min_inner:
            min_inner = inner
            worst = (a.copy(), b.copy())
    return {"min_inner": min_inner, "passed": min_inner >= -tol, "worst_pair": worst}


def estimate_kappa(problem, n_pairs=1000, seed=0, rel_tol=1e-8):
    """Sampled Lipschitz ratio of F, validated against the declared bound.

    Returns the maximum of ``||F(z1) - F(z2)|| / ||z1 - z2||`` over
    sampled feasible pairs and raises `ValidationError` naming the
    witnessing pair when the ratio exceeds ``kappa_m`` beyond relative
    round-off slack.
    """
    rng = np.random.default_rng(seed)
    z1 = _sample_feasible(problem, n_pairs, rng)
    z2 = _sample_feasible(problem, n_pairs, rng)
    f1 = operator_F(problem, z1)
    f2 = operator_F(problem, z2)
    kappa = problem.kappa_m
    max_ratio = 0.0
    for a, b, fa, fb in zip(z1, z2, f1, f2):
        gap = _norm(a - b)
        if gap == 0.0:
            continue
        ratio = _norm(fa - fb) / gap
        if ratio > kappa * (1.0 + rel_tol):
            raise ValidationError(
                "sampled Lipschitz ratio {:.12g} exceeds declared kappa_m {:.12g} "
                "at pair z1={}, z2={}".format(ratio, kappa, a, b))
        max_ratio = max(max_ratio, ratio)
    return {"max_ratio": max_ratio, "kappa_m": kappa, "passed": True}


def spectral_norm(matrix, iters=50, tol=1e-10):
    """Largest singular value by power iteration on ``M^T M``.

    Deterministic all-ones start perturbed at index 0; runs at most
    `iters` rounds, stopping early once the estimate settles within
    `tol` relative change.
    """
    M = np.asarray(matrix, dtype=float)
    v = np.ones(M.shape[1])
    v[0] += 1.0
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(iters):
        w = M.T @ (M @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        new_sigma = float(np.sqrt(v @ (M.T @ (M @ v))))
        if abs(new_sigma - sigma) <= tol * max(1.0, new_sigma):
            return new_sigma
        sigma = new_sigma
    return sigma
