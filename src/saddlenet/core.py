"""Constrained convex-concave saddle-point problems and their operator F.

A problem packages the objective and gradient oracles of
``min over x in X, max over y in Y of f(x, y)`` together with the
declared Lipschitz constant of F, which the step-size bounds are built
from.
The module also carries the sampled verifiers (monotonicity, Lipschitz,
natural-map residual) that every shipped instance must pass before the
solvers are trusted on it.
"""

import functools
import math

import numpy as np

from . import sets

__all__ = ["SaddleProblem", "ValidationError", "operator_F",
           "objective", "vi_residual", "check_monotone", "estimate_kappa",
           "spectral_norm"]


# slack of the sampled checks: `check_monotone` accepts inner products
# down to -MONOTONE_TOL, `estimate_kappa` ratios up to kappa_m times
# (1 + KAPPA_REL_TOL)
MONOTONE_TOL = 1e-10
KAPPA_REL_TOL = 1e-8


class ValidationError(ValueError):
    """A declared contract (step size, Lipschitz constant, config) is violated."""


def _finite_constant(name, value):
    """`value` as a float; a `ValidationError` unless finite and nonnegative.

    A NaN constant would make every step bound NaN and an infinite one
    a zero step, so both are refused where they are declared.
    """
    value = float(value)
    if not 0.0 <= value < math.inf:
        raise ValidationError("{} must be finite and nonnegative, got {!r}"
                              .format(name, value))
    return value


class SaddleProblem(object):
    """Saddle-point problem description.

    Parameters
    ----------
    dim_x, dim_y : int
        Block dimensions.
    set_x, set_y : ConvexSet
        Feasible sets X and Y.
    value : callable
        ``value(x, y) -> float``, the objective f; must be a pure
        function, so that its value may be reused for bit-equal inputs.
    grad_x, grad_y : callable
        Gradient oracles ``(x, y) -> vector``; must be pure functions.
    kappa_m : float
        Declared Lipschitz constant of F, finite and nonnegative; the
        step-size bounds and the sampled Lipschitz check read it. With
        blockwise gradient constants ``l_xx, l_xy, l_yx, l_yy`` known,
        ``2 max`` of them is one such bound (example1 and the toy
        problems declare it); the stacked network problems declare
        their own ``kappa_c`` and ``kappa_s``.
    operator : callable, optional
        Fused operator hook, a workspace builder for problems that
        evaluate both blocks of F in one pass: ``operator(lead)``
        returns ``evaluate(z)`` for points ``z`` of shape ``lead +
        (dim,)``, one point for ``lead = ()``. ``evaluate`` writes only
        into buffers it owns and returns the one that holds F, which its
        next call overwrites; every row must equal ``col(grad_x,
        -grad_y)`` at that row to the last bit. Whoever evaluates F owns
        the workspace: `solvers.run` builds one per run, `operator_F`
        one per call, so one problem serves several threads at once.
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
    `grad_y` resp. `value` once per distinct row. The sampled checks, the
    finite differences and the descent diagnostic pass stacks.

    A stack hook keeps each row's bits when every row runs the kernel
    the one-point oracle runs. Per-item batched matmul does: with
    ``b`` a matrix, ``np.matmul(b, y[..., :, None])`` applies to each
    row the matrix-vector product that ``b @ y`` applies to one point.
    A stacked gemm (``Y @ b.T``) or ``einsum`` may block and sum in
    another order, and then its rows differ in the last bits.
    """

    def __init__(self, dim_x, dim_y, set_x, set_y, value, grad_x, grad_y,
                 kappa_m, operator=None, objective=None, name=None):
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
        self.kappa_m = _finite_constant("kappa_m", kappa_m)
        self.operator = operator
        self.objective = objective
        self.name = name or "saddle-problem"
        self.domain = sets.Product(set_x, set_y)
        self.meta = {}

    def split(self, z):
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,):
            raise ValidationError("iterate has shape {}, expected ({},)"
                                  .format(z.shape, self.dim))
        return z[:self.dim_x], z[self.dim_x:]

    def __repr__(self):
        return "SaddleProblem({}, dim_x={}, dim_y={})".format(
            self.name, self.dim_x, self.dim_y)


def _batched(values, shape, oracle):
    """`values` as a float array of `shape`, else name the oracle at fault.

    Vectorized oracles map leading batch axes through; one that reduces
    over a fixed axis returns the wrong shape on a stack of points.
    """
    # a float array of the right shape, as vectorized oracles return,
    # passes without `np.asarray`, which costs more than the check
    if (values.__class__ is np.ndarray and values.dtype is sets._FLOAT
            and values.shape == shape):
        return values
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValidationError(
            "{} returned shape {} where {} was expected; vectorized oracles"
            " must keep every leading batch axis".format(
                oracle, values.shape, shape))
    return values


def _points(problem, z):
    """`z` as a float array of points ``(..., dim)``, else a `ValidationError`."""
    z = np.asarray(z, dtype=float)
    if z.shape[-1:] != (problem.dim,):
        raise ValidationError("points have shape {}, expected (..., {})"
                              .format(z.shape, problem.dim))
    return z


def _blockwise_F(problem, z):
    """F at one point from the blockwise gradients."""
    x, y = problem.split(z)
    return np.concatenate([problem.grad_x(x, y), -problem.grad_y(x, y)])


def _bound_operator(problem, lead):
    """``evaluate(z)`` of F for points of leading axes `lead`.

    With a fused hook this is the workspace the hook builds; without
    one it calls the blockwise gradients once per distinct row.
    """
    if problem.operator is not None:
        return problem.operator(lead)
    point = functools.partial(_blockwise_F, problem)
    if not lead:
        return point
    return lambda z: sets._each_point(point, z, np.empty(z.shape),
                                      "grad_x and grad_y")


def operator_F(problem, z):
    """Evaluate ``F(z) = col(grad_x f, -grad_y f)``.

    `z` is one stacked point ``(dim,)`` or an array of them
    ``(..., dim)``; F is a new array of the same shape. The problem's
    fused `operator` builds a workspace for this call and takes the
    whole stack in one evaluation; without it each distinct row is one
    call of the blockwise gradients. A last axis other than ``dim``
    raises `ValidationError`.
    """
    z = _points(problem, z)
    return _bound_operator(problem, z.shape[:-1])(z)


def objective(problem, z):
    """Evaluate f at one point (a float) or at each row of a stack.

    Mirrors `operator_F`: the fused `objective` hook takes the whole
    stack ``(..., dim)`` in one call and returns an array of shape
    ``(...)``; without it each distinct row is one call of `value`. A
    last axis other than ``dim`` raises `ValidationError`.
    """
    z = _points(problem, z)
    if problem.objective is not None:
        return problem.objective(z)
    if z.ndim > 1:
        return sets._each_point(functools.partial(_point_value, problem), z,
                                np.empty(z.shape[:-1]), "value")
    return _point_value(problem, z)


def _point_value(problem, z):
    x, y = problem.split(z)
    return float(problem.value(x, y))


def vi_residual(problem, z):
    """Natural-map residual ``|| z - P(z - F(z)) ||`` with unit step.

    Zero exactly at solutions of the saddle-point variational
    inequality.
    """
    z = np.asarray(z, dtype=float)
    return float(np.linalg.norm(
        z - problem.domain.project(z - operator_F(problem, z))))


def _matvec(matrix, v):
    # per-item batched matmul: every point of a stack ``(..., k)`` gets
    # the bits that `matrix @ v` gives that point alone (see
    # `SaddleProblem`)
    return np.matmul(matrix, v[..., None])[..., 0]


def _sampled_pairs(problem, n_pairs, seed):
    """Feasible draws ``z1``, ``z2`` of `n_pairs` rows each, and F at both."""
    rng = np.random.default_rng(seed)
    z1 = sets.sample_points(problem.domain, n_pairs, rng)
    z2 = sets.sample_points(problem.domain, n_pairs, rng)
    return z1, z2, operator_F(problem, z1), operator_F(problem, z2)


def _row_dots(u, v):
    # one dot per row, the one `u[i].dot(v[i])` takes, in one batched matmul
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def check_monotone(problem, n_pairs=1000, seed=0):
    """Sampled monotonicity check of F over the feasible set.

    Draws `n_pairs` feasible pairs ``(z1, z2)`` and evaluates
    ``(F(z1) - F(z2)) . (z1 - z2)``, which is nonnegative exactly when
    f is convex-concave.

    Returns
    -------
    dict
        ``min_inner`` (worst sampled product), ``passed`` (all products
        at least ``-MONOTONE_TOL``) and ``worst_pair``.
    """
    return _monotone(*_sampled_pairs(problem, n_pairs, seed))


def _monotone(z1, z2, f1, f2):
    """`check_monotone`'s report on drawn pairs and F at both."""
    inner = _row_dots(f1 - f2, z1 - z2)
    # the first pair of least product; NaN products are skipped, and
    # without a finite product there is no witness
    below = np.flatnonzero(inner < np.inf)
    if below.size == 0:
        return {"min_inner": np.inf, "passed": True, "worst_pair": None}
    i = below[np.argmin(inner[below])]
    min_inner = float(inner[i])
    return {"min_inner": min_inner, "passed": min_inner >= -MONOTONE_TOL,
            "worst_pair": (z1[i].copy(), z2[i].copy())}


def estimate_kappa(problem, n_pairs=1000, seed=0):
    """Sampled Lipschitz ratio of F, validated against the declared bound.

    Returns the maximum of ``||F(z1) - F(z2)|| / ||z1 - z2||`` over
    sampled feasible pairs and raises `ValidationError` naming the
    witnessing pair when the ratio exceeds ``kappa_m`` by more than the
    relative round-off slack `KAPPA_REL_TOL`.
    """
    return _lipschitz(problem, *_sampled_pairs(problem, n_pairs, seed))


def _lipschitz(problem, z1, z2, f1, f2):
    """`estimate_kappa`'s report on drawn pairs and F at both."""
    dz, df = z1 - z2, f1 - f2
    gap = np.sqrt(_row_dots(dz, dz))
    moved = gap != 0.0
    ratio = np.sqrt(_row_dots(df[moved], df[moved])) / gap[moved]
    kappa = problem.kappa_m
    over = np.flatnonzero(ratio > kappa * (1.0 + KAPPA_REL_TOL))
    if over.size:
        i = np.flatnonzero(moved)[over[0]]
        raise ValidationError(
            "sampled Lipschitz ratio {:.12g} exceeds declared kappa_m {:.12g} "
            "at pair z1={}, z2={}".format(float(ratio[over[0]]), kappa,
                                          z1[i], z2[i]))
    # NaN ratios are skipped, as by a running max from 0
    max_ratio = float(np.max(ratio[~np.isnan(ratio)], initial=0.0))
    return {"max_ratio": max_ratio, "kappa_m": kappa, "passed": True}


# LAPACK's SVD is backward stable: its singular values are exact for M + E
# with ||E|| <= p eps ||M||, so by Weyl the top one is off by at most
# p eps sigma_max. Householder bidiagonalization makes p grow about linearly
# in max(m, n); c = 4 per dimension leaves a factor of four over that and
# covers the half-ulp rounding of the product that applies the margin.
_SVD_MARGIN_PER_DIM = 4.0 * np.finfo(float).eps


def spectral_norm(matrix):
    """Largest singular value of `matrix`, certified as an upper bound.

    LAPACK's value rounded up by the backward-error margin
    ``1 + 4 max(m, n) eps``: never below the exact value, and above it
    by a few parts in 1e14 at the presets' sizes.
    """
    M = np.asarray(matrix, dtype=float)
    sigma = float(np.linalg.svd(M, compute_uv=False)[0])
    return sigma * (1.0 + _SVD_MARGIN_PER_DIM * max(M.shape))
