"""Closed convex sets with exact Euclidean projection.

The solvers only ever touch constraint sets through two operations:
projection and membership. The descriptors here cover boxes, Euclidean
balls, and Cartesian products of these, all with closed-form
projections. A box is its ``[lower, upper]`` bounds, which may be
infinite; the whole space is the box with every bound infinite, and
its projection, bounding box and normal-cone residual all follow from
those bounds. Products project blockwise, which is exactly what the
stacked primal-dual iterates need; a product of boxes projects with
one clip over its concatenated bounds.

Projections take one point ``(dim,)`` or a stack of points
``(..., dim)``. Boxes and clip-compiled products project a stack in
one clip, which broadcasts over the leading axes and gives every row
the bits of its one-point projection. Balls project each distinct row
of a stack once, through `_each_point`, the row helper every per-point
oracle goes through. Other products pass each factor its columns of
the whole stack, so every row gets the bits of its one-point
projection there too.
"""

import functools
import math

import numpy as np

# the clip ufunc that `ndarray.clip` dispatches to when both bounds are
# given; calling it directly skips that method's Python wrapper, which
# costs more than the clip itself on the solvers' short vectors
try:
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

__all__ = ["ConvexSet", "WholeSpace", "Box", "Ball", "Product",
           "normal_cone_residual"]

_FLOAT = np.dtype(float)


def _as_vector(p, dim, name="p"):
    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.shape != (dim,):
        raise ValueError("{} has shape {}, expected ({},)".format(name, p.shape, dim))
    return p


def _as_points(p, dim):
    """`p` as one point ``(dim,)`` or a stack of points ``(..., dim)``."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.shape[-1] != dim:
        raise ValueError("p has shape {}, expected ({},) or (..., {})"
                         .format(p.shape, dim, dim))
    return p


def _fitted(value, slot, name):
    """`value` reshaped to `slot`, else a `ValidationError` naming `name`."""
    value = np.asarray(value)
    if value.shape == slot:
        return value
    if value.size != math.prod(slot):
        from .core import ValidationError  # core imports this module
        raise ValidationError("{} returned shape {} where {} was expected"
                              .format(name, value.shape, slot))
    return value.reshape(slot)


def _each_point(fn, p, out, name):
    """Write ``fn(point)`` into `out` for each point of a stack ``(..., dim)``.

    For pure functions that take a single point only: `fn` is called
    once per distinct point, told apart by bit pattern (+0.0 and -0.0
    differ, and so do NaNs of different payloads), and one fancy-indexed
    assignment scatters its values to the rows holding that point. A
    single point ``(dim,)`` is one call on the whole of `p`. Each value
    must have the size of its slot ``out.shape[p.ndim - 1:]``, a scalar
    fills a slot of size 1; otherwise a `ValidationError` names `name`.
    """
    lead = p.shape[:-1]
    slot = out.shape[len(lead):]
    if not lead:
        out[...] = _fitted(fn(p), slot, name)
        return out
    rows = p.reshape(-1, p.shape[-1])
    # an unsigned integer view compares bits, not float values
    keys = np.ascontiguousarray(rows).view("u{}".format(rows.itemsize))
    if keys.shape[1] == 1:
        _, first, inverse = np.unique(keys[:, 0], return_index=True,
                                      return_inverse=True)
    else:
        _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                      return_inverse=True)
    values = np.empty((first.size,) + slot, dtype=out.dtype)
    for u, i in enumerate(first.tolist()):
        values[u] = _fitted(fn(rows[i]), slot, name)
    # the inverse's shape differs across numpy 2.0.x releases
    out[...] = values[inverse.reshape(-1)].reshape(out.shape)
    return out


def _new_vector(value, dim):
    """`value` as a new float array: at least 1-D, or filled to ``(dim,)``."""
    if dim is None:
        return np.array(value, dtype=float, ndmin=1)
    out = np.empty(dim)
    out[...] = value
    return out


class ConvexSet(object):
    """Base class for closed convex set descriptors.

    Subclasses provide `project` (the exact Euclidean projection) and
    `bounding_box`. Instances are immutable after construction and safe
    to share between threads.
    """

    dim = None

    def project(self, p):
        """Return the Euclidean-nearest point of the set to `p`.

        `p` is one point ``(dim,)`` or a stack ``(..., dim)``, whose
        rows are projected each as one point.
        """
        raise NotImplementedError

    def contains(self, p, tol=1e-12):
        """Return True iff `p` violates no set constraint by more than `tol`.

        Measured as the sup-norm distance between `p` and its projection,
        so the default tolerance absorbs floating-point drift from
        clamping without admitting genuinely infeasible points.
        """
        p = _as_vector(p, self.dim)
        return bool(np.max(np.abs(p - self.project(p)), initial=0.0) <= tol)

    def bounding_box(self):
        """Return finite `(lo, hi)` arrays enclosing the set.

        An infinite lower bound becomes ``min(-10, upper - 10)`` when
        the upper bound is finite, else -10, and an infinite upper bound
        ``max(10, lower + 10)`` resp. 10: every open direction is at
        least 10 wide and holds its finite bound. Sampling-based checks
        draw their probes from this box, so the probes of such a
        direction cover only part of the set.
        """
        raise NotImplementedError


class Box(ConvexSet):
    """Axis-aligned box { p : lower <= p <= upper } with componentwise clamping.

    Parameters
    ----------
    lower, upper : array-like or scalar
        Bounds, infinite ones included; scalars are broadcast when `dim`
        is given.
    dim : int, optional
        Required when both bounds are scalars.
    """

    def __init__(self, lower, upper, dim=None):
        # fresh arrays, so that editing the caller's bounds later leaves
        # the box as it was built
        lower, upper = _new_vector(lower, dim), _new_vector(upper, dim)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("bounds must be vectors of equal length")
        # false for NaN bounds too, which would make every projection NaN
        if not (lower <= upper).all():
            raise ValueError("box needs lower <= upper, no NaN, in every"
                             " coordinate")
        self.lower = lower
        self.upper = upper
        self.dim = lower.size

    def project(self, p):
        return _clip(_as_points(p, self.dim), self.lower, self.upper)

    def bounding_box(self):
        lo, hi = self.lower, self.upper
        # the fallback of `ConvexSet.bounding_box` for each infinite
        # bound; an infinite bound minus 10 stays infinite, silently
        open_lo = np.where(np.isfinite(hi), np.minimum(-10.0, hi - 10.0), -10.0)
        open_hi = np.where(np.isfinite(lo), np.maximum(10.0, lo + 10.0), 10.0)
        return (np.where(np.isinf(lo), open_lo, lo),
                np.where(np.isinf(hi), open_hi, hi))

    def __repr__(self):
        return "Box(dim={})".format(self.dim)


class WholeSpace(Box):
    """The unconstrained set: the box with every bound infinite."""

    def __init__(self, dim):
        if dim < 1:
            raise ValueError("dimension must be positive")
        super().__init__(-np.inf, np.inf, dim=int(dim))

    def __repr__(self):
        return "WholeSpace({})".format(self.dim)


class Ball(ConvexSet):
    """Euclidean ball { p : ||p - center|| <= radius }."""

    def __init__(self, center, radius):
        center = _new_vector(center, None)
        if not np.isfinite(center).all():
            raise ValueError("ball center must be finite")
        if not np.isfinite(radius):
            raise ValueError("ball radius must be finite")
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        self.center = center
        self.radius = float(radius)
        self.dim = center.size

    def project(self, p):
        p = _as_points(p, self.dim)
        if p.ndim > 1:
            return _each_point(self.project, p, np.empty_like(p),
                               "Ball.project")
        offset = p - self.center
        dist = np.linalg.norm(offset)
        if dist <= self.radius:
            return p
        return self.center + offset * (self.radius / dist)

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def __repr__(self):
        return "Ball(dim={}, radius={})".format(self.dim, self.radius)


def _clip_bounds(cset):
    """``(lower, upper)`` such that clipping projects onto `cset`, or None.

    Every box clips to its bounds; an infinite bound leaves every value
    (signed zeros and NaN included) unchanged, so a product of boxes,
    whole spaces among them, nested or not, projects with a single clip.
    """
    if isinstance(cset, Box):
        return cset.lower, cset.upper
    if isinstance(cset, Product):
        return cset._bounds
    return None


class Product(ConvexSet):
    """Cartesian product of convex sets; projects each factor independently.

    When every factor is a `Box` (a `WholeSpace` among them) or such a
    product, the projection is one clip over the concatenated factor
    bounds, which gives the same values as projecting factor by factor.
    The bounds are gathered on the first projection, so building a
    product stays cheap. Otherwise each factor projects its columns of
    the point or of the whole stack, so a ball factor projects each
    distinct row of its columns once.
    """

    def __init__(self, *factors):
        if len(factors) == 1 and isinstance(factors[0], (list, tuple)):
            factors = tuple(factors[0])
        if not factors:
            raise ValueError("product needs at least one factor")
        self.factors = factors
        self.dim = sum(f.dim for f in factors)
        offsets = np.cumsum([0] + [f.dim for f in factors])
        self._slices = [slice(offsets[i], offsets[i + 1])
                        for i in range(len(factors))]

    @functools.cached_property
    def _bounds(self):
        """Concatenated ``(lower, upper)`` clip bounds, or None."""
        bounds = [_clip_bounds(f) for f in self.factors]
        if any(b is None for b in bounds):
            return None
        return (np.concatenate([lo for lo, _ in bounds]),
                np.concatenate([hi for _, hi in bounds]))

    def project(self, p):
        p = _as_points(p, self.dim)
        bounds = self._bounds
        if bounds is not None:
            return _clip(p, *bounds)
        out = np.empty_like(p)
        for f, s in zip(self.factors, self._slices):
            out[..., s] = f.project(p[..., s])
        return out

    def bounding_box(self):
        los, his = zip(*(f.bounding_box() for f in self.factors))
        return np.concatenate(los), np.concatenate(his)

    def __repr__(self):
        return "Product({})".format(", ".join(repr(f) for f in self.factors))


def sample_points(cset, count, rng):
    """Draw `count` feasible points, uniform over the bounding box then projected.

    Returns an array of shape `(count, dim)`. Used by the sampled
    monotonicity, Lipschitz and finite-difference checks. The draw is projected
    as one stack, so a set that projects by one clip clips it at once.
    """
    lo, hi = cset.bounding_box()
    return cset.project(rng.uniform(lo, hi, size=(count, cset.dim)))


def normal_cone_residual(cset, p, g):
    """Exact ``min over q in the set of g.(q - p)`` for a box-like set.

    A value above ``-tol`` certifies the variational inequality
    ``g.(q - p) >= 0`` for all feasible `q`, which with ``g = F(z*)`` is
    the first-order optimality condition at `z*`. Over the set's clip
    bounds the minimum separates by coordinate: it is
    ``sum_i min(g_i (lo_i - p_i), g_i (hi_i - p_i))``, where a
    coordinate with ``g_i == 0`` contributes 0 and an infinite end with
    ``g_i != 0`` makes the value -inf.

    Parameters
    ----------
    cset : ConvexSet
        A box or a product of boxes; raises ValueError for other sets.
    p : array-like
        Feasible base point; raises ValueError when `p` is not in the set.
    g : array-like
        Direction tested against feasible displacements from `p`.

    Returns
    -------
    float
        The minimum inner product; nonnegative iff the VI holds at `p`.
    """
    bounds = _clip_bounds(cset)
    if bounds is None:
        raise ValueError("normal-cone residual needs a box or a product of"
                         " boxes, got {!r}".format(cset))
    p = _as_vector(p, cset.dim)
    g = _as_vector(g, cset.dim, name="g")
    if not (np.isfinite(p).all() and cset.contains(p, tol=1e-9)):
        raise ValueError("base point is not in the set")
    lo, hi = bounds
    # the best end of each coordinate: the lower one for g_i > 0, else
    # the upper one; zero directions are left out, not multiplied by an
    # infinite gap
    moved = g != 0.0
    end = np.where(g > 0.0, lo, hi)
    return float(np.sum(g[moved] * (end[moved] - p[moved])))
