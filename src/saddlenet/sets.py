"""Closed convex sets with exact Euclidean projection.

The solvers only ever touch constraint sets through two operations:
projection and membership. The descriptors here cover whole spaces,
boxes, Euclidean balls, and Cartesian products of these, all with
closed-form projections. Products project blockwise, which is exactly
what the stacked primal-dual iterates need; a product of boxes and
whole spaces projects with one clip over its concatenated bounds.

Projections take one point ``(dim,)`` or a stack of points
``(..., dim)``. Boxes, whole spaces and clip-compiled products project a
stack in one clip, which broadcasts over the leading axes and gives
every row the bits of its one-point projection; balls and other
products project each distinct row of a stack once, through
`_each_point`, the row helper every per-point oracle goes through.
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
        """Return `(lo, hi)` arrays enclosing the set.

        Unbounded directions fall back to half-width 10 around the
        origin; sampling-based checks draw their probes from this box.
        """
        raise NotImplementedError


class WholeSpace(ConvexSet):
    """The unconstrained set, projection is the identity."""

    def __init__(self, dim):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = int(dim)

    def project(self, p):
        return _as_points(p, self.dim)

    def bounding_box(self):
        return -10.0 * np.ones(self.dim), 10.0 * np.ones(self.dim)

    def __repr__(self):
        return "WholeSpace({})".format(self.dim)


class Box(ConvexSet):
    """Axis-aligned box { p : lower <= p <= upper } with componentwise clamping.

    Parameters
    ----------
    lower, upper : array-like or scalar
        Bounds; scalars are broadcast when `dim` is given.
    dim : int, optional
        Required when both bounds are scalars.
    """

    def __init__(self, lower, upper, dim=None):
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if dim is not None:
            lower = np.broadcast_to(lower, (dim,)).copy()
            upper = np.broadcast_to(upper, (dim,)).copy()
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
        return self.lower.copy(), self.upper.copy()

    def __repr__(self):
        return "Box(dim={})".format(self.dim)


class Ball(ConvexSet):
    """Euclidean ball { p : ||p - center|| <= radius }."""

    def __init__(self, center, radius):
        center = np.atleast_1d(np.asarray(center, dtype=float))
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

    Whole spaces clip to -inf/+inf, which leaves every value (signed
    zeros and NaN included) unchanged, so a product of boxes and whole
    spaces, nested or not, projects with a single clip. Exact types
    only: a subclass may project differently.
    """
    if type(cset) is Box:
        return cset.lower, cset.upper
    if type(cset) is WholeSpace:
        return np.full(cset.dim, -np.inf), np.full(cset.dim, np.inf)
    if isinstance(cset, Product):
        return cset._bounds
    return None


class Product(ConvexSet):
    """Cartesian product of convex sets; projects each factor independently.

    When every factor is a `Box`, a `WholeSpace` or such a product, the
    projection is one clip over the concatenated factor bounds, which
    gives the same values as projecting factor by factor. The bounds are
    gathered on the first projection, so building a product stays cheap.
    """

    def __init__(self, *factors):
        if len(factors) == 1 and isinstance(factors[0], (list, tuple)):
            factors = tuple(factors[0])
        if not factors:
            raise ValueError("product needs at least one factor")
        self.factors = factors
        self.dim = sum(f.dim for f in factors)
        self._shape = (self.dim,)
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
        bounds = self._bounds
        if bounds is not None:
            # a float array ending in the product's axis, as the solvers
            # pass, is what `_as_points` would return; checking that
            # inline saves most of the call's overhead on short vectors
            if (p.__class__ is not np.ndarray or p.dtype is not _FLOAT
                    or p.shape[-1:] != self._shape):
                p = _as_points(p, self.dim)
            lo, hi = bounds
            return _clip(p, lo, hi)
        p = _as_points(p, self.dim)
        if p.ndim > 1:
            return _each_point(self.project, p, np.empty_like(p),
                               "Product.project")
        out = np.empty_like(p)
        for f, s in zip(self.factors, self._slices):
            out[s] = f.project(p[s])
        return out

    def contains(self, p, tol=1e-12):
        p = _as_vector(p, self.dim)
        return all(f.contains(p[s], tol) for f, s in zip(self.factors, self._slices))

    def bounding_box(self):
        los, his = zip(*(f.bounding_box() for f in self.factors))
        return np.concatenate(los), np.concatenate(his)

    def __repr__(self):
        return "Product({})".format(", ".join(repr(f) for f in self.factors))


def sample_points(cset, count, rng):
    """Draw `count` feasible points, uniform over the bounding box then projected.

    Returns an array of shape `(count, dim)`. Used by the sampled
    monotonicity, Lipschitz and normal-cone checks. The draw is projected
    as one stack, so a set that projects by one clip clips it at once.
    """
    lo, hi = cset.bounding_box()
    return cset.project(rng.uniform(lo, hi, size=(count, cset.dim)))


def normal_cone_residual(cset, p, g, probe_count=100, seed=0):
    """Estimate ``min over q in the set of g.(q - p)``.

    A value above ``-tol`` certifies the variational inequality
    ``g.(q - p) >= 0`` for all feasible `q` up to sampling resolution,
    which with ``g = F(z*)`` is the first-order optimality condition at
    `z*`. The minimum is taken over `p` itself, the projections of far
    coordinate rays from `p` (these land on faces of boxes and balls, so
    the reported value is exact for those sets), and `probe_count`
    random probes projected into the set.

    Parameters
    ----------
    cset : ConvexSet
    p : array-like
        Feasible base point; raises ValueError when `p` is not in the set.
    g : array-like
        Direction tested against feasible displacements from `p`.
    probe_count : int
        Number of random probes.
    seed : int
        Seed for the probe draw.

    Returns
    -------
    float
        Minimum sampled inner product; nonnegative iff the VI holds on
        the probed points.
    """
    p = _as_vector(p, cset.dim)
    g = _as_vector(g, cset.dim, name="g")
    if not cset.contains(p, tol=1e-9):
        raise ValueError("base point is not in the set")
    rng = np.random.default_rng(seed)
    candidates = [cset.project(p)]
    reach = 1e6 * (1.0 + np.linalg.norm(p))
    for i in range(cset.dim):
        ray = np.zeros(cset.dim)
        ray[i] = reach
        candidates.append(cset.project(p + ray))
        candidates.append(cset.project(p - ray))
    candidates.append(sample_points(cset, probe_count, rng))
    q = np.vstack([np.atleast_2d(c) for c in candidates])
    return float(np.min((q - p) @ g))
