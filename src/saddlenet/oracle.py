"""Independent reference solvers and brute-force verifiers.

Everything here exists to certify answers before the main solvers are
trusted: gradients against finite differences, consensus optima by 1-D
search or projected gradient on the agreement variable, allocation
optima by dual bisection on the coupling multiplier, and full saddle
references by assembling the operators from dense Laplacian matrices
(never the neighbor-sum code under test).

This module deliberately avoids importing the solver module; the only
shared code is the convex-set projections.
"""

import numpy as np

from . import sets

__all__ = ["CertificationError", "golden_section_min", "finite_diff_check",
           "ConsensusReference", "solve_consensus_reference",
           "KKTReference", "solve_allocation_kkt"]


# largest stack `finite_diff_check` hands to `value` in one call: half
# +h rows and half -h rows, so memory stays O(dim) per call at any dim
FD_CHUNK_ROWS = 256

# bound on the certificate residuals of the consensus and allocation
# references
REFERENCE_TOL = 1e-8

# bound on the relative gradient error `finite_diff_check` accepts
FD_TOL = 1e-5


class CertificationError(RuntimeError):
    """A reference solution failed its independent certificate."""


def golden_section_min(fun, lo, hi):
    """Minimize a unimodal scalar function on [lo, hi] by golden section.

    Shrinks the bracket to ``1e-12 (1 + |a| + |b|)``. Value-based only,
    so the location accuracy is limited to roughly sqrt(machine
    epsilon) times the interval; callers needing more polish the
    result with a gradient method.
    """
    inv = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > 1e-12 * (1.0 + abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def finite_diff_check(value, gradient, points):
    """Compare a gradient oracle against central differences.

    Parameters
    ----------
    value : callable
        The scalar function, evaluated on stacks: it maps an array of
        points ``(k, dim)``, one per row, to their ``k`` values. Per
        tested point the coordinates are taken in chunks of
        ``FD_CHUNK_ROWS / 2``; each chunk is one call on the stack of
        its ``+h`` perturbations followed by its ``-h`` ones, so a call
        sees at most `FD_CHUNK_ROWS` rows. A one-point function ``f``
        serves as ``lambda P: [f(p) for p in P]``.
    gradient : callable
        Claimed gradient of the scalar function, evaluated on stacks as
        `value` is: called once with all of `points` ``(k, dim)``, it
        returns their gradients, one per row, in an array of that shape.
        A one-point gradient ``g`` serves as ``lambda P: [g(p) for p in P]``.
    points : array_like
        Points to test, one per row.

    Returns
    -------
    dict with ``max_rel_error``, ``passed`` (the relative error
    ``|fd - g| / (1 + |g|)`` is at most `FD_TOL` at every point) and
    ``worst_point``.

    Raises
    ------
    ValueError
        When `value` does not return one value per row of its stack, or
        `gradient` not one gradient per row of `points`.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    grads = np.asarray(gradient(points), dtype=float)
    if grads.shape != points.shape:
        raise ValueError("gradient returned shape {} on points of shape {}"
                         .format(grads.shape, points.shape))
    dim = points.shape[1]
    width = FD_CHUNK_ROWS // 2
    worst = 0.0
    worst_point = None
    for p, g in zip(points, grads):
        h = 1e-6 * (1.0 + np.linalg.norm(p))
        fd = np.empty(dim)
        for lo in range(0, dim, width):
            k = min(width, dim - lo)
            # row r of each half moves coordinate lo + r alone: adding
            # h * 0.0 leaves the other coordinates exactly as they were
            step = h * np.eye(k, dim, lo)
            vals = np.asarray(value(np.concatenate([p + step, p - step])),
                              dtype=float)
            if vals.shape != (2 * k,):
                raise ValueError("value returned shape {} on a stack of {}"
                                 " points; it must return one value per row"
                                 .format(vals.shape, 2 * k))
            fd[lo:lo + k] = (vals[:k] - vals[k:]) / (2.0 * h)
        err = np.max(np.abs(fd - g)) / (1.0 + np.max(np.abs(g)))
        if err > worst:
            worst = err
            worst_point = p.copy()
    return {"max_rel_error": float(worst), "passed": bool(worst <= FD_TOL),
            "worst_point": worst_point}


def _intersection_box(problem):
    # the consensus constraint collapses the feasible set to the
    # intersection of the agent boxes
    lo = np.max(np.stack([a.cset.lower for a in problem.agents]), axis=0)
    hi = np.min(np.stack([a.cset.upper for a in problem.agents]), axis=0)
    if np.any(lo > hi):
        raise CertificationError("agent boxes have empty intersection")
    return lo, hi


def _bounded_box(cset):
    # the references search inside the agent boxes: every end must be finite
    return (isinstance(cset, sets.Box) and np.isfinite(cset.lower).all()
            and np.isfinite(cset.upper).all())


def _grad_sum(problem, s):
    return problem.gradient_rows(np.tile(s, (problem.n, 1))).sum(axis=0)


def _value_sum(problem, s):
    return float(np.sum(problem.objective_rows(np.tile(s, (problem.n, 1)))))


class ConsensusReference(object):
    """Certified consensus optimum and the matching saddle point.

    Fields: ``x_bar`` (the common decision), stacked ``x`` and dual
    ``v`` rows, ``objective``, the normal-cone residual of the
    agreement problem and the dense-operator saddle residual.
    """

    def __init__(self, x_bar, x, v, objective, cone_residual, saddle_residual):
        self.x_bar = x_bar
        self.x = x
        self.v = v
        self.objective = objective
        self.cone_residual = cone_residual
        self.saddle_residual = saddle_residual


def _consensus_saddle_residual(problem, x, v):
    # dense-matrix assembly of the operator, independent of the
    # neighbor-sum route the solvers use
    lap = problem.graph.laplacian()
    gx = problem.gradient_rows(x) + lap @ (x + v)
    gv = -(lap @ x)
    rx = x - problem.decision_set.project((x - gx).ravel()).reshape(x.shape)
    return float(np.sqrt(np.sum(rx ** 2) + np.sum(gv ** 2)))


def solve_consensus_reference(problem):
    """Solve the agreement problem and certify the resulting saddle.

    Every agent set must be a box with finite bounds. The common
    decision minimizes the summed objectives over the intersection of
    the agent boxes: golden section for scalar decisions (polished by
    projected gradient), projected gradient with a small step otherwise.
    Its exact normal-cone residual must be at least `-REFERENCE_TOL`
    (NaN fails). The dual is recovered through the Laplacian
    pseudoinverse and the pair certified by the dense-matrix natural-map
    residual, which must be at most `REFERENCE_TOL`.
    """
    if not all(_bounded_box(a.cset) for a in problem.agents):
        raise CertificationError("consensus reference needs bounded box sets")
    lo, hi = _intersection_box(problem)
    box = sets.Box(lo, hi)
    lip = sum(a.lipschitz for a in problem.agents)
    s = box.project(np.zeros(problem.m))
    if problem.m == 1:
        cand = golden_section_min(lambda t: _value_sum(problem, np.array([t])),
                                  lo[0], hi[0])
        cand = np.array([cand])
        if _value_sum(problem, cand) < _value_sum(problem, s):
            s = cand
    if lip > 0:
        # projected gradient with step 1/lip is nonexpansive, so its moves
        # never grow in exact arithmetic; a tiny move that fails to shrink
        # is rounding noise in the gradient sum (the iterate can jitter
        # by a few ulps forever), and the certificates below judge the
        # point reached
        step = 1.0 / lip
        prev_move = np.inf
        for _ in range(10 ** 7):
            s_new = box.project(s - step * _grad_sum(problem, s))
            move = np.max(np.abs(s_new - s))
            s = s_new
            floor = 1e-16 * (1.0 + np.max(np.abs(s)))
            if move <= floor or (move >= prev_move and move <= 1e6 * floor):
                break
            prev_move = move
    cone = sets.normal_cone_residual(box, s, _grad_sum(problem, s))
    if not cone >= -REFERENCE_TOL:
        raise CertificationError(
            "consensus optimum failed certification: normal-cone residual"
            " %.3e < -%.1e" % (cone, REFERENCE_TOL))
    x = np.tile(s, (problem.n, 1))
    v = -np.linalg.pinv(problem.graph.laplacian()) @ problem.gradient_rows(x)
    resid = _consensus_saddle_residual(problem, x, v)
    if resid > REFERENCE_TOL:
        raise CertificationError(
            "consensus saddle failed certification: residual %.3e > %.1e"
            % (resid, REFERENCE_TOL))
    return ConsensusReference(s, x, v, _value_sum(problem, s), cone, resid)


class KKTReference(object):
    """Certified allocation optimum with multiplier and saddle point.

    Fields: stacked decisions ``y``, the scalar multiplier ``mu``, the
    consensus dual rows ``lam`` and auxiliary rows ``a`` completing the
    saddle point, ``objective``, and the certificate residuals
    ``feasibility`` (aggregate constraint), ``stationarity_gap`` (grid
    refinement) and ``saddle_residual`` (dense operators).
    """

    def __init__(self, y, mu, a, lam, objective, feasibility,
                 stationarity_gap, saddle_residual):
        self.y = y
        self.mu = mu
        self.a = a
        self.lam = lam
        self.objective = objective
        self.feasibility = feasibility
        self.stationarity_gap = stationarity_gap
        self.saddle_residual = saddle_residual


def _bisect(above, a, b):
    # bisection on [a, b] for the point where the monotone test `above`
    # turns true: a midpoint where it holds becomes the upper end, any
    # other the lower end; run to ULP convergence
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if above(mid):
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def _grid_refine_rows(fun_rows, lo, hi, levels=5, points=100):
    # nested uniform grids for every column at once; final resolution
    # (hi-lo) / points**levels per column. `fun_rows` maps a (points + 1,
    # N) stack of grids to its values. Each column is its own np.linspace:
    # an array-valued one switches formula for every column once any
    # column has zero width.
    a, b = lo, hi
    cols = np.arange(lo.size)
    for _ in range(levels):
        grid = np.stack([np.linspace(ai, bi, points + 1)
                         for ai, bi in zip(a, b)], axis=1)
        k = np.argmin(fun_rows(grid), axis=0)
        a = grid[np.maximum(k - 1, 0), cols]
        b = grid[np.minimum(k + 1, points), cols]
    return 0.5 * (a + b)


def _allocation_saddle_residual(problem, y, e, a, lam):
    # `e` holds the imbalance rows ``W_i y_i - d_i`` of `y`
    lap = problem.graph.laplacian()
    grad = problem.gradient_rows(y)
    gy = grad + np.concatenate([sp.weight.T @ lam[i]
                                for i, sp in enumerate(problem.agents)])
    ga = -(lap @ lam)
    glam = -(e - lap @ (a + lam))
    ry = y - problem.decision_set.project(y - gy)
    return float(np.sqrt(np.sum(ry ** 2) + np.sum(ga ** 2) + np.sum(glam ** 2)))


def solve_allocation_kkt(problem):
    """Reference allocation optimum by bisection on the coupling dual.

    Requires scalar coupling (m = 1) and scalar box sets with finite
    bounds. For each multiplier value, every agent's inner problem
    ``h_i(y) + mu W_i y`` over its box is solved by derivative bisection
    (convex, so the derivative is nondecreasing); the outer bisection
    exploits that the aggregate supply is nonincreasing in the
    multiplier. Both loops run to ULP convergence, so on instances with
    exact-float optima the reference is exact.

    Each agent's derivative at its two box ends does not depend on the
    multiplier, so the per-agent gradient oracles are evaluated there
    once per problem. For each multiplier an agent whose inner
    derivative ``grad h_i + mu W_i`` is nonnegative at its lower end
    (else nonpositive at its upper end) sits at that end; only the
    remaining interior agents bisect, calling their per-agent gradient
    oracle at each midpoint.

    The stationarity certificate compares every agent's decision with a
    nested grid search of its inner problem, run for all agents at once:
    each level evaluates one ``(101, N)`` stack of grid points through
    `AllocationProblem.objective_rows` (the vectorized objective when
    the problem has one), and the decisions with the grid minimizers
    take one more such call.

    The dense-operator saddle residual must be at most `REFERENCE_TOL`.
    Raises `CertificationError` when no bracket contains the balance
    point (infeasible instance), when an agent's stationarity gap or
    the reference objective is not finite, or when a certificate fails.
    """
    if problem.m != 1:
        raise CertificationError("dual bisection requires scalar coupling")
    if not all(a.cset.dim == 1 and _bounded_box(a.cset)
               for a in problem.agents):
        raise CertificationError(
            "dual bisection requires scalar bounded box sets")
    n = problem.n
    w = np.array([a.weight[0, 0] for a in problem.agents])
    d_total = float(problem.demand.sum())
    los = np.array([a.cset.lower[0] for a in problem.agents])
    his = np.array([a.cset.upper[0] for a in problem.agents])
    grads = [sp.gradient for sp in problem.agents]

    def slope(i, t):
        # agent i's derivative at the scalar t, from its per-agent oracle
        return float(grads[i](np.array([t]))[0])

    g_lo = np.array([slope(i, t) for i, t in enumerate(los)])
    g_hi = np.array([slope(i, t) for i, t in enumerate(his)])

    def y_of_mu(mu):
        muw = mu * w
        at_lo = g_lo + muw >= 0.0
        ys = np.where(at_lo, los, his)
        for i in np.flatnonzero(~(at_lo | (g_hi + muw <= 0.0))):
            ys[i] = _bisect(lambda t, i=i, c=muw[i]: slope(i, t) + c > 0.0,
                            los[i], his[i])
        return ys

    def gap(mu):
        return float(np.sum(w * y_of_mu(mu)) - d_total)

    sup_grad = max(max(abs(lo), abs(hi))
                   for lo, hi in zip(g_lo.tolist(), g_hi.tolist()))
    nonzero = np.abs(w[w != 0.0])
    m_bracket = 10.0 * (1.0 + sup_grad / nonzero.min()) if nonzero.size else 10.0
    for _ in range(6):
        if gap(-m_bracket) >= 0.0 >= gap(m_bracket):
            break
        m_bracket *= 10.0
    else:
        raise CertificationError(
            "no multiplier bracket balances the coupling constraint;"
            " instance is likely infeasible")
    # a gap of exactly 0 or NaN moves the upper end
    mu = _bisect(lambda t: not gap(t) > 0.0, -m_bracket, m_bracket)
    y = y_of_mu(mu)
    feas = abs(float(np.sum(w * y) - d_total))
    if feas > 1e-10:
        raise CertificationError(
            "bisection left aggregate imbalance %.3e > 1e-10" % feas)

    # grid-refinement stationarity certificate: each agent's decision
    # must be at least as good as a brute-force search of its inner
    # problem
    muw = mu * w

    def inner_rows(t):
        return problem.objective_rows(t) + muw * t

    t_grid = _grid_refine_rows(inner_rows, los, his)
    at_y, at_grid = inner_rows(np.stack([y, t_grid]))
    gaps = at_y - at_grid
    if not np.all(np.isfinite(gaps)):
        raise CertificationError(
            "stationarity certificate failed: agents %s have no finite gap"
            % np.flatnonzero(~np.isfinite(gaps)).tolist())
    # folded per agent in order: max keeps 0.0 against a -0.0 gap
    gap_stat = max(0.0, *gaps)
    if gap_stat > 1e-12:
        raise CertificationError(
            "stationarity certificate failed: gap %.3e > 1e-12" % gap_stat)

    objective = float(np.sum(problem.objective_rows(y)))
    if not np.isfinite(objective):
        raise CertificationError(
            "reference objective %r is not finite" % objective)
    lam = np.full((n, 1), mu)
    e = np.stack([sp.weight @ y[problem._agent_slices[i]] - sp.demand
                  for i, sp in enumerate(problem.agents)])
    a_rows = np.linalg.pinv(problem.graph.laplacian()) @ e
    resid = _allocation_saddle_residual(problem, y, e, a_rows, lam)
    if resid > REFERENCE_TOL:
        raise CertificationError(
            "allocation saddle failed certification: residual %.3e > %.1e"
            % (resid, REFERENCE_TOL))
    return KKTReference(y, mu, a_rows, lam, objective, feas, gap_stat, resid)

