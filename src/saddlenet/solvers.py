"""Projected primal-dual iterations: GDA baseline, OGDA, and extra-gradient.

All three methods share the template ``z <- P(z - alpha * direction)``
over the product set X x Y. OGDA adds the gradient-correction term
``alpha (F(z_k) - F(z_{k-1}))`` and EG probes a mid-point first. The
runner keeps the running ergodic averages the O(1/T) rate statements
are about (plain iterates for OGDA, mid-points for EG), streams rows to
the trace at a configurable granularity, and counts operator
evaluations: one per iteration for GDA and OGDA (the previous value is
cached), two for EG, plus the single initial evaluation at z_0.

Per iteration a run evaluates the operator as counted above and
projects once per step plus once for the natural-map residual (two
projections for GDA and OGDA, three for EG), computing both into work
buffers it allocates once. Per recorded row it stores the iterate, the
ergodic average, the residual and the step length. The columns derived
from those rows (`RunTrace.f_value`, `dist_to_ref`, `ergodic_gap`) are
evaluated only when read, each in one pass over the stored rows. The
networked kinds, consensus and allocation, also share their plumbing
around this loop here (see `_NetworkProblem`).
"""

import collections
import functools
import numbers

import numpy as np

from . import sets
from .core import ValidationError, _norm, objective, operator_F
from .graphs import lambda_max

__all__ = ["METHODS", "SolverConfig", "RunTrace", "DivergenceError",
           "step_bound", "step_gda", "step_ogda", "step_eg", "run",
           "delta_diagnostic", "eg_contraction_check"]

METHODS = ("GDA", "OGDA", "EG")

TRACE_COLUMNS = ("iter", "f_value", "vi_residual", "step_norm",
                 "dist_to_ref", "ergodic_gap", "delta_k")

# iterates larger than this trip the divergence guard
DIVERGENCE_NORM = 1e12


class DivergenceError(RuntimeError):
    """The iterate left the trust region or turned non-finite."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


def step_bound(method, kappa_m):
    """Largest admissible step size for `method` at operator constant `kappa_m`.

    ``1/(2 kappa)`` for OGDA, ``1/kappa`` for EG, unbounded for the GDA
    baseline (no convergence guarantee exists for it either way).
    """
    if kappa_m < 0:
        raise ValidationError("kappa_m must be nonnegative")
    if method == "OGDA":
        return np.inf if kappa_m == 0 else 1.0 / (2.0 * kappa_m)
    if method == "EG":
        return np.inf if kappa_m == 0 else 1.0 / kappa_m
    if method == "GDA":
        return np.inf
    raise ValidationError("unknown method {!r}".format(method))


def _budget(name, value, minimum, error=ValidationError):
    """A count as an int; a bool, a non-integer or one below `minimum` raises `error`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise error("{} must be an integer of at least {}, got {!r}"
                    .format(name, minimum, value))
    return int(value)


class SolverConfig(object):
    """Run parameters for one solver invocation.

    Parameters
    ----------
    method : str
        One of ``GDA``, ``OGDA``, ``EG`` (case-insensitive).
    step_size : float, optional
        Constant step alpha. When omitted, ``0.9 * bound`` is used
        (GDA, having no bound of its own, reuses the OGDA default).
    max_iters : int
    stop_tol : float
        Stop once the natural-map residual falls to this level; zero
        disables early stopping (runs all `max_iters` iterations).
    record_every : int
        Trace granularity; the final iterate is always recorded.
    force_step : bool
        Skip the step-size bound check. The theorems no longer apply;
        meant for negative controls.
    """

    def __init__(self, method, step_size=None, max_iters=1000, stop_tol=1e-10,
                 record_every=1, force_step=False):
        method = str(method).upper()
        if method not in METHODS:
            raise ValidationError("method must be one of {}, got {!r}"
                                  .format("/".join(METHODS), method))
        if step_size is not None and not step_size > 0:
            raise ValidationError("step size must be positive")
        self.method = method
        self.step_size = None if step_size is None else float(step_size)
        self.max_iters = _budget("max_iters", max_iters, 0)
        # NaN would never stop a run
        if not stop_tol >= 0:
            raise ValidationError("stop_tol must be nonnegative")
        self.stop_tol = float(stop_tol)
        self.record_every = _budget("record_every", record_every, 1)
        self.force_step = bool(force_step)

    def resolved_step(self, kappa_m):
        """Return the validated step size for a problem with constant `kappa_m`."""
        bound = step_bound(self.method, kappa_m)
        if self.step_size is None:
            if not np.isfinite(bound):
                ogda_bound = step_bound("OGDA", kappa_m)
                return 1.0 if not np.isfinite(ogda_bound) else 0.9 * ogda_bound
            return 0.9 * bound
        if self.step_size >= bound and not self.force_step:
            raise ValidationError(
                "step size {:g} violates the {} bound {:g} (kappa_m={:g}); "
                "set force_step to override".format(
                    self.step_size, self.method, bound, kappa_m))
        return self.step_size


def _distributed_step(problem, method, alpha):
    """Method and step of a distributed run on a networked `problem`.

    Distributed runs are OGDA or EG. A given `alpha` must be positive
    and below the method's bound at the problem's declared constant
    (named in the error); omitted, it is `SolverConfig`'s default.
    Returns the upper-cased method and the step as a float.
    """
    method = str(method).upper()
    if method not in ("OGDA", "EG"):
        raise ValidationError("distributed methods are OGDA and EG")
    kappa_name = problem._kappa_name
    kappa = getattr(problem, kappa_name)
    bound = step_bound(method, kappa)
    if alpha is not None and not alpha < bound:
        raise ValidationError(
            "step size {:g} violates the {} bound {:g} ({}={:g})"
            .format(alpha, method, bound, kappa_name, kappa))
    return method, SolverConfig(method, step_size=alpha).resolved_step(kappa)


def step_gda(problem, z, alpha):
    """One projected gradient descent-ascent step ``P(z - alpha F(z))``."""
    return problem.domain.project(z - alpha * operator_F(problem, z))


def step_ogda(problem, z, z_prev, alpha):
    """One optimistic step ``P(z - 2 alpha F(z) + alpha F(z_prev))``.

    The first step passes ``z_prev = z`` (the prescribed start
    ``z_{-1} = z_0``), which collapses the correction and reduces to a
    GDA step.
    """
    return problem.domain.project(z - 2.0 * alpha * operator_F(problem, z)
                                  + alpha * operator_F(problem, z_prev))


def step_eg(problem, z, alpha):
    """One extra-gradient step; returns ``(z_half, z_next)``.

    The mid-point is a GDA probe from `z`; the actual step leaves from
    `z` using the operator value at the mid-point.
    """
    z_half = problem.domain.project(z - alpha * operator_F(problem, z))
    f_half = operator_F(problem, z_half)
    z_next = problem.domain.project(z - alpha * f_half)
    return z_half, z_next


class RunTrace(object):
    """Recorded trajectory of one solver run.

    Rows are recorded every `record_every` iterations plus always the
    initial point and the final iterate. Row arrays:

    - ``iters``: iteration numbers of the rows.
    - ``z``: iterates, shape ``(rows, dim)``.
    - ``z_half``: for EG, row k holds the mid-point of the step that
      produced iterate k (NaN on the first row); None otherwise.
    - ``vi_residual``, ``step_norm``: natural-map residual and
      displacement of the producing step (NaN on row 0).
    - ``f_value``: objective at each recorded iterate, computed from
      ``z`` on first read (one `core.objective` call on the stack of
      rows), so runs whose callers never read it skip the objective.
    - ``ergodic``: running averages over iterates 1..T (OGDA/GDA) or
      mid-points 0..T-1 (EG), shape ``(rows, dim)``; NaN on row 0.
    - ``dist_to_ref``, ``ergodic_gap``: distance to the reference point
      and ``|f(ergodic) - f(reference)|`` (NaN without a reference, and
      on row 0 of the gap), computed on first read like ``f_value``.
    - ``delta_k``: filled in by `delta_diagnostic`.
    """

    def __init__(self, method, alpha, record_every, kappa_m, z0, z_star,
                 f_star, objective):
        self.method = method
        self.alpha = alpha
        self.record_every = record_every
        self.kappa_m = kappa_m
        self.z0 = z0.copy()
        self.z_star = None if z_star is None else np.asarray(z_star, dtype=float)
        self.f_star = f_star
        self.gradient_calls = 0
        self.stopped_at = None
        self.delta_k = None
        self._objective = objective
        # row arrays start with room for 64 rows, double when full and
        # are trimmed to the recorded rows by `_finalize`
        rows, dim = 64, z0.size
        self.iters = np.empty(rows, dtype=int)
        self.z = np.empty((rows, dim))
        self.z_half = np.empty((rows, dim)) if method == "EG" else None
        self.ergodic = np.empty((rows, dim))
        self.vi_residual, self.step_norm = np.empty(rows), np.empty(rows)
        self._rows = 0

    _ROW_ARRAYS = ("iters", "z", "z_half", "ergodic", "vi_residual",
                   "step_norm")

    def _resize(self, rows):
        """Reallocate the row arrays for `rows` rows, keeping those written."""
        kept = self._rows
        for name in self._ROW_ARRAYS:
            old = getattr(self, name)
            if old is not None:
                new = np.empty((rows,) + old.shape[1:], dtype=old.dtype)
                new[:kept] = old[:kept]
                setattr(self, name, new)

    def _record(self, it, z, z_half, resid, step_norm, erg_sum, erg_count):
        """Write one row; the ergodic point is ``erg_sum / erg_count``."""
        i = self._rows
        if i == self.iters.size:
            self._resize(2 * i)
        self._rows = i + 1
        self.iters[i] = it
        self.z[i] = z
        if self.z_half is not None:
            self.z_half[i] = np.nan if z_half is None else z_half
        self.vi_residual[i] = resid
        self.step_norm[i] = step_norm
        if erg_count == 0:
            self.ergodic[i] = np.nan
        else:
            np.divide(erg_sum, erg_count, out=self.ergodic[i])

    def _finalize(self):
        if self._rows < self.iters.size:
            self._resize(self._rows)

    @functools.cached_property
    def f_value(self):
        """Objective at each recorded iterate, computed on first read."""
        return self._objective(self.z)

    @functools.cached_property
    def dist_to_ref(self):
        """Distance of each recorded iterate to the reference point."""
        if self.z_star is None:
            return np.full(self.iters.size, np.nan)
        # one dot per row, as `core._norm` takes it, in one batched matmul
        d = self.z - self.z_star
        return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])

    @functools.cached_property
    def ergodic_gap(self):
        """``|f(ergodic) - f(reference)|`` per row; NaN on row 0."""
        gap = np.full(self.iters.size, np.nan)
        if self.f_star is not None and gap.size > 1:
            gap[1:] = np.abs(self._objective(self.ergodic[1:]) - self.f_star)
        return gap

    def rate_certificate(self):
        """Theorem rate bound ``||z0 - z*||^2 / (2 alpha T)`` per recorded row.

        Rows with T = 0 carry infinity. Requires a reference point.
        """
        if self.z_star is None:
            raise ValueError("rate certificate needs a reference point")
        num = float(np.linalg.norm(self.z0 - self.z_star)) ** 2
        T = self.iters.astype(float)
        out = np.full(T.shape, np.inf)
        pos = T > 0
        out[pos] = num / (2.0 * self.alpha * T[pos])
        return out

    def to_csv(self, path):
        """Write the trace in the documented column order.

        Missing optional values (no reference, no diagnostic) serialize
        as empty fields. Each column is formatted in one pass.
        """
        if self.delta_k is None:
            delta = [""] * self.iters.size
        else:
            delta = _csv_cells(self.delta_k)
        columns = (list(map(str, self.iters.tolist())),
                   _csv_cells(self.f_value), _csv_cells(self.vi_residual),
                   _csv_cells(self.step_norm), _csv_cells(self.dist_to_ref),
                   _csv_cells(self.ergodic_gap), delta)
        lines = [",".join(TRACE_COLUMNS)] + list(map(",".join, zip(*columns)))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _g17_cells(values):
    """``%.17g`` of each value in row-major order; ``nan``, ``inf`` kept."""
    return ["%.17g" % v for v in np.ravel(values).tolist()]


def _csv_cells(values):
    """``%.17g`` of each value; an empty field where it is not finite."""
    values = np.asarray(values, dtype=float)
    cells = _g17_cells(values)
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        cells[i] = ""
    return cells


def _write_agent_csv(path, iters, blocks, totals):
    """Write one line per (recorded row, agent), formatted by column.

    A line holds the iteration, the agent id, the agent's entries of
    each block ``(rows, N, k)`` and the row's value of each of `totals`
    ``(rows,)``, every float as ``%.17g`` (``nan`` and ``inf`` as such).
    Blocks come as ``(prefix, block)``, headed ``prefix0``, ``prefix1``
    and so on, and totals as ``(name, values)``.
    """
    n = blocks[0][1].shape[1]
    header = ["iter", "agent_id"]
    columns = [[it for it in map(str, iters.tolist()) for _ in range(n)],
               list(map(str, range(n))) * iters.size]
    for prefix, block in blocks:
        header += ["{}{}".format(prefix, c) for c in range(block.shape[2])]
        columns += [_g17_cells(block[..., c]) for c in range(block.shape[2])]
    for name, total in totals:
        header.append(name)
        columns.append([cell for cell in _g17_cells(total) for _ in range(n)])
    lines = [",".join(header)] + list(map(",".join, zip(*columns)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run(problem, config, z0, z_star=None):
    """Run a configured method from `z0` and return the `RunTrace`.

    The start may be infeasible; the first projected step lands inside
    the set. When `z_star` is given the trace carries distances to it
    and the ergodic objective gap against ``f(z_star)``, which is what
    the rate certificate bounds.

    Raises
    ------
    ValidationError
        On an inadmissible step size for the method.
    DivergenceError
        When an iterate turns non-finite or leaves the guard region.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (problem.dim,):
        raise ValidationError("z0 has shape {}, expected ({},)"
                              .format(z0.shape, problem.dim))
    alpha = config.resolved_step(problem.kappa_m)
    method = config.method
    proj = problem.domain.project
    f = functools.partial(objective, problem)

    f_star = None
    if z_star is not None:
        z_star = np.asarray(z_star, dtype=float)
        f_star = f(z_star)

    max_iters, every = config.max_iters, config.record_every
    trace = RunTrace(method, alpha, every, problem.kappa_m, z0, z_star,
                     f_star, f)

    # work buffers for the step argument, OGDA's correction term and the
    # natural-map residual; the domain is a `sets.Product`, whose
    # projection returns a new array, so iterates never alias them
    dim = problem.dim
    arg, corr, diff = np.empty(dim), np.empty(dim), np.empty(dim)
    two_alpha = 2.0 * alpha

    def residual(z, f_z):
        np.subtract(z, f_z, out=diff)
        return _norm(np.subtract(z, proj(diff), out=diff))

    def descent(z, f, scale):
        # P(z - scale * F)
        np.multiply(f, scale, out=arg)
        return proj(np.subtract(z, arg, out=arg))

    z = z0.copy()
    f_z = operator_F(problem, z)
    trace.gradient_calls = 1
    resid = residual(z, f_z)
    trace._record(0, z, None, resid, np.nan, None, 0)

    erg_sum = np.zeros(dim)
    erg_count = 0
    f_z_prev = f_z  # OGDA cache, z_{-1} = z_0

    def reached(r):
        return config.stop_tol > 0 and r <= config.stop_tol

    if reached(resid):
        trace.stopped_at = 0
        trace._finalize()
        return trace

    for k in range(max_iters):
        it = k + 1
        z_half = None
        if method == "GDA":
            z_new = descent(z, f_z, alpha)
        elif method == "OGDA":
            # z - 2 alpha F(z) + alpha F(z_prev), in that order
            np.multiply(f_z, two_alpha, out=arg)
            np.subtract(z, arg, out=arg)
            np.multiply(f_z_prev, alpha, out=corr)
            z_new = proj(np.add(arg, corr, out=arg))
        else:
            z_half = descent(z, f_z, alpha)
            f_half = operator_F(problem, z_half)
            trace.gradient_calls += 1
            z_new = descent(z, f_half, alpha)

        # NaN and inf fail the comparison too
        if not _norm(z_new) <= DIVERGENCE_NORM:
            raise DivergenceError(
                "{} iterate diverged at iteration {}".format(method, it),
                iteration=it)

        erg_sum += z_half if method == "EG" else z_new
        erg_count += 1

        f_z_prev = f_z
        f_z = operator_F(problem, z_new)
        trace.gradient_calls += 1
        resid = residual(z_new, f_z)

        done = reached(resid) or it == max_iters
        if it % every == 0 or done:
            step = _norm(np.subtract(z_new, z, out=diff))
            trace._record(it, z_new, z_half, resid, step, erg_sum, erg_count)
        z = z_new
        if reached(resid):
            trace.stopped_at = it
            break

    trace._finalize()
    return trace


def delta_diagnostic(problem, trace):
    """Evaluate the OGDA descent quantity Delta_k along a trace.

    The reference point z*, step alpha and constant kappa_m are the
    trace's. With z* a saddle point and alpha below ``1/(2 kappa_m)``,

    ``Delta_k = ||z_k - z*||^2 / (2 alpha) + (kappa_m / 2) ||z_k - z_{k-1}||^2
    - (z_k - z*) . (F(z_k) - F(z_{k-1}))``

    is nonnegative and satisfies the per-step descent
    ``Delta_{k+1} <= Delta_k - eta ||z_{k+1} - z_k||^2`` with
    ``eta = 1/(2 alpha) - kappa_m``. The sequence is also stored on the
    trace (``delta_k``) so it lands in the CSV.

    Raises
    ------
    ValueError
        On a non-OGDA trace, a trace with gaps between recorded
        iterates, or a missing reference point.
    """
    if trace.method != "OGDA":
        raise ValueError("delta diagnostic is defined along OGDA traces")
    if trace.record_every != 1:
        raise ValueError("delta diagnostic needs consecutively recorded iterates")
    z_star, alpha, kappa_m = trace.z_star, trace.alpha, trace.kappa_m
    if z_star is None:
        raise ValueError("delta diagnostic needs a reference saddle point")

    Z = trace.z
    Zprev = np.vstack([Z[:1], Z[:-1]])  # z_{-1} = z_0
    F = operator_F(problem, Z)
    Fprev = np.vstack([F[:1], F[:-1]])
    diff_ref = Z - z_star
    delta = (np.sum(diff_ref ** 2, axis=1) / (2.0 * alpha)
             + 0.5 * kappa_m * np.sum((Z - Zprev) ** 2, axis=1)
             - np.sum(diff_ref * (F - Fprev), axis=1))
    trace.delta_k = delta
    return delta


def eg_contraction_check(trace):
    """Check the per-step EG contraction toward the trace's reference point.

    Verifies, for every consecutive recorded pair,

    ``||z_{k+1} - z*||^2 <= ||z_k - z*||^2
    - 2 alpha rho ||z_{k+1} - z_{k+1/2}||^2``

    with the trace's step alpha and constant kappa_m and
    ``rho = (1 - alpha^2 kappa_m^2) / (2 alpha)``, up to 1e-10
    absolute slack.

    Returns
    -------
    dict
        ``holds``, ``max_violation`` (most positive left-minus-right,
        at most 1e-10 when passing), ``first_violation`` (iteration
        number or None) and ``rho``.
    """
    if trace.method != "EG":
        raise ValueError("contraction check is defined along EG traces")
    if trace.record_every != 1:
        raise ValueError("contraction check needs consecutively recorded iterates")
    z_star, alpha, kappa_m = trace.z_star, trace.alpha, trace.kappa_m
    if z_star is None:
        raise ValueError("contraction check needs a reference saddle point")
    rho = (1.0 - alpha ** 2 * kappa_m ** 2) / (2.0 * alpha)

    d2 = np.sum((trace.z - z_star) ** 2, axis=1)
    extra = np.sum((trace.z[1:] - trace.z_half[1:]) ** 2, axis=1)
    violation = d2[1:] - (d2[:-1] - 2.0 * alpha * rho * extra)
    if violation.size == 0:
        return {"holds": True, "max_violation": 0.0,
                "first_violation": None, "rho": rho}
    bad = np.nonzero(violation > 1e-10)[0]
    return {"holds": bad.size == 0,
            "max_violation": float(np.max(violation)),
            "first_violation": None if bad.size == 0 else int(trace.iters[1 + bad[0]]),
            "rho": rho}


# What the two networked kinds, consensus and allocation, share. A kind's
# `_Route` holds its `as_saddle_problem`, `initial_state`, `simulate_*`,
# per-agent simulator class and trace class.
_Route = collections.namedtuple("_Route",
                                "stacked start simulate simulator trace")


class _NetworkProblem(object):
    """The part of `ConsensusProblem` and `AllocationProblem` they share.

    A subclass names its declared operator constant in `_kappa_name`,
    defines `objective_rows` and returns its `_Route` from `_route`.
    """

    def __init__(self, graph, m, agents, vector_objective, vector_gradient,
                 name):
        if len(agents) != graph.n:
            raise ValidationError("need one agent spec per vertex")
        self.graph = graph
        self.n = graph.n
        self.m = int(m)
        self.agents = list(agents)
        self.vector_objective = vector_objective
        self.vector_gradient = vector_gradient
        self.name = name
        self.meta = {}
        self.lambda_max = lambda_max(graph)
        # product of the agent sets over the stacked decisions; boxes make
        # it one clip
        self.decision_set = sets.Product([a.cset for a in agents])

    def rows(self, flat):
        """Reshape a stacked ``Nm`` vector into per-agent rows."""
        return np.asarray(flat, dtype=float).reshape(self.n, self.m)

    def total_objective(self, decisions):
        return float(np.add.reduce(self.objective_rows(decisions), axis=None))

    def __repr__(self):
        return "{}({}, n={}, m={})".format(type(self).__name__, self.name,
                                           self.n, self.m)


class _NetworkTrace(object):
    """The fields of both kinds' traces, read off a stacked `RunTrace`.

    ``objective`` sums the agent objectives at each row of `decisions`;
    a subclass adds its blocks, its residual or gap column and its CSV.
    """

    def __init__(self, problem, trace, decisions):
        self.problem = problem
        self.method = trace.method
        self.alpha = trace.alpha
        self.gradient_calls = trace.gradient_calls
        self.stopped_at = trace.stopped_at
        self.iters = trace.iters
        self.vi_residual = trace.vi_residual
        self.objective = np.add.reduce(problem.objective_rows(decisions),
                                       axis=-1)


def _simulate(problem, method, alpha, start, **budget):
    """Run a networked problem's dynamics as `run` on its stacked problem.

    `start` holds the blocks of its `initial_state`; returns its trace.
    """
    route = problem._route()
    method, alpha = _distributed_step(problem, method, alpha)
    config = SolverConfig(method, step_size=alpha, **budget)
    trace = run(route.stacked(problem), config, route.start(problem, *start))
    return route.trace(problem, trace)
