"""Projected primal-dual iterations: GDA baseline, OGDA, and extra-gradient.

All three methods share the template ``z <- P(z - alpha * direction)``
over the product set X x Y. OGDA adds the gradient-correction term
``alpha (F(z_k) - F(z_{k-1}))`` and EG probes a mid-point first. The
runner keeps the running ergodic averages the O(1/T) rate statements
are about (plain iterates for OGDA, mid-points for EG), records rows
at a configurable granularity, builds the trace once from each block's
rows when it ends, and counts operator evaluations: one per iteration
for GDA and OGDA (the previous value is cached), two for EG, plus the
single initial evaluation at z_0.

A run steps in long blocks of `_LONG_BLOCK` iterations, fewer for wide
iterates (in steps of `_CHECK`) so that each block array stays within
`_BLOCK_FLOATS` floats; a block never shrinks below `_CHECK` rows, so
on iterates wider than 1927 its arrays exceed that budget. Inside a
block it steps, guards against divergence and evaluates the operator,
writing each iterate, its operator value and EG's mid-point into one
row of fixed block arrays. After every `_CHECK` rows it takes their
natural-map residuals in one stacked call and tests the stop: one
NaN-ignoring minimum, and the first row at the tolerance only when it
is met. A run without a stop tolerance takes the residuals once per
block. At the end of a block, or when the run stops, diverges or ends
its budget, a few stacked calls do the rest of the bookkeeping of all
its rows at once: the ergodic sums (one accumulate) and the recorded
rows with their step lengths (a copy of one slice of the block arrays,
and of a one-row slice for a final row off the recording grid). The
loop is bound by the dispatch of its numpy calls, not by their flops,
so this serves up to 64 rows with each dispatch. A run that stops has
stepped up to ``_CHECK - 1`` iterations past its stop; it discards
them, so its stop, iterations and rows are those of a run that checked
every iteration, but ``gradient_calls`` counts the evaluations made,
these steps included. A divergence raises at its iteration unless a
row before it in the same stop test stopped the run.

Per iteration a run evaluates the operator as counted above and
projects once per step (once for GDA and OGDA, twice for EG), and once
per row for the residual at its stop test or the end of its block. It
allocates nothing per iteration: iterates, operator values and work
vectors live in buffers the loop allocates once, the operator
evaluates through one workspace built for the run (see
`core.SaddleProblem`), whose value is copied into the block arrays,
and a domain that projects by one clip clips into them. The loop body
makes the fewest calls that keep the bits: the steps are written out
in it rather than in helpers, every ufunc takes its output
positionally, and the steps scale by alpha and 2 alpha held as 0-d
arrays, which a ufunc takes faster than a Python float and which give
the same bits; a row's residual, ergodic sum and step length take the
bits the per-iteration expressions give it. The step helpers
`step_gda`, `step_ogda` and `step_eg` compute the same expressions in
fresh arrays; they are the loop's reference, and the tests hold `run`
to their bits. Per recorded row a run stores copies of the iterate and
the ergodic average, the residual and the step length. The columns
derived from those rows (`RunTrace.f_value`, `dist_to_ref`,
`ergodic_gap`) are evaluated only when read, each in one pass over the
stored rows. The networked kinds, consensus and allocation, also share
their plumbing around this loop here (see `_NetworkProblem`).
"""

import collections
import functools
import itertools
import math
import numbers

import numpy as np

from . import sets
from .core import (ValidationError, _batched, _bound_operator,
                   _finite_constant, _row_dots, objective, operator_F)
from .graphs import lambda_max

__all__ = ["METHODS", "SolverConfig", "RunTrace", "DivergenceError",
           "step_bound", "step_gda", "step_ogda", "step_eg", "run",
           "delta_diagnostic", "eg_contraction_check"]

METHODS = ("GDA", "OGDA", "EG")

TRACE_COLUMNS = ("iter", "f_value", "vi_residual", "step_norm",
                 "dist_to_ref", "ergodic_gap", "delta_k")

# c in each method's step bound ``1/(c kappa)``; GDA's 0 leaves it unbounded
_STEP_FACTOR = {"GDA": 0.0, "OGDA": 2.0, "EG": 1.0}

# iterates larger than this trip the divergence guard
DIVERGENCE_NORM = 1e12

# iterations `run` steps between two stop tests. A stopping run takes up
# to `_CHECK - 1` steps past its stop, so 32 would double them
# (consensus5 EG: 641 evaluations against 609 at 16)
_CHECK = 16

# iterations `run` steps between two passes of the rest of its stacked
# bookkeeping, a multiple of `_CHECK`. Fewer rows by `_CHECK` at a time,
# down to `_CHECK`, while a block array would hold more than
# `_BLOCK_FLOATS` floats. On example1 runs recording every row, 64 took
# about 11% less than 16; 256 rows of a wide block array weigh too much
# next to a sparsely recorded trace's rows
_LONG_BLOCK = 64
_BLOCK_FLOATS = 2 ** 15

# recorded chunks `run` joins into one, column by column, as it goes. A
# chunk is six arrays, each with its own header, so at sparse recording,
# one row per chunk, the headers cost several times the rows; joining
# every 64 new chunks leaves one header set per 64
_JOIN_CHUNKS = 64


class DivergenceError(RuntimeError):
    """The iterate left the trust region or turned non-finite."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


def step_bound(method, kappa_m):
    """Largest admissible step size for `method` at operator constant `kappa_m`.

    ``1/(c kappa)`` with ``c = 2`` for OGDA and 1 for EG; unbounded for
    the GDA baseline (``c = 0``: no convergence guarantee exists for it
    either way) and at ``kappa = 0``. A `kappa_m` that is not finite and
    nonnegative raises `ValidationError`.
    """
    kappa_m = _finite_constant("kappa_m", kappa_m)
    if method not in _STEP_FACTOR:
        raise ValidationError("unknown method {!r}".format(method))
    c = _STEP_FACTOR[method] * kappa_m
    return np.inf if c == 0 else 1.0 / c


def _admissible_step(method, kappa, alpha, name):
    """The step of `method` at constant `kappa`, named `name` in errors.

    A given `alpha` is returned when it is below the method's bound and
    raises `ValidationError` otherwise (NaN included). Omitted, the step
    is 0.9 times the bound, GDA taking OGDA's, or 1.0 when it is unbounded.
    """
    if alpha is None:
        bound = step_bound("OGDA" if method == "GDA" else method, kappa)
        return 0.9 * bound if np.isfinite(bound) else 1.0
    bound = step_bound(method, kappa)
    if not alpha < bound:
        raise ValidationError(
            "step size {:g} violates the {} bound {:g} ({}={:g})"
            .format(alpha, method, bound, name, kappa))
    return alpha


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
    """

    def __init__(self, method, step_size=None, max_iters=1000, stop_tol=1e-10,
                 record_every=1):
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

    def resolved_step(self, kappa_m):
        """Return the validated step size for a problem with constant `kappa_m`."""
        return _admissible_step(self.method, kappa_m, self.step_size, "kappa_m")


def _distributed_step(problem, method, alpha):
    """Method and step of a distributed run on a networked `problem`.

    Distributed runs are OGDA or EG. A given `alpha` must be below the
    method's bound at the problem's declared constant (named in the
    error) and positive; omitted, it is `SolverConfig`'s default.
    Returns the upper-cased method and the step as a float.
    """
    method = str(method).upper()
    if method not in ("OGDA", "EG"):
        raise ValidationError("distributed methods are OGDA and EG")
    name = problem._kappa_name
    alpha = _admissible_step(method, getattr(problem, name), alpha, name)
    return method, SolverConfig(method, step_size=alpha).step_size


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
    initial point and the final iterate. A trace is a finished record
    that only `run` constructs, once, when the run ends: each row array
    is one concatenation of the rows each block recorded, and owns its
    memory. ``gradient_calls`` counts the operator evaluations the run
    made, including those of the up to ``_CHECK - 1`` steps it took past
    a stop and discarded; ``stopped_at`` is the stop iteration (None
    when the run used its budget). Row arrays:

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
                 f_star, objective, gradient_calls, stopped_at, chunks):
        self.method = method
        self.alpha = alpha
        self.record_every = record_every
        self.kappa_m = kappa_m
        self.z0 = z0.copy()
        self.z_star = None if z_star is None else np.asarray(z_star, dtype=float)
        self.f_star = f_star
        self.gradient_calls = gradient_calls
        self.stopped_at = stopped_at
        self.delta_k = None
        self._objective = objective
        (self.iters, self.z, self.z_half, self.vi_residual, self.step_norm,
         self.ergodic) = _joined(chunks)

    @functools.cached_property
    def f_value(self):
        """Objective at each recorded iterate, computed on first read."""
        return self._objective(self.z)

    @functools.cached_property
    def dist_to_ref(self):
        """Distance of each recorded iterate to the reference point."""
        if self.z_star is None:
            return np.full(self.iters.size, np.nan)
        d = self.z - self.z_star
        return np.sqrt(_row_dots(d, d))

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
        _write_csv(path, TRACE_COLUMNS, columns)


def _joined(chunks):
    """The rows of the recorded `chunks` as one chunk, joined by column.

    A non-EG run's chunks carry no mid-points, a None column. The chunk
    list is emptied and each column's pieces are dropped once joined, so
    the rows are held twice only one column at a time.
    """
    columns = list(zip(*chunks))
    chunks.clear()
    for i, column in enumerate(columns):
        columns[i] = None if column[0] is None else np.concatenate(column)
    return tuple(columns)


def _write_csv(path, header, columns):
    """Write the `header` line, then one line per row of the cell `columns`."""
    lines = [",".join(header)] + list(map(",".join, zip(*columns)))
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
    _write_csv(path, header, columns)


def _finite_point(name, role, z, dim):
    """`z` as a float vector ``(dim,)``, else a `ValidationError` naming it.

    A point of another shape is refused by its shape, a non-finite one
    by its first non-finite entry, as the `role` it plays in the run.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (dim,):
        raise ValidationError("{} has shape {}, expected ({},)"
                              .format(name, z.shape, dim))
    bad = np.flatnonzero(~np.isfinite(z))
    if bad.size:
        i = int(bad[0])
        raise ValidationError("{}[{}] is {!r}; the {} must be finite"
                              .format(name, i, float(z[i]), role))
    return z


def run(problem, config, z0, z_star=None):
    """Run a configured method from `z0` and return the `RunTrace`.

    The start may be infeasible; the first projected step lands inside
    the set. When `z_star` is given the trace carries distances to it
    and the ergodic objective gap against ``f(z_star)``, which is what
    the rate certificate bounds.

    Raises
    ------
    ValidationError
        On an inadmissible step size for the method, or a start or
        reference point that is not a finite vector of the problem's
        dimension (naming its first non-finite entry).
    DivergenceError
        When an iterate turns non-finite or leaves the guard region.
    """
    z0 = _finite_point("z0", "start", z0, problem.dim)
    if z_star is not None:
        z_star = _finite_point("z_star", "reference", z_star, problem.dim)
    alpha = config.resolved_step(problem.kappa_m)
    f = functools.partial(objective, problem)
    f_star = None if z_star is None else f(z_star)
    calls, stopped, chunks = _stepped(problem, config, alpha, z0)
    return RunTrace(config.method, alpha, config.record_every,
                    problem.kappa_m, z0, z_star, f_star, f, calls, stopped,
                    chunks)


def _stepped(problem, config, alpha, z0):
    """The loop of `run`: ``(gradient_calls, stopped_at, chunks)``.

    The block arrays go when it returns, before the trace joins the
    recorded chunks, so they do not add to the join's peak.
    """
    method, max_iters = config.method, config.max_iters
    every, stop_tol = config.record_every, config.stop_tol

    # The loop owns every array it writes. Its block arrays hold `block + 1`
    # rows: row 0 carries the last row of the previous block (the start in
    # the first), and step j of a block writes row j of the iterates `Z`,
    # their operator values `F`, EG's mid-points `H` and, at the block's
    # stop tests or end, the rows of the residual work `D`, the residuals
    # `R` and the ergodic sums `S`, whose row 0 carries the sum so far.
    # `f_before` carries OGDA's F(z_{k-1}) into the first step of a block;
    # `arg` and `corr` take the step argument and OGDA's correction. The
    # operator workspace is built once for the run and F is copied out of
    # it, and projections write into the block arrays, so a step allocates
    # nothing. The loop calls ufuncs directly, with positional outputs and
    # 0-d step arrays (see the module docstring); `project` is the one call
    # that depends on the domain: one clip, or the domain's projection
    # copied in. A block's recorded rows leave these arrays as copies,
    # appended to `chunks`; every `_JOIN_CHUNKS` new chunks are joined into
    # one, and the trace is built once from the chunks when the run ends.
    evaluate = _bound_operator(problem, ())
    dim, block = problem.dim, _LONG_BLOCK
    while block > _CHECK and (block + 1) * dim > _BLOCK_FLOATS:
        block -= _CHECK
    rows = block + 1
    Z, F, D, S = (np.empty((rows, dim)) for _ in range(4))
    R, J = np.empty(rows), np.arange(rows)
    f_before, arg, corr = np.empty(dim), np.empty(dim), np.empty(dim)
    subtract, multiply, add, sqrt = np.subtract, np.multiply, np.add, math.sqrt
    bounds = sets._clip_bounds(problem.domain)
    if bounds is not None:
        lo, hi = bounds
        clip = sets._clip

        def project(p, out):
            clip(p, lo, hi, out)
    else:
        proj = problem.domain.project

        def project(p, out):
            out[...] = proj(p)
    step, two_step = np.array(alpha), np.array(2.0 * alpha)
    ogda, eg = method == "OGDA", method == "EG"
    H = np.empty((rows, dim)) if eg else None
    summed = H if eg else Z  # the points the ergodic average is over
    # a zero tolerance never stops a run
    stops = stop_tol > 0
    # step j of a block: from row j - 1 to row j, with OGDA's F(z_{k-1})
    # in `f_before` for j = 1, and whether a stop test follows it
    zs, fs = list(Z), list(F)
    steps = list(zip(range(1, rows), zs, zs[1:], [f_before] + fs, fs, fs[1:],
                     list(H[1:]) if eg else [None] * block,
                     [stops and j % _CHECK == 0 for j in range(1, rows)]))

    def first_stop(first, stop):
        # the natural-map residuals ||z - P(z - F(z))|| of rows
        # first..stop-1, a row's the square root of d.dot(d) with the bits
        # `_row_dots` gives it, and the first of those rows at the stop
        # tolerance, or None. fmin skips a NaN residual, so an operator
        # value that turned NaN hides no earlier row
        d, z, r = D[first:stop], Z[first:stop], R[first:stop]
        subtract(z, F[first:stop], d)
        project(d, d)
        subtract(z, d, d)
        np.sqrt(_row_dots(d, d), r)
        if stops and np.fmin.reduce(r) <= stop_tol:
            return first + int(np.flatnonzero(r <= stop_tol)[0])
        return None

    Z[0] = z0
    F[0] = evaluate(Z[0])
    f_before[...] = F[0]  # OGDA's F(z_{-1}), with z_{-1} = z_0
    S[0] = 0.0
    stopped = first_stop(0, 1)
    # chunks are (iters, z, z_half, vi_residual, step_norm, ergodic);
    # row 0 has no step (nor EG a mid-point) and no ergodic average
    nan_row = np.full((1, dim), np.nan)
    chunks = [(J[:1].copy(), Z[:1].copy(), nan_row if eg else None,
               R[:1].copy(), np.full(1, np.nan), nan_row)]
    calls = 1
    joined = 0  # the chunks before this index are joins of `_JOIN_CHUNKS`

    base = 0
    while stopped is None and base < max_iters:
        n = min(block, max_iters - base)
        diverged = last = None
        checked = 0  # rows 1..checked passed their stop test
        for j, z, z_new, f_prev, f_z, f_new, z_half, check in steps[:n]:
            if ogda:
                # z - 2 alpha F(z) + alpha F(z_prev), in that order
                multiply(f_z, two_step, arg)
                subtract(z, arg, arg)
                multiply(f_prev, step, corr)
                add(arg, corr, arg)
            else:
                # z - alpha F(z); EG projects it to the mid-point and
                # steps from z again with F there
                multiply(f_z, step, arg)
                subtract(z, arg, arg)
                if eg:
                    project(arg, z_half)
                    multiply(evaluate(z_half), step, arg)
                    subtract(z, arg, arg)
            project(arg, z_new)
            # NaN and inf fail the comparison too
            if not sqrt(z_new.dot(z_new)) <= DIVERGENCE_NORM:
                diverged = base + j
                n = j - 1
                break
            f_new[...] = evaluate(z_new)
            if check:
                last = first_stop(checked + 1, j + 1)
                if last is not None:
                    n = j
                    break
                checked = j
        # a diverging EG step has evaluated its mid-point
        calls += (2 if eg else 1) * n + (eg and diverged is not None)

        # the rows after the last stop test; a stop ends the block at its
        # row, and wins over a divergence after it
        if last is None and checked < n:
            last = first_stop(checked + 1, n + 1)
        if last is not None:
            stopped = base + last
        elif diverged is not None:
            raise DivergenceError(
                "{} iterate diverged at iteration {}".format(method, diverged),
                iteration=diverged)
        else:
            last = n
        S[1:last + 1] = summed[1:last + 1]
        np.add.accumulate(S[:last + 1], 0, None, S[:last + 1])

        # the rows on the recording grid, then the final row when it is
        # off the grid; the rows before them are the same slice shifted
        # back by one
        first = every - base % every
        spans = [(first, every)] if first <= last else []
        if ((stopped is not None or base + last == max_iters)
                and (last < first or (last - first) % every)):
            spans.append((last, 1))
        for start, stride in spans:
            kept = slice(start, last + 1, stride)
            before = slice(start - 1, last, stride)
            its = base + J[kept]
            d = Z[kept] - Z[before]
            chunks.append((its, Z[kept].copy(),
                           H[kept].copy() if eg else None, R[kept].copy(),
                           np.sqrt(_row_dots(d, d)),
                           np.divide(S[kept], its[:, None])))
        if len(chunks) - joined >= _JOIN_CHUNKS:
            chunks[joined:] = [_joined(chunks[joined:])]
            joined += 1

        f_before[...] = F[n - 1]
        Z[0], F[0], S[0] = Z[n], F[n], S[n]
        base += n

    return calls, stopped, chunks


def _diagnosed(trace, method, name):
    """`trace`'s ``(z_star, alpha, kappa_m)`` for the diagnostic `name`.

    Raises `ValueError` on a trace of another method than `method`, one
    with gaps between recorded iterates, or one without a reference point.
    """
    if trace.method != method:
        raise ValueError("{} is defined along {} traces".format(name, method))
    if trace.record_every != 1:
        raise ValueError("{} needs consecutively recorded iterates".format(name))
    if trace.z_star is None:
        raise ValueError("{} needs a reference saddle point".format(name))
    return trace.z_star, trace.alpha, trace.kappa_m


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
    z_star, alpha, kappa_m = _diagnosed(trace, "OGDA", "delta diagnostic")

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
    z_star, alpha, kappa_m = _diagnosed(trace, "EG", "contraction check")
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
# `_Route` holds its `as_saddle_problem`, per-agent simulator class and
# trace class.
_Route = collections.namedtuple("_Route", "stacked simulator trace")


class _NetworkProblem(object):
    """The part of `ConsensusProblem` and `AllocationProblem` they share.

    Both lay a stacked iterate out as ``[decisions, duals...]``. The
    decisions come first, agent by agent, each agent's as many entries
    as its set has dimensions; as an array they take `decision_shape`
    (``(N, m)`` for consensus, ``(Q,)`` for allocation). One ``N x m``
    block per vertex (agent-major) follows for each dual name in
    `_blocks` after the first. A subclass names its blocks in
    `_blocks` and its declared operator constant in `_kappa_name`, and
    returns its `_Route` from `_route`.
    """

    def __init__(self, graph, m, agents, vector_objective, vector_gradient,
                 name, decision_shape):
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
        self.decision_shape = tuple(decision_shape)
        ends = list(itertools.accumulate([a.cset.dim for a in agents],
                                         initial=0))
        # each agent's entries of the decision block, flattened; the
        # block starts the stacked iterate, so these are its columns too
        self._agent_slices = [slice(a, b) for a, b in zip(ends, ends[1:])]
        duals = len(self._blocks) - 1
        bounds = list(itertools.accumulate(
            [ends[-1]] + [self.n * self.m] * duals, initial=0))
        self._zslices = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        self.dim = bounds[-1]
        self._shapes = [self.decision_shape] + [(self.n, self.m)] * duals

    def rows(self, flat):
        """Reshape a stacked ``Nm`` vector into per-agent rows."""
        return np.asarray(flat, dtype=float).reshape(self.n, self.m)

    def split(self, z):
        """Views of the blocks of a stacked iterate ``z`` ``(..., dim)``.

        The decisions come shaped ``(..., *decision_shape)`` and each
        dual block as rows ``(..., N, m)``, keeping the leading axes.
        """
        lead = z.shape[:-1]
        return tuple(z[..., sl].reshape(lead + shape)
                     for sl, shape in zip(self._zslices, self._shapes))

    def start(self, decisions=None, *duals):
        """Stacked start ``[decisions, duals...]`` from its blocks.

        Decisions default to the projection of zero, dual blocks to zero.
        A block given in any shape must hold as many entries as its part
        of the layout; otherwise a `ValidationError` names the block.
        """
        if len(duals) >= len(self._blocks):
            raise ValidationError("a start has the blocks {}".format(
                ", ".join(name + "0" for name in self._blocks)))
        z = np.zeros(self.dim)
        if decisions is None:
            decisions = self.decision_set.project(
                np.zeros(self._zslices[0].stop))
        for name, sl, block in zip(self._blocks, self._zslices,
                                   (decisions,) + duals):
            if block is not None:
                block = np.asarray(block, dtype=float)
                if block.size != sl.stop - sl.start:
                    raise ValidationError("{}0 has {} entries, expected {}"
                                          .format(name, block.size,
                                                  sl.stop - sl.start))
                z[sl] = block.ravel()
        return z

    def _shaped_blocks(self, *blocks):
        """The blocks of one point or of a stack, shaped as `split` gives them.

        One point's block holds its entries flat or in N rows; a stack's
        puts leading axes before its `split` shape, ``(..., N, m)`` for
        rows and ``(..., Q)`` for flat decisions. Anything else raises
        `ValidationError` naming the block.
        """
        shaped = []
        for name, sl, shape, u in zip(self._blocks, self._zslices,
                                      self._shapes, blocks):
            u, size = np.asarray(u, dtype=float), sl.stop - sl.start
            if u.size == size and u.shape[:-1] in ((), (self.n,)):
                u = u.reshape(shape)
            elif u.ndim == len(shape) or u.shape[-len(shape):] != shape:
                raise ValidationError(
                    "{} has shape {}, expected {} entries, flat or in {} rows,"
                    " or a stack ending in {}".format(name, u.shape, size,
                                                      self.n, shape))
            shaped.append(u)
        return shaped

    def _lead(self, decisions):
        """Batch axes of decisions ``(..., *decision_shape)``."""
        return decisions.shape[:decisions.ndim - len(self.decision_shape)]

    def _each_agent(self, oracle, decisions, slots):
        """Write agent i's `oracle` at its decisions into ``slots[i]``.

        `oracle` is ``"objective"`` or ``"gradient"``; each agent's is
        called once per distinct point of a stack, and a wrong-sized
        value names ``<spec class>.<oracle> of agent i``.
        """
        flat = decisions.reshape(self._lead(decisions) + (-1,))
        for i, (spec, sl, slot) in enumerate(zip(self.agents,
                                                 self._agent_slices, slots)):
            sets._each_point(getattr(spec, oracle), flat[..., sl], slot,
                             "{}.{} of agent {}".format(type(spec).__name__,
                                                        oracle, i))

    def objective_rows(self, decisions):
        """Per-agent objective values ``(..., N)`` of `decisions`."""
        shape = self._lead(decisions) + (self.n,)
        if self.vector_objective is not None:
            return _batched(self.vector_objective(decisions), shape,
                            "vector_objective")
        out = np.empty(shape)
        self._each_agent("objective", decisions,
                         [out[..., i] for i in range(self.n)])
        return out

    def gradient_rows(self, decisions):
        """Stacked objective gradients, shaped like `decisions`."""
        if self.vector_gradient is not None:
            return _batched(self.vector_gradient(decisions), decisions.shape,
                            "vector_gradient")
        out = np.empty(decisions.shape)
        flat = out.reshape(self._lead(decisions) + (-1,))
        self._each_agent("gradient", decisions,
                         [flat[..., sl] for sl in self._agent_slices])
        return out

    def _agent_columns(self):
        """Each agent's columns of a stacked iterate.

        Agent i holds its decisions, then row i of each dual block.
        """
        z = np.arange(self.dim)
        duals = self.split(z)[1:]
        return [np.concatenate([z[sl]] + [block[i] for block in duals])
                for i, sl in enumerate(self._agent_slices)]

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

    `start` holds the blocks `problem.start` takes; returns the kind's
    trace.
    """
    route = problem._route()
    method, alpha = _distributed_step(problem, method, alpha)
    config = SolverConfig(method, step_size=alpha, **budget)
    trace = run(route.stacked(problem), config, problem.start(*start))
    return route.trace(problem, trace)
