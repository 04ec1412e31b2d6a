"""The benchmark's workloads: instances, one operation each, output checks.

Every operation is one closed-loop call of the command line entry point
``saddlenet.harness.main`` inside this process. A workload names the
preset and subcommand; the seed is the only input that varies, and it
reaches the program only as ``--seed`` (see `Workload.program_seed`).
"""

import contextlib
import io
import json
import os
import shutil
import sys
import time
import traceback

import numpy as np

from saddlenet import harness

# final decisions must be this close to the certified reference; the runs
# stop at a natural-map residual of 1e-8
DECISION_TOL = 1e-6
# slack of the ergodic rate certificate, as in `saddlenet verify`
CERTIFICATE_SLACK = 1e-10

# `verify` on a network preset runs OGDA and EG for 1000 iterations each
# through the per-agent simulator, the stacked simulator and the generic
# run; its per-iteration figure divides the call's time by this count
VERIFY_NOMINAL_ITERS = 6000


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _csv_rows(path, last=None):
    """Header and data rows (the `last` ones only, if given) of a CSV."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = lines[1:] if last is None else lines[1:][-last:]
    return lines[0].split(","), [ln.split(",") for ln in rows]


def _check_solve_summary(outdir, methods):
    """Problems with a solve's summary: methods run, early stops at tolerance."""
    summary = _load_json(os.path.join(outdir, "summary.json"))
    stop_tol = _load_json(os.path.join(outdir, "config.json"))["stop_tol"]
    problems = []
    ran = [r["method"] for r in summary["runs"]]
    if ran != list(methods):
        problems.append("methods run {} != {}".format(ran, list(methods)))
    for r in summary["runs"]:
        if (r["stopped_at"] is not None
                and not r["final_vi_residual"] <= stop_tol):
            problems.append("{} stopped at residual {:.3e} > {:g}".format(
                r["method"], r["final_vi_residual"], stop_tol))
    return summary, problems


class Workload(object):
    """One benchmark workload: a subcommand on a preset, and its checks."""

    command = "solve"
    methods = ("OGDA", "EG")

    def __init__(self, name, preset, why):
        self.name = name
        self.preset = preset
        self.why = why

    def program_seed(self, seed):
        """The ``--seed`` that the program receives for benchmark `seed`."""
        return seed

    def argv(self, seed, outdir):
        return [self.command, "--preset", self.preset,
                "--seed", str(self.program_seed(seed)), "--out", outdir]

    def build(self, seed):
        """Build the instance through the preset's builder."""
        return harness.PRESETS[self.preset]["build"](self.program_seed(seed))

    def counts(self, outdir, wall):
        """``(us per iteration, iterations, operator calls)`` of one operation.

        Sums over the methods in summary.json; `wall` is the whole call.
        """
        runs = _load_json(os.path.join(outdir, "summary.json"))["runs"]
        iters = sum(r["iterations"] for r in runs)
        return (1e6 * sum(r["wall_time_s"] for r in runs) / iters, iters,
                sum(r["gradient_calls"] for r in runs))

    def expected(self, seed):
        """What the checks compare against; by default the built instance."""
        return self.build(seed)

    def check(self, outdir, expected):
        """List of problems with an operation's outputs; empty when correct."""
        raise NotImplementedError


class AllocSolve(Workload):
    # Iterations to tolerance have a heavy tail over the seeded instances:
    # program seeds 0-19 take 19k to 153k, seed 42 takes 302k for OGDA
    # alone. One operation must fit a run's time limit several times over,
    # so the benchmark seed selects one of the first 20 instances.
    def program_seed(self, seed):
        return seed % 20

    def check(self, outdir, instance):
        summary, problems = _check_solve_summary(outdir, self.methods)
        y_star = instance.meta["kkt"].y
        for r in summary["runs"]:
            header, rows = _csv_rows(r["trace_csv"], y_star.size)
            col = header.index("y0")
            y = np.array([float(row[col]) for row in rows])
            err = float(np.max(np.abs(y - y_star)))
            if not err <= DECISION_TOL:
                problems.append("{} decisions off the KKT point by {:.3e}"
                                .format(r["method"], err))
        return problems


class SaddleTrace(Workload):
    methods = ("GDA", "OGDA", "EG")

    def check(self, outdir, instance):
        summary, problems = _check_solve_summary(outdir, self.methods)
        meta = instance.meta
        num = float(np.sum((meta["z0"] - meta["z_star"]) ** 2))
        for r in summary["runs"]:
            header, rows = _csv_rows(r["trace_csv"])
            if len(rows) != r["iterations"] + 1:
                problems.append("{} trace has {} rows".format(r["method"],
                                                              len(rows)))
                continue
            if r["method"] == "GDA":
                continue
            col = header.index("ergodic_gap")
            gap = np.array([float(row[col]) for row in rows[1:]])
            T = np.array([float(row[0]) for row in rows[1:]])
            excess = gap - (num / (2.0 * r["alpha"] * T) + CERTIFICATE_SLACK)
            if not np.max(excess) <= 0.0:
                problems.append("{} ergodic gap exceeds the rate certificate"
                                " by {:.3e}".format(r["method"],
                                                    float(np.max(excess))))
        return problems


class ConsensusSolve(Workload):
    def check(self, outdir, instance):
        summary, problems = _check_solve_summary(outdir, self.methods)
        x_star = instance.meta["x_bar_star"]
        ref = _load_json(os.path.join(
            outdir, "{}-reference.json".format(self.preset)))
        ref_err = abs(ref["x_bar"][0] - x_star)
        if not ref_err <= 1e-9:
            problems.append("oracle reference mean off by {:.3e}"
                            .format(ref_err))
        for r in summary["runs"]:
            header, rows = _csv_rows(r["trace_csv"], instance.n)
            col = header.index("x0")
            x = np.array([float(row[col]) for row in rows])
            err = float(np.max(np.abs(x - x_star)))
            if not err <= DECISION_TOL:
                problems.append("{} decisions off the reference mean by"
                                " {:.3e}".format(r["method"], err))
        return problems


class NetVerify(Workload):
    command = "verify"

    def expected(self, seed):
        return None

    def counts(self, outdir, wall):
        # verify writes no iteration counts
        return 1e6 * wall / VERIFY_NOMINAL_ITERS, 0, 0

    def check(self, outdir, expected):
        report = _load_json(os.path.join(outdir, "verify.json"))
        problems = []
        if report["passed"] is not True:
            failed = [c["check"] for c in report["checks"] if not c["passed"]]
            problems.append("verify failed checks {}".format(failed))
        margins = {c["check"]: c["margin"] for c in report["checks"]}
        for method in ("OGDA", "EG"):
            key = "distributed_stacked_equivalence_" + method
            if margins.get(key) != 0.0:
                problems.append("{} deviation {!r} is not exactly 0.0"
                                .format(key, margins.get(key)))
        return problems


WORKLOADS = {w.name: w for w in (
    AllocSolve("alloc-solve", "example2",
               "the paper's headline run: the specialized allocation loop at"
               " n=20 to tolerance 1e-8, 19k-153k iterations over its 20"
               " seeded instances"),
    SaddleTrace("saddle-trace", "example1",
                "GDA/OGDA/EG x 5000 through the generic run, recording every"
                " iteration and writing three traces; no graph"),
    NetVerify("net-verify", "example2",
              "the verify suite: per-agent network simulator, generic run"
              " over 21 set factors, sampled checks, finite differences"),
    ConsensusSolve("consensus-solve", "consensus5",
                   "the specialized consensus loop to 1e-8 on the shipped"
                   " 5-agent ring, recording every iteration"),
)}


def run_op(workload, seed, outdir, main=None):
    """Run one operation; returns ``(exit code, wall seconds)``.

    The output directory is emptied first so that no earlier operation's
    files can pass the checks. The entry point's own printing is
    discarded; an exception escaping it counts as exit code -1.
    """
    if os.path.isdir(outdir):
        shutil.rmtree(outdir)
    main = harness.main if main is None else main
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = main(workload.argv(seed, outdir))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rc = -1
        wall = time.perf_counter() - t0
    return rc, wall


def check_op(workload, rc, outdir, expected):
    """Problems with one operation: its exit code and its outputs."""
    if rc != 0:
        return ["exit code {}".format(rc)]
    try:
        return workload.check(outdir, expected)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return ["unreadable output: {!r}".format(exc)]
