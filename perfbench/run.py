"""saddlenet benchmark: end-to-end and per-layer metrics of its workloads.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload alloc-solve --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

One process, one thread: BLAS is pinned to one thread before numpy is
imported, and the library is imported from ``src/`` of the checkout.
Each operation is one closed-loop call of ``saddlenet.harness.main``
(one caller; the next call starts when the previous one returned).

A run builds the instance several times to time set-up, runs one
warm-up operation that is checked but not timed, then runs operations
for ``--seconds``, all on the instance that ``--seed`` selects. Every
operation's outputs are checked; a failed check or a nonzero exit code
counts in ``failed``.

``--trace 0`` reports the end-to-end metrics, measured untraced against
the speed probe (see ``speed.py``): ``iter_cost`` is the median over the
operations of each one's time per iteration divided by the probe's
level during it; ``setup_s`` is the median over batches of builds of the
time per build, scaled from the probe's level during the batch to its
level over the whole run. The raw medians, in microseconds and seconds,
are reported too.
``--trace 1`` reports the per-layer metrics: untraced operations, then
traced ones (spans of the public library functions, see ``tracing.py``),
then one operation under ``tracemalloc`` for the allocation peak. The first traced operation's
spans are kept in memory and written to ``perfbench/out/`` when the run
ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give every metric with its unit, median, highest percentile with at
least ten samples beyond it, and sample count. The same report, with
the run's metadata, goes to ``perfbench/out/<workload>-seed<n>-trace<t>.json``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from saddlenet import harness  # noqa: E402

RUN_SECONDS = 22

# (name, unit, better, bound). iter_cost: solver loop time per iteration,
# sum of wall_time_s over sum of iterations in summary.json (verify: the
# whole call's time per nominal iteration), in snippets of the speed probe
# timed during the same operation. setup_s: building the instance with
# the preset's builder, at the probe's level over the run.
END_TO_END = (
    ("iter_cost", "snippets", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
)

# (name, unit, better, source): `source` is a key of the traced totals,
# or a tuple of keys to add up
PER_LAYER = (
    ("graphs.lap_apply.calls", "count", "lower", "graphs.lap_apply.calls"),
    ("graphs.lap_apply.self_s", "s", "lower", "graphs.lap_apply.self_s"),
    ("graphs.build.s", "s", "lower", "graphs.build.s"),
    ("graphs.lambda_max.s", "s", "lower", "graphs.lambda_max.s"),
    ("graphs.lambda_max_minus_dense", "1", "higher", None),
    ("sets.project.calls", "count", "lower", "sets.project.calls"),
    ("sets.project.self_s", "s", "lower", "sets.project.self_s"),
    ("sets.sample_points.s", "s", "lower", "sets.sample_points.s"),
    ("core.operator_F.calls", "count", "lower", "core.operator_F.calls"),
    ("core.operator_F.self_s", "s", "lower", "core.operator_F.self_s"),
    ("core.check_monotone.s", "s", "lower", "core.check_monotone.s"),
    ("core.estimate_kappa.s", "s", "lower", "core.estimate_kappa.s"),
    ("solvers.run.calls", "count", "lower", "solvers.run.calls"),
    ("solvers.loop.self_s", "s", "lower",
     tuple(name + ".self_s" for name in tracing.LOOP_SPANS)),
    ("solvers.diagnostics.s", "s", "lower", "solvers.diagnostics.s"),
    ("consensus.step.calls", "count", "lower", "consensus.step.calls"),
    ("consensus.step.self_s", "s", "lower", "consensus.step.self_s"),
    ("allocation.step.calls", "count", "lower", "allocation.step.calls"),
    ("allocation.step.self_s", "s", "lower", "allocation.step.self_s"),
    ("allocation.lagrangian.calls", "count", "lower",
     "allocation.lagrangian.calls"),
    ("network.exchange.calls", "count", "lower", "network.exchange.calls"),
    ("network.exchange.self_s", "s", "lower", "network.exchange.self_s"),
    ("network.messages", "count", "lower", "network.messages"),
    ("network.payload_bytes", "computed-bytes", "lower",
     "network.payload_bytes"),
    ("network.agent.self_s", "s", "lower", "network.run.self_s"),
    ("oracle.kkt.s", "s", "lower", "oracle.kkt.s"),
    ("oracle.consensus_reference.s", "s", "lower",
     "oracle.consensus_reference.s"),
    ("oracle.finite_diff.s", "s", "lower", "oracle.finite_diff.s"),
    ("catalog.build.s", "s", "lower", "catalog.build.s"),
    ("harness.csv.s", "s", "lower", "harness.csv.s"),
    ("harness.csv.bytes", "computed-bytes", "lower", "harness.csv.bytes"),
    ("harness.peak_alloc_mb", "MB", "lower", None),
    ("summary.iterations", "count", "lower", None),
    ("summary.operator_calls", "count", "lower", None),
    ("trace.overhead_ratio", "ratio", "lower", None),
)

# the span that records each counter
_COUNTER_SPANS = {"network.messages": "network.exchange",
                  "network.payload_bytes": "network.exchange",
                  "harness.csv.bytes": "harness.csv"}

SETUP_MIN_BATCHES = 3
SETUP_MIN_SECONDS = 1.0
# a batch of builds lasts at least two probe periods, so that the probe's
# level during it is measured, not taken from a neighbouring sample
SETUP_BATCH_SECONDS = 2 * speed.PERIOD_S
MIN_OPS = 3


def spec():
    """The contents of BENCHMARK.json, generated from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }


def describe(values):
    """Median, highest percentile with at least ten samples beyond it, count."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals) if vals else None, "n": n,
           "p_high": None, "p_high_value": None}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            out["p_high"] = p
            out["p_high_value"] = float(np.percentile(vals, p))
            break
    return out


def git_sha():
    """Commit of the checkout read from ``.git``, without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unavailable (not a git checkout)"
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return "unavailable (unresolved ref {})".format(ref)


def metadata(args):
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {k: v for k, v in os.environ.items()
                         if k.endswith("_NUM_THREADS")
                         or k == "VECLIB_MAXIMUM_THREADS"},
        "machine": platform.machine(), "platform": platform.platform(),
        "warm_up_excluded": True,
        "closed_loop": "one caller, in-process saddlenet.harness.main",
    }


class Run(object):
    """State of one benchmark run: operations attempted and their problems."""

    def __init__(self, workload, seed, outdir=None):
        self.workload = workload
        self.seed = seed
        self.outdir = outdir or os.path.join(OUT, workload.name)
        self.attempted = 0
        self.problems = []
        self._expected = None

    def op(self, main=None):
        """Run and check one operation; returns its record, None if it failed."""
        start = time.perf_counter()
        rc, wall = workloads.run_op(self.workload, self.seed, self.outdir,
                                    main)
        end = time.perf_counter()
        self.attempted += 1
        if self._expected is None:
            self._expected = self.workload.expected(self.seed)
        problems = workloads.check_op(self.workload, rc, self.outdir,
                                      self._expected)
        if problems:
            self.problems.append({"op": self.attempted, "problems": problems})
            return None
        us_per_iter, iters, calls = self.workload.counts(self.outdir, wall)
        return {"wall_s": wall, "us_per_iter": us_per_iter,
                "iterations": iters, "operator_calls": calls,
                "start": start, "end": end}

    def ops_for(self, seconds, main=None, min_ops=MIN_OPS, between=None):
        """Run operations until `seconds` have passed and at least `min_ops`.

        Returns one record per operation, None for a failed one. The
        optional `between` is called after each operation, untimed.
        """
        records = []
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end or len(records) < min_ops:
            records.append(self.op(main))
            if between is not None:
                between()
        return records

    def build(self):
        """Build the run's instance for a batch; ``(start, end, builds)``."""
        start = time.perf_counter()
        builds = 0
        while True:
            self.workload.build(self.seed)
            builds += 1
            end = time.perf_counter()
            if end - start >= SETUP_BATCH_SECONDS:
                return start, end, builds

    def setup_times(self):
        """``(start, end, builds)`` of batches of builds of the instance."""
        batches = []
        while (len(batches) < SETUP_MIN_BATCHES
               or batches[-1][1] - batches[0][0] < SETUP_MIN_SECONDS):
            batches.append(self.build())
        return batches


def lambda_max_gap(instance):
    """Declared ``lambda_max`` minus the dense ``eigvalsh`` value (no graph: 0)."""
    if not hasattr(instance, "graph"):
        return 0.0
    dense = np.linalg.eigvalsh(instance.graph.laplacian())[-1]
    return float(instance.lambda_max - dense)


def end_to_end(run, seconds):
    # builds after each operation too, so that set-up is sampled across
    # the whole run and not only in its first second
    with speed.SpeedProbe() as probe:
        setup = run.setup_times()
        run.op()  # warm-up, checked but not timed
        records = [r for r in run.ops_for(
            seconds, between=lambda: setup.append(run.build()))
            if r is not None]
    if not records:
        return {}, {}, {"per_op": []}
    run_level = probe.level()
    setup_s = [(end - start) / builds for start, end, builds in setup]
    setup_at_run_level = [t * run_level / probe.level(start, end)
                          for t, (start, end, _) in zip(setup_s, setup)]
    levels = [probe.level(r["start"], r["end"]) for r in records]
    us = [r["us_per_iter"] for r in records]
    cost = [u / (1e6 * level) for u, level in zip(us, levels)]
    stats = {
        "setup_s.raw": describe(setup_s),
        "wall_s.raw": describe([r["wall_s"] for r in records]),
        "us_per_iter.raw": describe(us),
        "iter_cost": describe(cost),
        "probe_us": describe([1e6 * d for _, d in probe.samples]),
    }
    metrics = {"setup_s": statistics.median(setup_at_run_level),
               "iter_cost": statistics.median(cost)}
    for r, level in zip(records, levels):
        r["probe_us"] = 1e6 * level
    return metrics, stats, {"per_op": records, "run_probe_us": 1e6 * run_level}


def traced_ops(run, seconds, min_ops=MIN_OPS):
    """Run traced operations; returns the tracer, records, totals, absent.

    `records` and `totals` hold the successful operations only; each
    operation's per-name totals are read from the tracer when it ends.
    """
    tracer = tracing.Tracer()
    builders = [("catalog.build", preset, "build")
                for preset in harness.PRESETS.values()]
    totals = []
    with tracing.Patches(tracer, builders) as patches:
        traced_main = tracer.wrap("harness.main", harness.main)

        def main(argv):
            tracer.begin_op()
            rc = traced_main(argv)
            totals.append(tracer.totals())
            return rc

        records = run.ops_for(seconds, main=main, min_ops=min_ops)
    ok = [(rec, t) for rec, t in zip(records, totals) if rec is not None]
    return (tracer, [rec for rec, _ in ok], [t for _, t in ok],
            dict(patches.absent))


def per_layer(run, seconds):
    # one operation of each kind is enough for counts and self times, and
    # keeps a run on a slow instance within the time limit
    run.op()  # warm-up, checked but not timed
    base = [r for r in run.ops_for(seconds / 2.0, min_ops=1) if r is not None]
    tracer, traced, ok, absent = traced_ops(run, seconds / 2.0, min_ops=1)

    tracemalloc.start()
    try:
        run.op()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    if not base or not ok:
        return {}, {}, {"absent": absent}
    def is_count(key):
        return key.endswith(".calls") or key in tracing.COUNTERS

    for t in ok[1:]:
        diff = [k for k in ok[0] if is_count(k) and t[k] != ok[0][k]]
        if diff:
            run.problems.append({"op": "traced", "problems": [
                "counts differ between traced operations: {}".format(diff)]})

    def value(source):
        # counts repeat exactly (checked above); times are per-op medians
        keys = (source,) if isinstance(source, str) else source
        present = [k for k in keys if k in ok[0]]
        if not present:
            return None
        if is_count(present[0]):
            return sum(ok[0][k] for k in present)
        return statistics.median(sum(t[k] for k in present) for t in ok)

    first = base[0]
    computed = {
        "graphs.lambda_max_minus_dense": lambda_max_gap(
            run.workload.build(run.seed)),
        "harness.peak_alloc_mb": peak / 2.0 ** 20,
        "summary.iterations": first["iterations"],
        "summary.operator_calls": first["operator_calls"],
        "trace.overhead_ratio": (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in base)),
    }
    metrics = {}
    for name, _, _, source in PER_LAYER:
        if source is None:
            metrics[name] = computed[name]
            continue
        val = value(source)
        if val is not None:
            metrics[name] = val
            continue
        keys = (source,) if isinstance(source, str) else source
        spans = [_COUNTER_SPANS.get(k, k.rsplit(".", 1)[0]) for k in keys]
        absent[name] = "; ".join(absent.get(sp, sp + " never wrapped")
                                 for sp in spans)
    stats = {"traced_wall_s": describe([r["wall_s"] for r in traced]),
             "untraced_wall_s": describe([r["wall_s"] for r in base])}
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, "{}-seed{}-spans.csv".format(
        run.workload.name, run.seed))
    tracer.write(spans_path)
    return metrics, stats, {"absent": absent, "spans_csv": spans_path,
                            "spans_per_op": len(tracer.spans)}


def report(run, args, metrics, stats, extra, units):
    failed = len(run.problems)
    correct = failed == 0 and bool(metrics)
    lines = ["perfbench {} seed={} trace={}: {} operations attempted,"
             " {} failed (fail_rate {:.3f}), warm-up excluded from timings"
             .format(run.workload.name, run.seed, args.trace, run.attempted,
                     failed, failed / max(run.attempted, 1))]
    for name in sorted(stats):
        s = stats[name]
        high = ("p{:g} {:.6g}".format(s["p_high"], s["p_high_value"])
                if s["p_high"] is not None
                else "no percentile has 10 samples beyond it")
        lines.append("  {:<34} median {:.6g}  {}  n={}".format(
            name, s["median"] if s["median"] is not None else float("nan"),
            high, s["n"]))
    for name in sorted(metrics):
        lines.append("  {:<34} {:.6g} {}".format(name, metrics[name],
                                                 units[name]))
    for name, reason in sorted(extra.get("absent", {}).items()):
        lines.append("  {:<34} absent: {}".format(name, reason))
    for prob in run.problems:
        lines.append("  FAILED {}".format(prob))
    print("\n".join(lines))

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "{}-seed{}-trace{}.json".format(
        run.workload.name, run.seed, args.trace))
    with open(path, "w") as fh:
        json.dump({"metadata": metadata(args), "attempted": run.attempted,
                   "failed": failed, "problems": run.problems,
                   "metrics": metrics, "stats": stats, "extra": extra},
                  fh, indent=1, sort_keys=True, default=str)
    result = {"correct": correct, "attempted": run.attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name],
                                 "unit": units[name]}
                          for name in metrics}}
    print(json.dumps(result))
    return 0 if correct else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the checkout root")
    args = parser.parse_args(argv)
    if not args.write_spec and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0
    run = Run(workloads.WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics, stats, extra = per_layer(run, args.seconds)
        units = {n: u for n, u, _, _ in PER_LAYER}
    else:
        metrics, stats, extra = end_to_end(run, args.seconds)
        units = {n: u for n, u, _, _ in END_TO_END}
    return report(run, args, metrics, stats, extra, units)


if __name__ == "__main__":
    sys.exit(main())
