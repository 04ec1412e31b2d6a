"""Tests of the benchmark itself: spec, reproducibility, output checks, tracing.

Run from the checkout root with ``python3 -m pytest perfbench -q``.
"""

import json
import os
import re
import statistics
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from saddlenet import catalog, oracle  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_generated_spec():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == bench.spec()


def test_spec_within_contract_limits():
    spec = bench.spec()
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= spec["run_seconds"] <= 60
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def one_op(name, seed, outdir):
    """Run one checked operation into `outdir`; returns the run and record."""
    run = bench.Run(workloads.WORKLOADS[name], seed, outdir=str(outdir))
    record = run.op()
    assert run.problems == []
    return run, record


def test_same_seed_same_counts(tmp_path):
    first = one_op("alloc-solve", 3, tmp_path / "a")[1]
    second = one_op("alloc-solve", 3, tmp_path / "b")[1]
    for key in ("iterations", "operator_calls"):
        assert first[key] == second[key] > 0
    keys = ("network.messages", "graphs.lap_apply.calls",
            "core.operator_F.calls")
    counts = []
    for sub in ("c", "d"):
        run = bench.Run(workloads.WORKLOADS["net-verify"], 3,
                        outdir=str(tmp_path / sub))
        _, records, totals, absent = bench.traced_ops(run, 0.0, min_ops=1)
        assert run.problems == [] and len(totals) == 1 and absent == {}
        counts.append({k: totals[0][k] for k in keys})
    assert counts[0] == counts[1]
    assert all(v > 0 for v in counts[0].values())


def test_other_seed_changes_instances():
    a, b = catalog.example2_allocation(0), catalog.example2_allocation(1)
    assert not np.array_equal(a.meta["a"], b.meta["a"])
    assert not np.array_equal(catalog.example1_bilinear(0).meta["matrix"],
                              catalog.example1_bilinear(1).meta["matrix"])


def test_alloc_solve_folds_seeds_onto_its_instances(tmp_path):
    alloc = workloads.WORKLOADS["alloc-solve"]
    assert [alloc.program_seed(s) for s in (3, 23, 42)] == [3, 3, 2]
    assert "--seed" in alloc.argv(23, str(tmp_path))
    assert alloc.argv(23, str(tmp_path)) == alloc.argv(3, str(tmp_path))
    verify = workloads.WORKLOADS["net-verify"]
    assert verify.program_seed(42) == 42


def _edit_csv_last_row(path, column, new_value):
    with open(path) as fh:
        lines = fh.read().splitlines()
    col = lines[0].split(",").index(column)
    row = lines[-1].split(",")
    row[col] = new_value(float(row[col]))
    lines[-1] = ",".join(row)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _summary_csv(outdir, method):
    with open(os.path.join(outdir, "summary.json")) as fh:
        runs = json.load(fh)["runs"]
    return [r["trace_csv"] for r in runs if r["method"] == method][0]


def _corrupt_decision(outdir, column):
    _edit_csv_last_row(_summary_csv(outdir, "OGDA"), column,
                       lambda v: repr(v + 1e-3))


def _corrupt_certificate(outdir):
    _edit_csv_last_row(_summary_csv(outdir, "EG"), "ergodic_gap",
                       lambda v: "1000.0")


def _corrupt_equivalence(outdir):
    path = os.path.join(outdir, "verify.json")
    with open(path) as fh:
        report = json.load(fh)
    for check in report["checks"]:
        if check["check"] == "distributed_stacked_equivalence_EG":
            check["margin"] = 1e-300
    with open(path, "w") as fh:
        json.dump(report, fh)


CORRUPTIONS = {
    "alloc-solve": lambda d: _corrupt_decision(d, "y0"),
    "consensus-solve": lambda d: _corrupt_decision(d, "x0"),
    "saddle-trace": _corrupt_certificate,
    "net-verify": _corrupt_equivalence,
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_check_fails_on_corrupted_output(name, tmp_path):
    run, _ = one_op(name, 1, tmp_path)
    expected = run.workload.expected(1)
    assert run.workload.check(run.outdir, expected) == []
    CORRUPTIONS[name](run.outdir)
    assert run.workload.check(run.outdir, expected) != []


def test_check_flags_early_stop_above_tolerance(tmp_path):
    run, _ = one_op("consensus-solve", 0, tmp_path)
    path = os.path.join(run.outdir, "summary.json")
    with open(path) as fh:
        summary = json.load(fh)
    summary["runs"][0]["final_vi_residual"] = 1e-3
    with open(path, "w") as fh:
        json.dump(summary, fh)
    assert run.workload.check(run.outdir, run.workload.expected(0)) != []


def test_exit_code_counts_as_failure(tmp_path):
    run = bench.Run(workloads.WORKLOADS["consensus-solve"], 0,
                    outdir=str(tmp_path))
    assert run.op(main=lambda argv: 3) is None
    assert run.problems[0]["problems"] == ["exit code 3"]


def test_removed_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(oracle, "solve_allocation_kkt")
    tracer = tracing.Tracer()
    with tracing.Patches(tracer) as patches:
        assert "oracle.kkt" in patches.absent
        assert "oracle.finite_diff" not in patches.absent


def test_patches_restore_every_original():
    from saddlenet import core, solvers
    before = (core.operator_F, solvers.operator_F, solvers.run)
    with tracing.Patches(tracing.Tracer()):
        assert solvers.operator_F is core.operator_F
        assert solvers.operator_F is not before[0]
    assert (core.operator_F, solvers.operator_F, solvers.run) == before


def test_self_time_excludes_children():
    tracer = tracing.Tracer()

    def spin(n):
        return sum(range(n))

    child = tracer.wrap("child", spin)
    parent = tracer.wrap("parent", lambda: child(20000) + spin(20000))
    tracer.begin_op()
    parent()
    parent()
    totals = tracer.totals()
    assert totals["parent.calls"] == 2 and totals["child.calls"] == 2
    assert totals["parent.s"] == pytest.approx(
        totals["parent.self_s"] + totals["child.s"])
    assert [s[3] for s in tracer.spans] == [-1, 0, -1, 2]


def test_trimmed_mean_drops_the_slowest_tenth():
    assert speed.TRIM == 0.1
    assert speed.trimmed_mean([1.0] * 9 + [100.0]) == 1.0
    assert speed.trimmed_mean([1.0, 3.0]) == 2.0


def test_probe_samples_and_restores_handler():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        t_end = time.perf_counter() + 0.1
        while time.perf_counter() < t_end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.samples) >= 3
    first, last = probe.samples[0][0], probe.samples[-1][0]
    assert probe.level() == probe.level(first, last) > 0.0
    # an interval between two samples takes the nearer one
    (t0, d0), (t1, d1) = probe.samples[:2]
    assert probe.level(t0 + 1e-9, t0 + 2e-9) == d0
    assert probe.level(t1 - 2e-9, t1 - 1e-9) == d1
