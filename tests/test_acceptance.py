"""End-to-end checks of the documented guarantees, one test per criterion.

Every test records a pass/fail line with its measured margins; the
terminal summary prints one line per criterion.
"""
import json
import os
import time

import numpy as np

from saddlenet import allocation as alloc_mod
from saddlenet import catalog
from saddlenet import consensus as cons_mod
from saddlenet import network, oracle, sets
from saddlenet.allocation import feasibility_gap, simulate_allocation
from saddlenet.consensus import (consensus_residual, lagrangian_L1,
                                 simulate_consensus)
from saddlenet.core import check_monotone, estimate_kappa
from saddlenet.harness import main as cli_main
from saddlenet.oracle import finite_diff_check
from saddlenet.solvers import (SolverConfig, delta_diagnostic,
                               eg_contraction_check, run)


def saddle_reference_pairs():
    """Shipped problems in stacked saddle form with certified references."""
    pairs = []
    p1 = catalog.example1_bilinear(seed=0)
    pairs.append(("example1", p1, p1.meta["z_star"]))
    p2 = catalog.quadratic_saddle()
    pairs.append(("quadratic-saddle", p2, p2.meta["z_star"]))
    c5 = catalog.consensus_quadratics(n=5)
    cref = oracle.solve_consensus_reference(c5)
    pairs.append(("consensus5", cons_mod.as_saddle_problem(c5),
                  np.concatenate([cref.x.ravel(), cref.v.ravel()])))
    a3 = catalog.allocation_quadratics()
    aref = oracle.solve_allocation_kkt(a3)
    pairs.append(("allocation3", alloc_mod.as_saddle_problem(a3),
                  np.concatenate([aref.y, aref.a.ravel(), aref.lam.ravel()])))
    e2 = catalog.example2_allocation(seed=0)
    eref = e2.meta["kkt"]
    pairs.append(("example2", alloc_mod.as_saddle_problem(e2),
                  np.concatenate([eref.y, eref.a.ravel(), eref.lam.ravel()])))
    return pairs


def start_point(problem, z_star):
    z0 = problem.domain.project(np.ones(problem.dim))
    if np.linalg.norm(z0 - z_star) < 1e-6:
        z0 = problem.domain.project(2.0 * np.ones(problem.dim))
    return z0


def example1_trace(prob, method, alpha):
    """5000 steps on example1 from its z0, with distances to z* recorded."""
    cfg = SolverConfig(method, step_size=alpha, max_iters=5000, stop_tol=0.0)
    return run(prob, cfg, prob.meta["z0"], z_star=prob.meta["z_star"])


def bilinear_separation(gda, ogda, eg):
    """Criterion-1 check on three 5000-step traces with a reference.

    f = x'By changes sign along every trajectory, so |f| is no measure
    of convergence; the distance to the saddle point is. OGDA and EG
    pass when they still approach z* in the second half (d_5000 <
    d_2500) and end at most half as far from it as the closest GDA
    iterate after step 2500. Returns ``(ok, measures)``.
    """
    def dist_at(trace, k):
        return float(trace.dist_to_ref[trace.iters == k][0])

    gda_tail = float(np.min(gda.dist_to_ref[gda.iters > 2500]))
    measures = {"gda_tail_min": gda_tail}
    ok = True
    for name, trace in (("OGDA", ogda), ("EG", eg)):
        mid, end = dist_at(trace, 2500), dist_at(trace, 5000)
        measures[name] = (mid, end)
        ok = ok and end < mid and end <= 0.5 * gda_tail
    return ok, measures


def test_criterion_1_example1_known_rates(criterion):
    prob = catalog.example1_bilinear(seed=0)
    t0 = time.perf_counter()
    traces = [example1_trace(prob, method,
                             catalog.paper_step_size(prob, method)[0])
              for method in ("GDA", "OGDA", "EG")]
    elapsed = time.perf_counter() - t0
    sep_ok, m = bilinear_separation(*traces)
    time_ok = elapsed <= 5.0
    detail = ("||z-z*|| at k=2500/5000: OGDA {:.3f}/{:.3f}, EG {:.3f}/{:.3f}"
              " (need decreasing and <= half of GDA tail min {:.3f}),"
              " wall {:.2f}s").format(*m["OGDA"], *m["EG"], m["gda_tail_min"],
                                      elapsed)
    criterion(1, "bilinear game method separation", sep_ok and time_ok,
              detail)
    assert time_ok, detail
    assert sep_ok, detail


def test_criterion_1_separation_rejects_gda_as_ogda():
    # negative control: GDA at OGDA's step (no correction term) in the
    # OGDA slot must fail the separation check
    prob = catalog.example1_bilinear(seed=0)
    gda = example1_trace(prob, "GDA", catalog.paper_step_size(prob, "GDA")[0])
    fake = example1_trace(prob, "GDA",
                          catalog.paper_step_size(prob, "OGDA")[0])
    eg = example1_trace(prob, "EG", catalog.paper_step_size(prob, "EG")[0])
    ok, m = bilinear_separation(gda, fake, eg)
    assert not ok, m
    assert m["OGDA"][1] > 0.5 * m["gda_tail_min"], m


def test_criterion_2_ergodic_rate_certificate(criterion):
    worst = -np.inf
    where = None
    for name, prob in (("example1", catalog.example1_bilinear(seed=0)),
                       ("quadratic-saddle", catalog.quadratic_saddle())):
        z_star = prob.meta["z_star"]
        z0 = prob.meta["z0"]
        for method in ("OGDA", "EG"):
            if name == "example1":
                alpha, _ = catalog.paper_step_size(prob, method)
            else:
                alpha = None
            cfg = SolverConfig(method, step_size=alpha, max_iters=5000,
                               stop_tol=0.0)
            trace = run(prob, cfg, z0, z_star=z_star)
            bound = trace.rate_certificate()
            gap = trace.ergodic_gap[1:] - (bound[1:] + 1e-10)
            m = float(np.max(gap))
            if m > worst:
                worst, where = m, (name, method)
    ok = worst <= 0.0
    detail = "max(gap - bound - 1e-10) = {:.3e} at {} (<= 0 passes)".format(
        worst, where)
    criterion(2, "ergodic objective-gap certificate", ok, detail)
    assert ok, detail


def test_criterion_3_optimistic_descent_diagnostic(criterion):
    worst = -np.inf
    where = None
    for name, prob, z_star in saddle_reference_pairs():
        cfg = SolverConfig("OGDA", max_iters=1500, stop_tol=0.0)
        trace = run(prob, cfg, start_point(prob, z_star), z_star=z_star)
        delta = delta_diagnostic(prob, trace)
        eta = 1.0 / (2.0 * trace.alpha) - prob.kappa_m
        steps = np.sum((trace.z[1:] - trace.z[:-1]) ** 2, axis=1)
        viol = float(np.max(delta[1:] - delta[:-1] + eta * steps))
        if viol > worst:
            worst, where = viol, name
    ok = worst <= 1e-10
    detail = "max descent violation {:.3e} at {} (<= 1e-10 passes)".format(
        worst, where)
    criterion(3, "per-step descent along every certified trace", ok, detail)
    assert ok, detail


def test_criterion_4_eg_contraction_diagnostic(criterion):
    worst = -np.inf
    where = None
    for name, prob, z_star in saddle_reference_pairs():
        cfg = SolverConfig("EG", max_iters=1500, stop_tol=0.0)
        trace = run(prob, cfg, start_point(prob, z_star), z_star=z_star)
        report = eg_contraction_check(trace)
        if report["max_violation"] > worst:
            worst, where = report["max_violation"], name
    ok = worst <= 1e-10
    detail = "max contraction violation {:.3e} at {} (<= 1e-10 passes)".format(
        worst, where)
    criterion(4, "per-step contraction along every certified trace", ok,
              detail)
    assert ok, detail


def test_criterion_5_consensus_correctness(criterion):
    prob = catalog.consensus_quadratics(n=5)
    ref = oracle.solve_consensus_reference(prob)
    z_star = np.concatenate([ref.x.ravel(), ref.v.ravel()])
    f_star = lagrangian_L1(prob, ref.x, ref.v)
    t0 = time.perf_counter()
    worst_x = worst_res = worst_cert = -np.inf
    for method in ("OGDA", "EG"):
        trace = simulate_consensus(prob, method, max_iters=100000,
                                   record_every=1, stop_tol=1e-8)
        reached = trace.stopped_at is not None
        worst_x = max(worst_x, float(np.max(np.abs(trace.x[-1] - 3.0))))
        worst_res = max(worst_res, float(trace.consensus_residual[-1]))
        z0 = np.concatenate([trace.x[0].ravel(), trace.v[0].ravel()])
        num = float(np.linalg.norm(z0 - z_star)) ** 2
        for row in range(1, trace.iters.size):
            T = float(trace.iters[row])
            gap = abs(lagrangian_L1(prob, trace.erg_x[row], trace.erg_v[row])
                      - f_star)
            worst_cert = max(worst_cert,
                             gap - (num / (2.0 * trace.alpha * T) + 1e-10))
        assert reached, "did not reach stop tolerance within 1e5 iterations"
    elapsed = time.perf_counter() - t0
    ok = (worst_x <= 1e-4 and worst_res <= 1e-6 and worst_cert <= 0.0
          and elapsed <= 5.0)
    detail = ("max|x_i - 3| {:.2e} (<=1e-4), residual {:.2e} (<=1e-6),"
              " max(gap - bound) {:.2e} (<=0), wall {:.2f}s").format(
                  worst_x, worst_res, worst_cert, elapsed)
    criterion(5, "distributed consensus on the 5-ring", ok, detail)
    assert ok, detail


def test_criterion_6_allocation_correctness(criterion):
    prob = catalog.example2_allocation(seed=0)
    ref = prob.meta["kkt"]
    caps = {"OGDA": 999999, "EG": 499999}
    t0 = time.perf_counter()
    rows = []
    for method in ("OGDA", "EG"):
        trace = simulate_allocation(prob, method, max_iters=caps[method],
                                    record_every=100, stop_tol=1e-8)
        gap = float(feasibility_gap(prob, trace.y[-1]))
        obj_err = abs(prob.total_objective(trace.y[-1]) - ref.objective)
        lam = trace.lam[-1]
        dual = float(np.max(np.abs(lam - lam.mean(axis=0))))
        rows.append((method, gap, obj_err, dual, trace.gradient_calls))
    elapsed = time.perf_counter() - t0
    ok = all(gap <= 1e-4 and obj_err <= 1e-4 and dual <= 1e-5
             and calls <= 10 ** 6 for _, gap, obj_err, dual, calls in rows)
    ok = ok and elapsed <= 60.0
    detail = "; ".join(
        "{}: gap {:.2e} objerr {:.2e} dual {:.2e} calls {}".format(*r)
        for r in rows) + "; wall {:.2f}s".format(elapsed)
    criterion(6, "distributed allocation on the 20-ring", ok, detail)
    assert ok, detail


def test_criterion_7_distributed_stacked_equivalence(criterion):
    worst = -np.inf
    where = None
    cases = [("consensus5", catalog.consensus_quadratics(n=5), "consensus"),
             ("allocation3", catalog.allocation_quadratics(), "allocation"),
             ("example2", catalog.example2_allocation(seed=0), "allocation")]
    for name, prob, kind in cases:
        for method in ("OGDA", "EG"):
            if kind == "consensus":
                trace = simulate_consensus(prob, method, max_iters=1000,
                                           stop_tol=0.0)
                sim = network.ConsensusNetworkSimulator(prob, method=method)
                xh, vh = sim.run(1000)
                dev = max(float(np.max(np.abs(trace.x - xh))),
                          float(np.max(np.abs(trace.v - vh))))
            else:
                trace = simulate_allocation(prob, method, max_iters=1000,
                                            stop_tol=0.0)
                sim = network.AllocationNetworkSimulator(prob, method=method)
                yh, ah, lh = sim.run(1000)
                dev = max(float(np.max(np.abs(trace.y - yh))),
                          float(np.max(np.abs(trace.a - ah))),
                          float(np.max(np.abs(trace.lam - lh))))
            if dev > worst:
                worst, where = dev, (name, method)
    ok = worst == 0.0
    detail = "max deviation {:.3e} at {} (== 0 passes)".format(
        worst, where)
    criterion(7, "per-agent versus stacked trajectories", ok, detail)
    assert ok, detail


def shipped_problem_suite():
    e1 = catalog.example1_bilinear(seed=0)
    qs = catalog.quadratic_saddle()
    c5 = catalog.consensus_quadratics(n=5)
    a3 = catalog.allocation_quadratics()
    e2 = catalog.example2_allocation(seed=0)
    return [("example1", e1, [(lambda z, p=e1: float(p.value(*p.split(z))),
                               lambda z, p=e1: np.concatenate(
                                   [p.grad_x(*p.split(z)),
                                    p.grad_y(*p.split(z))]),
                               e1.domain)]),
            ("quadratic-saddle", qs,
             [(lambda z, p=qs: float(p.value(*p.split(z))),
               lambda z, p=qs: np.concatenate([p.grad_x(*p.split(z)),
                                               p.grad_y(*p.split(z))]),
               qs.domain)]),
            ("consensus5", cons_mod.as_saddle_problem(c5),
             [(a.objective, a.gradient, a.cset) for a in c5.agents]),
            ("allocation3", alloc_mod.as_saddle_problem(a3),
             [(a.objective, a.gradient, a.cset) for a in a3.agents]),
            ("example2", alloc_mod.as_saddle_problem(e2),
             [(a.objective, a.gradient, a.cset) for a in e2.agents])]


def test_criterion_8_operator_property_suite(criterion):
    worst_mono = np.inf
    worst_ratio_slack = np.inf
    worst_fd = -np.inf
    for name, saddle, objectives in shipped_problem_suite():
        mono = check_monotone(saddle, n_pairs=1000, seed=0)
        worst_mono = min(worst_mono, mono["min_inner"])
        assert mono["passed"], "monotonicity fails on {}".format(name)
        lip = estimate_kappa(saddle, n_pairs=1000, seed=1)
        worst_ratio_slack = min(worst_ratio_slack,
                                lip["kappa_m"] - lip["max_ratio"])
        rng = np.random.default_rng(2)
        for value, gradient, cset in objectives:
            pts = sets.sample_points(cset, 100, rng)
            fd = finite_diff_check(lambda P, f=value: [f(p) for p in P],
                                   lambda P, g=gradient: [g(p) for p in P],
                                   pts)
            worst_fd = max(worst_fd, fd["max_rel_error"])
            assert fd["passed"], "finite difference fails on {}".format(name)
    ok = worst_mono >= -1e-10 and worst_fd <= 1e-5
    detail = ("min monotone inner {:.2e} (>=-1e-10), min kappa slack {:.2e},"
              " max fd error {:.2e} (<=1e-5)").format(
                  worst_mono, worst_ratio_slack, worst_fd)
    criterion(8, "sampled operator properties per shipped problem", ok,
              detail)
    assert ok, detail


def test_criterion_9_fixed_point_and_determinism(criterion, tmp_path):
    worst_drift = -np.inf
    where = None
    methods = {"example1": ("GDA", "OGDA", "EG"),
               "quadratic-saddle": ("GDA", "OGDA", "EG")}
    for name, prob, z_star in saddle_reference_pairs():
        for method in methods.get(name, ("OGDA", "EG")):
            cfg = SolverConfig(method, max_iters=100, stop_tol=0.0)
            trace = run(prob, cfg, z_star.copy(), z_star=z_star)
            drift = float(np.max(trace.dist_to_ref))
            if drift > worst_drift:
                worst_drift, where = drift, (name, method)
    out1 = str(tmp_path / "r1")
    out2 = str(tmp_path / "r2")
    for out in (out1, out2):
        code = cli_main(["solve", "--preset", "quadratic-saddle",
                         "--iters", "500", "--out", out])
        assert code == 0
    identical = True
    for fname in sorted(os.listdir(out1)):
        if not fname.endswith(".csv"):
            continue
        with open(os.path.join(out1, fname), "rb") as f1, \
                open(os.path.join(out2, fname), "rb") as f2:
            identical = identical and f1.read() == f2.read()
    ok = worst_drift <= 1e-12 and identical
    detail = ("max drift over 100 steps {:.3e} at {} (<= 1e-12),"
              " bitwise identical reruns: {}").format(
                  worst_drift, where, identical)
    criterion(9, "saddle points are fixed points; runs reproduce bitwise",
              ok, detail)
    assert ok, detail


def test_criterion_artifacts_round_trip(tmp_path):
    # summary.json of a solve names the preset and serializes cleanly
    out = str(tmp_path / "art")
    code = cli_main(["solve", "--preset", "quadratic-saddle",
                     "--iters", "50", "--out", out])
    assert code == 0
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["preset"] == "quadratic-saddle"
