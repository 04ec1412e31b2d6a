"""Command-line front end: run experiments, verify invariants, list presets.

Subcommands
-----------
solve
    Build the configured instance, run each requested method, and write
    one trace CSV per method plus the certified reference solution and
    a summary file into the output directory.
verify
    Run the invariant suite (monotonicity, Lipschitz bound, gradient
    finite differences, distributed/stacked equivalence, rate
    certificates, optimistic-step descent, extra-gradient contraction)
    on fixed runs, OGDA and EG for 1000 iterations each at the default
    step, and emit a machine-readable report.
list-presets
    Show the shipped experiment presets.

Configs are JSON objects; every key can also be set from the command
line. `verify` reads only the preset, seed and output directory and
rejects the run options `solve` takes. Exit codes: 0 success,
1 validation error, 2 divergence, 3 invariant or certification failure.
"""

import argparse
import functools
import json
import math
import numbers
import os
import sys
import time

import numpy as np

from . import catalog, oracle
from .core import (ValidationError, _lipschitz, _monotone, _sampled_pairs,
                   objective, operator_F, vi_residual)
from .solvers import (DivergenceError, METHODS, SolverConfig, _budget,
                      delta_diagnostic, eg_contraction_check, run)

__all__ = ["PRESETS", "load_config", "resolve_config", "cmd_solve",
           "cmd_verify", "cmd_list_presets", "main"]


class ConfigError(ValueError):
    """An experiment config failed validation."""


PRESETS = {
    "example1": {
        "kind": "saddle",
        "build": catalog.example1_bilinear,
        "methods": ["GDA", "OGDA", "EG"],
        "iters": 5000,
        "record_every": 1,
        "stop_tol": 0.0,
        "alpha": "paper",
        "description": "bilinear f(x,y)=x'By on boxes, B ~ U[0,5]^(10x10)",
    },
    "quadratic-saddle": {
        "kind": "saddle",
        "build": lambda seed: catalog.quadratic_saddle(),
        "methods": ["GDA", "OGDA", "EG"],
        "iters": 5000,
        "record_every": 1,
        "stop_tol": 0.0,
        "alpha": None,
        "description": "scalar f(x,y)=x^2/2-y^2/2 on boxes; identity operator",
    },
    "consensus5": {
        "kind": "consensus",
        "build": lambda seed: catalog.consensus_quadratics(5),
        "methods": ["OGDA", "EG"],
        "iters": 100000,
        "record_every": 1,
        "stop_tol": 1e-8,
        "alpha": None,
        "description": "5-agent ring, quadratic trackers, agreement at 3",
    },
    "allocation3": {
        "kind": "allocation",
        "build": lambda seed: catalog.allocation_quadratics(),
        "methods": ["OGDA", "EG"],
        "iters": 50000,
        "record_every": 1,
        "stop_tol": 1e-9,
        "alpha": None,
        "description": "3-agent ring, quadratic suppliers, optimum (-1,0,1)",
    },
    "example2": {
        "kind": "allocation",
        "build": catalog.example2_allocation,
        "methods": ["OGDA", "EG"],
        "iters": {"OGDA": 999999, "EG": 499999},
        "record_every": 100,
        "stop_tol": 1e-8,
        "alpha": None,
        "description": "20-agent ring, logistic objectives, coupled supply",
    },
    "consensus5-badgrad": {
        "kind": "consensus",
        "build": lambda seed: catalog.consensus_quadratics_badgrad(5),
        "methods": ["OGDA", "EG"],
        "iters": 2000,
        "record_every": 1,
        "stop_tol": 0.0,
        "alpha": None,
        "negative_control": True,
        "description": "negative control: agent 0 reports a wrong gradient",
    },
}

# keys that shape a `solve` run; `verify` runs a fixed protocol and
# rejects them
_RUN_KEYS = ("methods", "alpha", "iters", "record_every", "stop_tol")
_CONFIG_KEYS = ("preset", "seed", "out") + _RUN_KEYS


def load_config(path):
    """Parse a JSON config file; decode errors keep line/column info.

    A file that cannot be read raises `ConfigError` naming its path.
    """
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("{}: cannot read the config file: {}"
                          .format(path, exc.strerror or exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("{}: invalid JSON at line {} column {}: {}"
                          .format(path, exc.lineno, exc.colno, exc.msg))
    if not isinstance(cfg, dict):
        raise ConfigError("{}: config must be a JSON object".format(path))
    return cfg


def _integer(key, value, minimum):
    """`value` as an int of at least `minimum`; bools and floats are rejected."""
    return _budget("config key '{}'".format(key), value, minimum, ConfigError)


def _finite(key, value):
    """`value` as a finite float; bools, strings and NaN/inf are rejected."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ConfigError("config key '{}': expected a finite number, got {!r}"
                          .format(key, value))
    return float(value)


def _resolve_iters(iters):
    """An iteration budget: one integer, or a map from method to integer."""
    if not isinstance(iters, dict):
        return _integer("iters", iters, 0)
    if not iters:
        raise ConfigError("config key 'iters': the method map is empty")
    out = {}
    for method, value in iters.items():
        name = str(method).upper()
        if name not in METHODS or name in out:
            raise ConfigError("config key 'iters': unknown or repeated method"
                              " {!r}; choose from {}"
                              .format(method, sorted(METHODS)))
        out[name] = _integer("iters", value, 0)
    return out


def resolve_config(cfg):
    """Merge a raw config with its preset defaults and validate it."""
    unknown = sorted(set(cfg) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError("unknown config keys: {}".format(", ".join(unknown)))
    name = cfg.get("preset")
    if name is None:
        raise ConfigError("config key 'preset' is required")
    for key in ("preset", "out"):
        if cfg.get(key) is not None and not isinstance(cfg[key], str):
            raise ConfigError("config key '{}': expected a string, got {!r}"
                              .format(key, cfg[key]))
    if name not in PRESETS:
        raise ConfigError("unknown preset '{}'; available: {}"
                          .format(name, ", ".join(sorted(PRESETS))))
    preset = PRESETS[name]
    out = dict(preset)
    out["preset"] = name
    for key in ("seed", "alpha", "iters", "record_every", "stop_tol"):
        if cfg.get(key) is not None:
            out[key] = cfg[key]
    if cfg.get("methods") is not None:
        if not isinstance(cfg["methods"], (list, tuple)):
            raise ConfigError("config key 'methods': must be a list of"
                              " method names, got {!r}".format(cfg["methods"]))
        out["methods"] = list(cfg["methods"])
    out["out"] = cfg.get("out") or os.path.join("runs", name)

    out["seed"] = _integer("seed", out.get("seed", 0), 0)
    if not out["methods"]:
        raise ConfigError("config key 'methods': at least one method required")
    bad = [m for m in out["methods"] if str(m).upper() not in METHODS]
    if bad:
        raise ConfigError("config key 'methods': unknown method(s) {};"
                          " choose from {}".format(bad, sorted(METHODS)))
    upper = [str(m).upper() for m in out["methods"]]
    out["methods"] = sorted(set(upper), key=upper.index)
    if out["kind"] != "saddle":
        nonsim = [m for m in out["methods"] if m == "GDA"]
        if nonsim:
            raise ConfigError("config key 'methods': GDA is not a distributed"
                              " method; use OGDA or EG for preset '{}'"
                              .format(name))
    out["iters"] = _resolve_iters(out["iters"])
    out["record_every"] = _integer("record_every", out["record_every"], 1)
    if out["alpha"] not in (None, "paper"):
        out["alpha"] = _finite("alpha", out["alpha"])
        if out["alpha"] <= 0:
            raise ConfigError("config key 'alpha': must be positive")
    out["stop_tol"] = _finite("stop_tol", out["stop_tol"])
    if out["stop_tol"] < 0:
        raise ConfigError("config key 'stop_tol': must be nonnegative")
    return out


def _iters_for(config, method):
    iters = config["iters"]
    if isinstance(iters, dict):
        return int(iters.get(method, max(iters.values())))
    return iters


def _json(payload):
    """`payload` as indented JSON with sorted keys.

    numpy arrays and scalars become lists and numbers at any depth;
    ``np.float64`` is a float and encodes as one.
    """
    return json.dumps(payload, indent=2, sort_keys=True,
                      default=lambda value: value.tolist())


def _write_json(path, text):
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _setup(problem, config):
    """The configured instance as one saddle problem, and its reference.

    Returns ``(stacked, z0, reference, z_star)``: the problem and start
    of the stacked runs, the reference JSON's dict and the reference as
    one stacked point (both None without one). A reference that fails
    its certificate leaves z_star None and its error in place of the dict.
    """
    kind = config["kind"]
    if kind == "saddle":
        # every saddle preset records its start, reference point and value
        z0, z_star = problem.meta["z0"], problem.meta["z_star"]
        return (problem, z0,
                {"z_star": z_star, "f_star": problem.meta["f_star"],
                 "vi_residual": vi_residual(problem, z_star)}, z_star)
    stacked, z0 = problem._route().stacked(problem), problem.start()
    if config.get("negative_control"):
        return stacked, z0, None, None
    try:
        if kind == "consensus":
            ref = oracle.solve_consensus_reference(problem)
            blocks = (ref.x, ref.v)
        else:
            ref = problem.meta.get("kkt")
            if ref is None:
                ref = oracle.solve_allocation_kkt(problem)
            blocks = (ref.y, ref.a, ref.lam)
    except oracle.CertificationError as exc:
        return stacked, z0, exc, None
    return stacked, z0, vars(ref), problem.start(*blocks)


def _resolve_alpha(stacked, config, method):
    """The configured step; ``"paper"`` is halved below `stacked`'s bound."""
    alpha = config["alpha"]
    if alpha == "paper":
        value, halvings = catalog.paper_step_size(stacked, method)
        if halvings:
            print("note: step size for {} halved {}x to {:g} to satisfy"
                  " its bound".format(method, halvings, value))
        return value
    return alpha


def _solve(problem, stacked, config, outdir, summary, z0, z_star):
    """Run each configured method; write its trace and a summary entry."""
    kind = config["kind"]
    if kind == "saddle":
        def simulate(method, alpha, **budget):
            trace = run(problem, SolverConfig(method, step_size=alpha, **budget),
                        z0, z_star=z_star)
            # computed on first read: keep them in the timed run
            trace.f_value, trace.dist_to_ref, trace.ergodic_gap
            return trace
    else:
        simulate = functools.partial(problem._route().simulate, problem)
    for method in config["methods"]:
        alpha = _resolve_alpha(stacked, config, method)
        t0 = time.perf_counter()
        trace = simulate(method, alpha=alpha,
                         max_iters=_iters_for(config, method),
                         stop_tol=config["stop_tol"],
                         record_every=config["record_every"])
        wall = time.perf_counter() - t0
        path = os.path.join(outdir, "{}-{}.csv".format(config["preset"], method))
        entry = {"method": method, "alpha": trace.alpha,
                 "iterations": int(trace.iters[-1]),
                 "stopped_at": trace.stopped_at,
                 "gradient_calls": trace.gradient_calls,
                 "wall_time_s": wall,
                 "final_vi_residual": float(trace.vi_residual[-1]),
                 "trace_csv": path}
        if kind == "saddle":
            if method == "OGDA" and config["record_every"] == 1:
                delta_diagnostic(problem, trace)
            entry["final_f"] = float(trace.f_value[-1])
            entry["final_f_gap"] = abs(entry["final_f"] - trace.f_star)
        else:
            entry["final_objective"] = float(trace.objective[-1])
        if kind == "consensus":
            entry["final_consensus_residual"] = float(
                trace.consensus_residual[-1])
        elif kind == "allocation":
            entry["final_feasibility_gap"] = float(trace.feasibility_gap[-1])
            lam = trace.lam[-1]
            entry["dual_consensus"] = float(
                np.max(lam, axis=0).max() - np.min(lam, axis=0).min())
        trace.to_csv(path)
        summary["runs"].append(entry)


def cmd_solve(config):
    """Run the configured experiment and write its artifacts."""
    problem = PRESETS[config["preset"]]["build"](config["seed"])
    outdir = config["out"]
    os.makedirs(outdir, exist_ok=True)
    summary = {"preset": config["preset"], "seed": config["seed"], "runs": []}
    stacked, z0, reference, z_star = _setup(problem, config)
    if isinstance(reference, oracle.CertificationError):
        raise reference
    if reference is not None:
        _write_json(os.path.join(
            outdir, "{}-reference.json".format(config["preset"])),
            _json(reference))
    _solve(problem, stacked, config, outdir, summary, z0, z_star)
    _write_json(os.path.join(outdir, "config.json"),
                _json({k: v for k, v in config.items()
                       if k in _CONFIG_KEYS or k in ("kind",)}))
    _write_json(os.path.join(outdir, "summary.json"), _json(summary))
    for entry in summary["runs"]:
        print("{method}: alpha={alpha:g} iters={iterations}"
              " calls={gradient_calls} residual={final_vi_residual:.3e}"
              " wall={wall_time_s:.2f}s".format(**entry))
    return 0


def cmd_verify(config):
    """Run the invariant suite on the configured instance.

    Reads the preset and seed, and writes into the output directory
    when one is set; the runs are fixed (OGDA and EG, 1000 iterations
    each at the default step).
    """
    # an output directory that cannot be made fails before the checks run
    if config.get("out"):
        os.makedirs(config["out"], exist_ok=True)
    problem = PRESETS[config["preset"]]["build"](config["seed"])
    kind = config["kind"]
    stacked, z0, reference, z_star = _setup(problem, config)
    checks = []

    def add(name, passed, margin, detail):
        checks.append({"check": name, "passed": bool(passed),
                       "margin": margin, "detail": detail})

    # `check_monotone` and `estimate_kappa` at this seed, from one draw
    pairs = _sampled_pairs(stacked, 1000, config["seed"])
    mono = _monotone(*pairs)
    add("monotonicity", mono["passed"], mono["min_inner"],
        "min inner product over 1000 pairs (bound -1e-10)")

    try:
        kap = _lipschitz(stacked, *pairs)
        add("lipschitz_bound", kap["passed"],
            kap["kappa_m"] - kap["max_ratio"],
            "declared kappa {:.6g} minus max sampled ratio {:.6g}"
            .format(kap["kappa_m"], kap["max_ratio"]))
    except ValidationError as exc:
        add("lipschitz_bound", False, None, str(exc))
    # the finite differences take the first 100 points of the draw; the
    # rest of its four stacks of 1000 points is not read below
    points = pairs[0][:100].copy()
    del pairs

    # the gradient checked is F, the operator the solvers run, with its
    # dual block negated back, evaluated on the whole stack at once
    sign = np.where(np.arange(stacked.dim) < stacked.dim_x, 1.0, -1.0)
    fd = oracle.finite_diff_check(
        functools.partial(objective, stacked),
        lambda P: sign * operator_F(stacked, P),
        points)
    add("gradient_finite_diff", fd["passed"], fd["max_rel_error"],
        "max relative error over 100 points (tolerance 1e-5)")

    # one stacked run per method serves the equivalence and the
    # certificate checks
    traces = {}
    for method in ("OGDA", "EG"):
        cfg = SolverConfig(method=method, max_iters=1000, stop_tol=0.0)
        traces[method] = trace = run(stacked, cfg, z0, z_star=z_star)
        if kind != "saddle":
            sim = problem._route().simulator(problem, method=method)
            dev = sim.replay(trace)
            add("distributed_stacked_equivalence_{}".format(method),
                dev == 0.0, dev,
                "max trajectory deviation, 1000 iterations (== 0 passes)")

    if isinstance(reference, oracle.CertificationError):
        add("reference_certification", False, None, str(reference))

    if z_star is not None:
        for method, trace in traces.items():
            bound = trace.rate_certificate()
            gap = trace.ergodic_gap[1:] - (bound[1:] + 1e-10)
            add("rate_certificate_{}".format(method),
                bool(np.all(gap <= 0)), float(np.max(gap)),
                "max(ergodic gap minus bound) over recorded T (<= 0 passes)")
            if method == "OGDA":
                delta = delta_diagnostic(stacked, trace)
                eta = 1.0 / (2.0 * trace.alpha) - trace.kappa_m
                steps = np.sum(np.diff(trace.z, axis=0) ** 2, axis=1)
                viol = float(np.max(delta[1:] - delta[:-1] + eta * steps))
                add("optimistic_descent", viol <= 1e-10, viol,
                    "max descent violation along 1000 iterations (bound 1e-10)")
            else:
                rep = eg_contraction_check(trace)
                add("eg_contraction", rep["holds"], rep["max_violation"],
                    "max contraction violation (bound 1e-10)")

    passed = all(c["passed"] for c in checks)
    report = {"preset": config["preset"], "seed": config["seed"],
              "passed": passed, "checks": checks}
    text = _json(report)
    print(text)
    if config.get("out"):
        _write_json(os.path.join(config["out"], "verify.json"), text)
    return 0 if passed else 3


def cmd_list_presets():
    for name in sorted(PRESETS):
        preset = PRESETS[name]
        flags = " [negative control]" if preset.get("negative_control") else ""
        print("{:<20} {:<11} {}{}".format(name, preset["kind"],
                                          preset["description"], flags))
    return 0


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--preset", help="preset name (see list-presets)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="output directory")


def _add_run_options(parser):
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--iters", type=int)
    parser.add_argument("--record-every", type=int, dest="record_every")
    parser.add_argument("--stop-tol", type=float, dest="stop_tol")
    parser.add_argument("--method", action="append", dest="methods",
                        help="repeatable; subset of GDA, OGDA, EG")


def _gather_config(args):
    cfg = {}
    if args.config:
        cfg.update(load_config(args.config))
    if args.command == "verify":
        for key in _RUN_KEYS:
            if key in cfg:
                raise ConfigError(
                    "config key '{}': verify runs OGDA and EG for 1000"
                    " iterations at the default step; use solve".format(key))
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return resolve_config(cfg)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print("error: {}".format(message), file=sys.stderr)
        raise SystemExit(1)


def main(argv=None):
    parser = _Parser(
        prog="saddlenet",
        description="projected saddle-point solvers and distributed"
                    " optimization experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run an experiment")
    _add_common(solve)
    _add_run_options(solve)
    _add_common(sub.add_parser("verify", help="run the invariant suite"))
    sub.add_parser("list-presets", help="show shipped presets")
    args = parser.parse_args(argv)

    if args.command == "list-presets":
        return cmd_list_presets()
    try:
        config = _gather_config(args)
        if args.command == "solve":
            return cmd_solve(config)
        return cmd_verify(config)
    except (ConfigError, ValidationError, OSError) as exc:
        # an OSError is an output that cannot be created or written
        print("error: {}".format(exc), file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print("error: divergence guard tripped: {}".format(exc),
              file=sys.stderr)
        return 2
    except oracle.CertificationError as exc:
        print("error: certification failed: {}".format(exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
