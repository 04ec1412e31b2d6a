"""Golden outputs of `saddlenet solve` and `saddlenet verify`.

Runs `solve` on five presets and `verify` on all six, at two seeds, in
this process, and reduces each command's output directory to SHA-256
digests: every trace CSV, reference JSON and ``verify.json``, and
``summary.json`` with its wall times and file paths removed. Each
command also records its exit code, each `solve` run its stop
iteration, iteration count, operator calls and final residual, and
each `verify` check whether it passed.

The digests hold only where numpy computes the same bits: the same
numpy version and the same CPU dispatch targets and features, as
recorded next to them. There every digest must match (byte mode).
Elsewhere the exit codes, check outcomes, stop iterations, iteration
counts and operator calls must match exactly and each final residual
to `RTOL` (value mode).

Usage, from the repository root::

    PYTHONPATH=src python tests/golden/golden_outputs.py          # compare
    PYTHONPATH=src python tests/golden/golden_outputs.py --write  # refresh
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

from saddlenet import harness

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "digests.json")

SEEDS = (0, 3)
SOLVE_PRESETS = ("example1", "quadratic-saddle", "consensus5", "allocation3",
                 "example2")
VERIFY_PRESETS = ("example1", "quadratic-saddle", "consensus5", "allocation3",
                  "example2", "consensus5-badgrad")
COMMANDS = tuple((command, preset, seed) for seed in SEEDS
                 for command, presets in (("solve", SOLVE_PRESETS),
                                          ("verify", VERIFY_PRESETS))
                 for preset in presets)

# relative tolerance of a final residual in value mode: a residual near
# the stop tolerance is a difference of iterates of order one, so a
# rounding change of 1e-16 moves it by about 1e-6 relative (1.1e-6 at
# most when every operator value of every solve here was perturbed by up
# to 2 ulp); the stop iterations did not move
RTOL = 1e-4

# the per-run fields that value mode compares exactly
_EXACT_RUN_KEYS = ("method", "stopped_at", "iterations", "gradient_calls")


def command_id(command, preset, seed):
    return "{}-{}-seed{}".format(command, preset, seed)


def environment():
    """What decides the bits: numpy's version and its CPU dispatch."""
    return {"numpy": np.__version__,
            "cpu_dispatch": sorted(_multiarray_umath.__cpu_dispatch__),
            "cpu_features": dict(sorted(
                _multiarray_umath.__cpu_features__.items()))}


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _summary(path):
    """Digest of a summary without wall times and paths, and its runs."""
    with open(path) as fh:
        summary = json.load(fh)
    for entry in summary["runs"]:
        del entry["wall_time_s"], entry["trace_csv"]
    runs = [{key: entry[key] for key in _EXACT_RUN_KEYS
             + ("final_vi_residual",)} for entry in summary["runs"]]
    return _digest(json.dumps(summary, sort_keys=True).encode()), runs


def run_command(command, preset, seed, out):
    """Run one command into the empty directory `out`; its golden record."""
    argv = [command, "--preset", preset, "--seed", str(seed), "--out", out]
    with contextlib.redirect_stdout(io.StringIO()):
        code = harness.main(argv)
    record = {"exit_code": code, "files": {}}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if name == "summary.json":
            record["files"][name], record["runs"] = _summary(path)
        elif name.endswith(".csv") or name.endswith("-reference.json"):
            with open(path, "rb") as fh:
                record["files"][name] = _digest(fh.read())
        elif name == "verify.json":
            with open(path, "rb") as fh:
                data = fh.read()
            record["files"][name] = _digest(data)
            record["checks"] = {c["check"]: c["passed"]
                                for c in json.loads(data)["checks"]}
    return record


def mode(golden):
    """``bytes`` where this host computes the recorded bits, else ``values``."""
    return "bytes" if golden["environment"] == environment() else "values"


def mismatches(want, got, mode):
    """How record `got` departs from the golden record `want` in `mode`."""
    found = []
    for key in ("exit_code", "checks"):
        if want.get(key) != got.get(key):
            found.append("{}: {!r} != golden {!r}".format(
                key, got.get(key), want.get(key)))
    if sorted(want["files"]) != sorted(got["files"]):
        found.append("files {} != golden {}".format(sorted(got["files"]),
                                                    sorted(want["files"])))
    if mode == "bytes":
        found.extend("{} differs from its golden digest".format(name)
                     for name in sorted(want["files"])
                     if got["files"].get(name) != want["files"][name])
        return found
    if len(want.get("runs", ())) != len(got.get("runs", ())):
        return found + ["runs differ in number"]
    for w, g in zip(want.get("runs", ()), got.get("runs", ())):
        for key in _EXACT_RUN_KEYS:
            if w[key] != g[key]:
                found.append("{} {}: {!r} != golden {!r}".format(
                    w["method"], key, g[key], w[key]))
        if not math.isclose(g["final_vi_residual"], w["final_vi_residual"],
                            rel_tol=RTOL, abs_tol=0.0):
            found.append("{} final_vi_residual: {!r} != golden {!r}"
                         " (rtol {:g})".format(w["method"],
                                               g["final_vi_residual"],
                                               w["final_vi_residual"], RTOL))
    return found


def load():
    with open(GOLDEN) as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="record this host's outputs as the golden ones")
    args = parser.parse_args(argv)
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        for command, preset, seed in COMMANDS:
            key = command_id(command, preset, seed)
            records[key] = run_command(command, preset, seed,
                                       os.path.join(tmp, key))
    if args.write:
        with open(GOLDEN, "w") as fh:
            json.dump({"environment": environment(), "commands": records},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote {} commands to {}".format(len(records), GOLDEN))
        return 0
    golden = load()
    how = mode(golden)
    failed = 0
    for key, record in records.items():
        found = mismatches(golden["commands"][key], record, how)
        failed += bool(found)
        for line in found:
            print("{}: {}".format(key, line))
    print("{} of {} commands match in {} mode".format(
        len(records) - failed, len(records), how))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
