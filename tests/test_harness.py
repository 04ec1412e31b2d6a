import copy
import itertools
import json
import os

import numpy as np
import pytest

from saddlenet import (allocation, consensus, core, harness, network, sets,
                       solvers)
from saddlenet.harness import (PRESETS, ConfigError, cmd_solve, load_config,
                               main, resolve_config)


def solve_args(preset, out, extra=()):
    return ["solve", "--preset", preset, "--out", out] + list(extra)


def read_bytes(*parts):
    with open(os.path.join(*parts), "rb") as fh:
        return fh.read()


def read_json(*parts):
    with open(os.path.join(*parts)) as fh:
        return json.load(fh)


def csv_header(path):
    with open(path) as fh:
        return fh.readline().strip()


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"preset": "example1",}')
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert "line" in str(err.value) and "column" in str(err.value)


def test_resolve_config_rejects_unknown_keys():
    with pytest.raises(ConfigError) as err:
        resolve_config({"preset": "example1", "stepsize": 0.1})
    assert "stepsize" in str(err.value)


def test_resolve_config_requires_known_preset():
    with pytest.raises(ConfigError):
        resolve_config({})
    with pytest.raises(ConfigError) as err:
        resolve_config({"preset": "nope"})
    assert "nope" in str(err.value)


def test_resolve_config_validates_methods():
    with pytest.raises(ConfigError):
        resolve_config({"preset": "example1", "methods": []})
    with pytest.raises(ConfigError):
        resolve_config({"preset": "example1", "methods": ["NEWTON"]})
    # a string is not split into one-letter methods
    with pytest.raises(ConfigError, match="must be a list"):
        resolve_config({"preset": "example1", "methods": "OGDA"})
    cfg = resolve_config({"preset": "example1", "methods": ["ogda", "eg"]})
    assert cfg["methods"] == ["OGDA", "EG"]


def test_resolve_config_rejects_gda_on_network_presets():
    with pytest.raises(ConfigError) as err:
        resolve_config({"preset": "consensus5", "methods": ["GDA"]})
    assert "GDA" in str(err.value)


def test_cli_error_exit_code(capsys):
    code = main(["solve", "--preset", "nope"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unreadable_config_names_its_path(tmp_path):
    path = str(tmp_path / "missing.json")
    with pytest.raises(ConfigError, match="missing.json: cannot read"):
        load_config(path)


@pytest.mark.parametrize("case", ["missing-config", "solve-out-under-a-file",
                                  "verify-out-is-a-file"])
def test_input_and_output_errors_exit_1_without_a_traceback(tmp_path, capsys,
                                                            case):
    # each of these ended in a traceback; verify ran every check and
    # printed its report before failing on its output directory
    afile = tmp_path / "afile"
    afile.write_text("")
    argv = {
        "missing-config": ["solve", "--config", str(tmp_path / "no.json")],
        "solve-out-under-a-file": solve_args("quadratic-saddle",
                                             str(afile / "run"),
                                             ["--iters", "5"]),
        "verify-out-is-a-file": ["verify", "--preset", "quadratic-saddle",
                                 "--out", str(afile)],
    }[case]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_solve_writes_artifacts(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(solve_args("quadratic-saddle", out,
                           ["--iters", "50", "--method", "OGDA"]))
    assert code == 0
    names = sorted(os.listdir(out))
    assert "config.json" in names
    assert "summary.json" in names
    assert "quadratic-saddle-OGDA.csv" in names
    assert "quadratic-saddle-reference.json" in names
    summary = read_json(out, "summary.json")
    runs = summary["runs"]
    assert len(runs) == 1
    entry = runs[0]
    for key in ("method", "alpha", "iterations", "gradient_calls",
                "wall_time_s", "final_vi_residual"):
        assert key in entry
    assert entry["method"] == "OGDA"
    stdout = capsys.readouterr().out
    assert "OGDA" in stdout


def test_solve_csv_has_expected_columns(tmp_path):
    out = str(tmp_path / "run")
    main(solve_args("quadratic-saddle", out,
                    ["--iters", "20", "--method", "OGDA"]))
    path = os.path.join(out, "quadratic-saddle-OGDA.csv")
    header = csv_header(path).split(",")
    assert header[:3] == ["iter", "f_value", "vi_residual"]
    assert "ergodic_gap" in header
    assert "delta_k" in header


def test_solve_network_preset_csv(tmp_path):
    out = str(tmp_path / "run")
    code = main(solve_args("consensus5", out,
                           ["--iters", "100", "--method", "EG",
                            "--stop-tol", "0"]))
    assert code == 0
    path = os.path.join(out, "consensus5-EG.csv")
    header = csv_header(path)
    assert header == "iter,agent_id,x0,v0,consensus_residual,objective_sum"


def test_solve_is_bitwise_deterministic(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    extra = ["--iters", "200", "--method", "OGDA", "--method", "EG"]
    assert main(solve_args("example1", out1, extra)) == 0
    assert main(solve_args("example1", out2, extra)) == 0
    for name in ("example1-OGDA.csv", "example1-EG.csv"):
        b1 = read_bytes(out1, name)
        b2 = read_bytes(out2, name)
        assert b1 == b2


def test_solve_seed_changes_trace(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    extra = ["--iters", "50", "--method", "OGDA"]
    main(solve_args("example1", out1, extra))
    main(solve_args("example1", out2, extra + ["--seed", "1"]))
    b1 = read_bytes(out1, "example1-OGDA.csv")
    b2 = read_bytes(out2, "example1-OGDA.csv")
    assert b1 != b2


def test_config_file_equivalent_to_flags(tmp_path):
    cfg = {"preset": "quadratic-saddle", "methods": ["OGDA"], "iters": 40,
           "out": str(tmp_path / "c")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(path)]) == 0
    flag_out = str(tmp_path / "d")
    main(solve_args("quadratic-saddle", flag_out, ["--iters", "40",
                                                   "--method", "OGDA"]))
    b1 = read_bytes(cfg["out"], "quadratic-saddle-OGDA.csv")
    b2 = read_bytes(flag_out, "quadratic-saddle-OGDA.csv")
    assert b1 == b2


@pytest.mark.parametrize("preset", ["consensus5", "allocation3"])
def test_paper_step_on_a_network_preset(tmp_path, preset):
    # the paper's 0.01 is checked against the stacked problem's declared
    # constant (kappa_c resp. kappa_s) and is below both methods' bounds
    cfg = {"preset": preset, "alpha": "paper", "iters": 50,
           "out": str(tmp_path / "run")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(path)]) == 0
    runs = read_json(cfg["out"], "summary.json")["runs"]
    assert [r["method"] for r in runs] == ["OGDA", "EG"]
    assert [r["alpha"] for r in runs] == [0.01, 0.01]


def test_list_presets_names_everything(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS:
        assert name in out


def test_verify_passes_on_fast_preset(tmp_path, capsys):
    code = main(["verify", "--preset", "quadratic-saddle",
                 "--out", str(tmp_path / "v")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"]
    names = [c["check"] for c in report["checks"]]
    assert "monotonicity" in names
    assert "rate_certificate_OGDA" in names
    for check in report["checks"]:
        assert check["passed"], check["check"]


def test_verify_fails_on_corrupted_gradient(tmp_path, capsys):
    code = main(["verify", "--preset", "consensus5-badgrad",
                 "--out", str(tmp_path / "v")])
    assert code == 3
    report = json.loads(capsys.readouterr().out)
    assert not report["passed"]
    failed = [c["check"] for c in report["checks"] if not c["passed"]]
    assert failed == ["gradient_finite_diff"]


def test_verify_fails_when_one_agent_is_one_ulp_off(tmp_path, capsys,
                                                   monkeypatch):
    # negative control for the exact stacked-versus-per-agent rule: agent
    # 0 of the 5-ring nudges every operator value it computes by one ULP
    roles = network._consensus_roles
    calls = itertools.count()

    def nudged_roles(spec, m):
        payload, local = roles(spec, m)
        if next(calls) % 5:
            return payload, local

        def nudged(w, s, out):
            local(w, s, out)
            np.nextafter(out, np.inf, out=out)

        return payload, nudged

    monkeypatch.setattr(network, "_consensus_roles", nudged_roles)
    code = main(["verify", "--preset", "consensus5",
                 "--out", str(tmp_path / "v")])
    assert code == 3
    report = json.loads(capsys.readouterr().out)
    failed = {c["check"]: c["margin"] for c in report["checks"]
              if not c["passed"]}
    assert sorted(failed) == ["distributed_stacked_equivalence_EG",
                              "distributed_stacked_equivalence_OGDA"]
    assert all(dev > 0.0 for dev in failed.values())


@pytest.mark.parametrize("preset", ["quadratic-saddle", "allocation3"])
def test_verify_draws_its_sampled_pairs_once(tmp_path, capsys, monkeypatch,
                                             preset):
    # both sampled checks read one draw and report what `check_monotone`
    # and `estimate_kappa` report at the run's seed
    draws = []

    def counted(problem, n_pairs, seed):
        draws.append((n_pairs, seed))
        return core._sampled_pairs(problem, n_pairs, seed)

    monkeypatch.setattr(harness, "_sampled_pairs", counted)
    code = main(["verify", "--preset", preset, "--seed", "3",
                 "--out", str(tmp_path / "v")])
    assert code == 0
    assert draws == [(1000, 3)]
    margins = {c["check"]: c["margin"]
               for c in json.loads(capsys.readouterr().out)["checks"]}
    problem = PRESETS[preset]["build"](3)
    if PRESETS[preset]["kind"] == "allocation":
        problem = allocation.as_saddle_problem(problem)
    mono = core.check_monotone(problem, n_pairs=1000, seed=3)
    kappa = core.estimate_kappa(problem, n_pairs=1000, seed=3)
    assert margins["monotonicity"] == mono["min_inner"]
    assert margins["lipschitz_bound"] == kappa["kappa_m"] - kappa["max_ratio"]


def test_verify_takes_its_finite_differences_from_its_draw(tmp_path, capsys,
                                                          monkeypatch):
    # the finite-difference points are the first 100 of the sampled pairs'
    # first stack, and F is evaluated on all of them in one call: the two
    # draws and two evaluations of the pairs, one for the finite
    # differences and one for the OGDA descent diagnostic
    draws, calls = [], []
    sample_points, operator_F = sets.sample_points, core.operator_F

    def counted_draw(cset, count, rng):
        draws.append(count)
        return sample_points(cset, count, rng)

    def counted_call(problem, z):
        calls.append(np.shape(z))
        return operator_F(problem, z)

    monkeypatch.setattr(sets, "sample_points", counted_draw)
    for module in (core, harness, solvers):
        assert module.operator_F is operator_F
        monkeypatch.setattr(module, "operator_F", counted_call)
    code = main(["verify", "--preset", "example2", "--seed", "3",
                 "--out", str(tmp_path / "v")])
    assert code == 0
    dim = allocation.as_saddle_problem(PRESETS["example2"]["build"](3)).dim
    assert draws == [1000, 1000]
    assert calls == [(1000, dim), (1000, dim), (100, dim), (1001, dim)]
    fd = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert fd["gradient_finite_diff"]["passed"]


def test_verify_report_lists_margins(tmp_path, capsys):
    code = main(["verify", "--preset", "quadratic-saddle",
                 "--out", str(tmp_path / "v")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    for check in report["checks"]:
        assert "margin" in check or "measured" in check


@pytest.mark.parametrize("flag", [
    ["--iters", "5"], ["--method", "GDA"], ["--alpha", "0.01"],
    ["--record-every", "2"], ["--stop-tol", "0.1"],
])
def test_verify_rejects_run_flags(tmp_path, capsys, flag):
    # verify runs a fixed protocol; an option it would ignore is an error
    out = str(tmp_path / "v")
    with pytest.raises(SystemExit) as err:
        main(["verify", "--preset", "quadratic-saddle", "--out", out] + flag)
    assert err.value.code == 1
    assert flag[0] in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("key, value", [
    ("methods", ["OGDA"]), ("alpha", 0.01), ("iters", 5),
    ("record_every", 2), ("stop_tol", 0.1),
])
def test_verify_config_rejects_run_keys(tmp_path, capsys, key, value):
    cfg = {"preset": "quadratic-saddle", "out": str(tmp_path / "v"),
           key: value}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(path)]) == 1
    assert "config key '{}'".format(key) in capsys.readouterr().err
    assert not os.path.exists(cfg["out"])


def test_verify_config_file_equivalent_to_flags(tmp_path):
    cfg = {"preset": "quadratic-saddle", "seed": 3, "out": str(tmp_path / "c")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(path)]) == 0
    flag_out = str(tmp_path / "d")
    assert main(["verify", "--preset", "quadratic-saddle", "--seed", "3",
                 "--out", flag_out]) == 0
    assert (read_bytes(cfg["out"], "verify.json")
            == read_bytes(flag_out, "verify.json"))


def test_solve_rejects_bad_alpha(tmp_path, capsys):
    code = main(solve_args("example1", str(tmp_path / "r"),
                           ["--alpha", "0.5", "--method", "OGDA"]))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cmd_solve_accepts_resolved_config(tmp_path):
    cfg = resolve_config({"preset": "quadratic-saddle", "iters": 10,
                          "out": str(tmp_path / "direct")})
    assert cmd_solve(cfg) == 0
    assert os.path.exists(os.path.join(cfg["out"], "summary.json"))


def test_preset_table_is_complete():
    for name, preset in PRESETS.items():
        assert preset["kind"] in ("saddle", "consensus", "allocation")
        assert callable(preset["build"])
        assert preset["methods"]
        assert "description" in preset


@pytest.mark.parametrize("bad, key", [
    ({"iters": {"OGDA": -5}}, "iters"),
    ({"iters": {"FOO": 10}}, "iters"),
    ({"iters": {}}, "iters"),
    ({"iters": {"OGDA": 2.5}}, "iters"),
    ({"iters": {"OGDA": True}}, "iters"),
    ({"iters": 2.5}, "iters"),
    ({"iters": True}, "iters"),
    ({"iters": "many"}, "iters"),
    ({"alpha": "fast"}, "alpha"),
    ({"alpha": float("nan")}, "alpha"),
    ({"stop_tol": "nan"}, "stop_tol"),
    ({"stop_tol": float("nan")}, "stop_tol"),
    ({"stop_tol": float("inf")}, "stop_tol"),
    ({"seed": True}, "seed"),
    ({"seed": -1}, "seed"),
    ({"record_every": True}, "record_every"),
    ({"methods": "OGDA"}, "methods"),
])
def test_bad_config_exits_1_naming_the_key(tmp_path, capsys, bad, key):
    cfg = {"preset": "quadratic-saddle", "methods": ["OGDA"],
           "out": str(tmp_path / "run"), **bad}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config key '{}'".format(key) in err
    assert not os.path.exists(cfg["out"])


@pytest.mark.parametrize("bad, key", [
    ({"preset": ["example1"]}, "preset"),
    ({"preset": {"a": 1}}, "preset"),
    ({"out": 5}, "out"),
    ({"out": ["x"]}, "out"),
])
def test_non_string_preset_or_out_exits_1_naming_the_key(tmp_path, capsys,
                                                         monkeypatch, bad, key):
    # a relative output directory would land in tmp_path, beside the config
    monkeypatch.chdir(tmp_path)
    cfg = {"preset": "quadratic-saddle", "methods": ["OGDA"], **bad}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["solve", "--config", "cfg.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key '{}'".format(key))
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert os.listdir(tmp_path) == ["cfg.json"]


RUN_KEYS = {"method", "alpha", "iterations", "stopped_at", "gradient_calls",
            "wall_time_s", "final_vi_residual", "trace_csv"}


@pytest.mark.parametrize("preset, extra", [
    ("quadratic-saddle", {"final_f", "final_f_gap"}),
    ("consensus5", {"final_objective", "final_consensus_residual"}),
    ("allocation3", {"final_objective", "final_feasibility_gap",
                     "dual_consensus"}),
])
def test_summary_run_entry_keys(tmp_path, preset, extra):
    out = str(tmp_path / "run")
    assert main(solve_args(preset, out, ["--iters", "20"])) == 0
    summary = read_json(out, "summary.json")
    assert set(summary) == {"preset", "seed", "runs"}
    assert [r["method"] for r in summary["runs"]] == PRESETS[preset]["methods"]
    for entry in summary["runs"]:
        assert set(entry) == RUN_KEYS | extra


REFERENCE_KEYS = {
    "quadratic-saddle": {"z_star", "f_star", "vi_residual"},
    "consensus5": {"x_bar", "x", "v", "objective", "cone_residual",
                   "saddle_residual"},
    "allocation3": {"y", "mu", "a", "lam", "objective", "feasibility",
                    "stationarity_gap", "saddle_residual"},
}


@pytest.mark.parametrize("preset", sorted(REFERENCE_KEYS))
def test_reference_json_keys(tmp_path, preset):
    out = str(tmp_path / "run")
    assert main(solve_args(preset, out, ["--iters", "5"])) == 0
    reference = read_json(out, "{}-reference.json".format(preset))
    assert set(reference) == REFERENCE_KEYS[preset]


@pytest.mark.parametrize("preset, module, name", [
    ("consensus5", consensus, "simulate_consensus"),
    ("allocation3", allocation, "simulate_allocation"),
])
def test_solve_calls_the_simulate_function_it_finds_at_call_time(
        tmp_path, monkeypatch, preset, module, name):
    # a tracer or a test replaces the module attribute; solve must run
    # the replacement, not a function object captured at import
    original = getattr(module, name)
    calls = []

    def replaced(*args, **kwargs):
        calls.append(kwargs["max_iters"])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, replaced)
    out = str(tmp_path / "run")
    assert main(solve_args(preset, out, ["--iters", "7"])) == 0
    assert calls == [7] * len(PRESETS[preset]["methods"])


def test_verify_replay_calls_agent_gradients_once_per_distinct_point(
        tmp_path, capsys, monkeypatch):
    # most example2 decisions sit on their box bounds, so the replayed
    # rows repeat; each (agent, y_i) bit pattern of a replayed stack
    # must reach the agent's gradient exactly once
    calls = []
    roles = network._allocation_roles

    def counted_roles(spec, m):
        spec, grad = copy.copy(spec), spec.gradient
        spec.gradient = lambda y: calls.append(1) or grad(y)
        return roles(spec, m)

    replayed = []
    replay = network._Simulator.replay

    def recorded(sim, trace):
        replayed.append((sim.problem, trace))
        return replay(sim, trace)

    monkeypatch.setattr(network, "_allocation_roles", counted_roles)
    monkeypatch.setattr(network._Simulator, "replay", recorded)
    code = main(["verify", "--preset", "example2", "--seed", "3",
                 "--out", str(tmp_path / "v")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    margins = {c["check"]: c["margin"] for c in report["checks"]}
    assert margins["distributed_stacked_equivalence_OGDA"] == 0.0
    assert margins["distributed_stacked_equivalence_EG"] == 0.0
    # OGDA steps from the recorded iterates; EG probes from them and
    # commits from the recorded mid-points
    distinct = 0
    for prob, trace in replayed:
        stacks = [trace.z[:-1]]
        if trace.method == "EG":
            stacks.append(trace.z_half[1:])
        for rows in stacks:
            for sl in prob._agent_slices:
                distinct += len({r.tobytes() for r in rows[:, sl]})
    assert [t.method for _, t in replayed] == ["OGDA", "EG"]
    assert len(calls) == distinct == 10670
