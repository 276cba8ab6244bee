import csv
import functools
import json
import math
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import rieszfield
from rieszfield import cli, equilibrium
from rieszfield.constants import riesz_constant
from rieszfield.equilibrium import EquilibriumError, solve_equilibrium
from rieszfield.fields import field_from_descriptor
from rieszfield.geometry import set_from_descriptor

RUN_FILES = ("points.csv", "density.csv", "trace.csv", "report.json", "scatter.svg")


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _tiny_config(tmp_path, **overrides):
    cfg = {
        "set": {"kind": "interval", "a": 0.0, "b": 2.0},
        "field": {"kind": "catalog", "id": "e"},
        "s": 4.0,
        "n": 20,
        "seed": 0,
        "settings": {"max_iters": 60, "restarts": 1},
    }
    cfg.update(overrides)
    return _write_json(tmp_path / "run.json", cfg)


def test_constants_known(capsys):
    assert cli.main(["constants", "--s", "2", "--d", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == math.pi
    assert out["provenance"] == "exact_ball_volume"
    assert out["m_sd"] == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_constants_unknown(capsys):
    assert cli.main(["constants", "--s", "3.5", "--d", "3"]) == 2
    err = capsys.readouterr().err
    assert "no known constant" in err
    assert "user_override" in err


def test_constants_override(capsys):
    assert cli.main(["constants", "--s", "3.5", "--d", "3", "--override", "7.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == 7.0
    assert out["provenance"] == "user_override"


def test_constants_subcritical(capsys):
    assert cli.main(["constants", "--s", "1", "--d", "2"]) == 2
    assert "hypersingular regime requires s >= d" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["--s", "inf"], ["--s", "nan", "--override", "2"]])
def test_constants_non_finite_s(capsys, extra):
    assert cli.main(["constants", "--d", "1", *extra]) == 2
    assert "s must be finite" in capsys.readouterr().err


def test_solve_end_to_end(tmp_path, capsys, validate_report_schema):
    out = tmp_path / "run"
    code = cli.main(["solve", _tiny_config(tmp_path), "--out", str(out)])
    assert code == 0
    for name in RUN_FILES:
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    validate_report_schema(report)
    assert report["l1"] == pytest.approx(5.957351854617, abs=1e-3)
    assert report["n_points"] == 20
    assert report["comparison"] is None
    assert sorted(report["files"]) == sorted(RUN_FILES)
    assert report["solver_info"]["stop_reason"] == "tol"
    assert report["energy_over_tau"] == report["diagnostics"]["energy_ratio"]
    timings = report["timings"]
    assert set(timings) == {"equilibrium_s", "minimize_s", "diagnostics_s"}
    assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
    # descriptors written to the report must round trip through the loaders
    cset = set_from_descriptor(report["set"])
    assert cset.kind == "interval"
    stdout = capsys.readouterr().out
    assert "L1 = " in stdout and "report:" in stdout


def test_solve_config_out_dir_and_c_override(tmp_path, capsys, monkeypatch):
    # out_dir stands in for a missing --out; c_override replaces C(s, d)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "from-config"
    assert cli.main(["solve", _tiny_config(tmp_path, out_dir=str(out), c_override=3.5)]) == 0
    constants = json.loads((out / "report.json").read_text())["constants"]
    assert (constants["c_sd"], constants["provenance"]) == (3.5, "user_override")
    assert not (tmp_path / "riesz-run").exists()
    _no_solve(monkeypatch)
    for bad in (0.0, -1.0):
        assert cli.main(["solve", _tiny_config(tmp_path, c_override=bad)]) == 2
        assert "constant must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_bad_override_is_named(tmp_path, capsys, monkeypatch, bad):
    # the message calls it the C(s, d) override and prints its value
    message = f"C(s, d) override: constant must be finite and positive, got {bad!r}"
    assert cli.main(["constants", "--s", "4", "--d", "1", "--override", str(bad)]) == 2
    assert message in capsys.readouterr().err
    _no_solve(monkeypatch)
    assert cli.main(["solve", _tiny_config(tmp_path, c_override=bad)]) == 2
    assert message in capsys.readouterr().err
    set_json = _write_json(tmp_path / "set.json", {"kind": "interval", "a": 0.0, "b": 1.0})
    rho_json = _write_json(tmp_path / "rho.json", {"kind": "uniform"})
    argv = ["design", set_json, rho_json, "--s", "4", "--override", str(bad), "--out", str(tmp_path / "d.json")]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


def test_designed_field_uses_c_override(tmp_path):
    # a designed field built with the run's C(s, d) has L1 = 0 under an override too
    out = tmp_path / "run"
    cfg = _tiny_config(
        tmp_path,
        set={"kind": "interval", "a": 0.0, "b": 1.0},
        field={"kind": "designed", "rho": {"kind": "uniform"}},
        c_override=3.0,
    )
    assert cli.main(["solve", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["constants"]["c_sd"] == 3.0
    assert abs(report["l1"]) < 1e-8


def test_solve_byte_determinism(tmp_path):
    cfg = _tiny_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["solve", cfg, "--out", str(a)]) == 0
    assert cli.main(["solve", cfg, "--out", str(b)]) == 0
    assert (a / "points.csv").read_bytes() == (b / "points.csv").read_bytes()
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


def test_solve_rejects_subcritical(tmp_path, capsys):
    cfg = _tiny_config(
        tmp_path,
        set={"kind": "sphere", "radius": 1.0},
        field={"kind": "catalog", "id": "a"},
        s=1.0,
    )
    assert cli.main(["solve", cfg]) == 2
    err = capsys.readouterr().err
    assert "hypersingular regime requires s >= d; got s=1 on a set of dimension d=2" in err


def test_solve_missing_key(tmp_path, capsys):
    cfg = {"set": {"kind": "interval", "a": 0, "b": 1}, "s": 2.0, "n": 5}
    assert cli.main(["solve", _write_json(tmp_path / "c.json", cfg)]) == 2
    assert "missing required key 'field'" in capsys.readouterr().err


def test_solve_missing_n(tmp_path, capsys):
    cfg = {
        "set": {"kind": "interval", "a": 0, "b": 1},
        "field": {"kind": "catalog", "id": "e"},
        "s": 2.0,
    }
    assert cli.main(["solve", _write_json(tmp_path / "c.json", cfg)]) == 2
    assert "missing required key 'n'" in capsys.readouterr().err


def test_solve_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["solve", str(bad)]) == 2
    assert "cannot parse" in capsys.readouterr().err


def test_solve_bad_set_kind(tmp_path, capsys):
    cfg = _tiny_config(tmp_path, set={"kind": "moebius"})
    assert cli.main(["solve", cfg]) == 2
    assert "bad set descriptor" in capsys.readouterr().err


def test_solve_rejects_builtin_node_count(tmp_path, capsys):
    # the built-in sets fix their quadrature; a node count is an unknown key
    cfg = _tiny_config(
        tmp_path,
        set={"kind": "sphere", "radius": 1.0, "n_theta": 48},
        field={"kind": "catalog", "id": "a"},
        s=2.0,
    )
    assert cli.main(["solve", cfg]) == 2
    assert "bad set descriptor" in capsys.readouterr().err


def test_solve_bad_settings(tmp_path, capsys):
    cfg = _tiny_config(tmp_path, settings={"max_iters": 60, "armijo_c": 0.9})
    assert cli.main(["solve", cfg]) == 2
    assert "bad optimizer settings" in capsys.readouterr().err


def _no_solve(monkeypatch):
    def no_solve(*a, **kw):
        raise AssertionError("the solve started before validation")

    monkeypatch.setattr(cli, "solve_equilibrium", no_solve)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"settings": "fast"}, "bad optimizer settings: settings must be an object, got 'fast'"),
        ({"settings": [["max_iters", 60]]}, "settings must be an object, got [['max_iters', 60]]"),
        ({"s": [4]}, "s must be a number, got [4]"),
        ({"s": "four"}, "s must be a number, got 'four'"),
        # the descent's gradient tolerance is fixed
        ({"settings": {"grad_tol": 1e-3}}, "unexpected keyword argument 'grad_tol'"),
        ({"settings": {"init": "density"}}, "bad optimizer settings: unknown init mode 'density'"),
        # a field designed at s = 4 does not run at s = 2
        (
            {"field": {"kind": "designed", "rho": {"kind": "uniform"}, "s": 4.0}, "s": 2.0},
            "bad field descriptor: designed field descriptor was designed at s = 4.0, but the run has s = 2.0",
        ),
    ],
)
def test_solve_names_malformed_value(tmp_path, capsys, monkeypatch, overrides, message):
    _no_solve(monkeypatch)
    out = tmp_path / "run"
    assert cli.main(["solve", _tiny_config(tmp_path, **overrides), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("label", [5, None, ["a"]])
def test_solve_rejects_non_string_label(tmp_path, capsys, monkeypatch, label):
    # report.json types label as a string
    _no_solve(monkeypatch)
    out = tmp_path / "run"
    assert cli.main(["solve", _tiny_config(tmp_path, label=label), "--out", str(out)]) == 2
    assert f"label must be a string, got {label!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"n": 20.7}, "n"),
        ({"settings": {"max_iters": 10.5, "restarts": 1}}, "max_iters"),
        ({"settings": {"max_iters": 60, "restarts": 1.5}}, "restarts"),
        ({"seed": 0.5}, "seed"),
    ],
)
def test_solve_rejects_fractional_count(tmp_path, capsys, monkeypatch, overrides, key):
    _no_solve(monkeypatch)
    cfg = _tiny_config(tmp_path, **overrides)
    assert cli.main(["solve", cfg, "--out", str(tmp_path / "run")]) == 2
    assert f"{key} must be a whole number" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_solve_rejects_non_finite_s(tmp_path, capsys, monkeypatch):
    # an infinite s passes the s >= d check; the equilibrium solve would hang
    _no_solve(monkeypatch)
    cfg = _tiny_config(tmp_path, s=math.inf)
    assert cli.main(["solve", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "s must be finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        ("solve", {"set": "sphere"}, "bad set descriptor: set descriptor must be a JSON object, got 'sphere'"),
        ("solve", {"field": ["catalog"]}, "bad field descriptor: field descriptor must be a JSON object"),
        ("solve", {"field": {"kind": "designed", "rho": "uniform"}},
         "bad field descriptor: density descriptor must be a JSON object, got 'uniform'"),
        ("solve", {"field": {"kind": "expression", "terms": ["x"]}},
         "bad field descriptor: expression term must be a JSON object, got 'x'"),
        ("design", {"set": "sphere"}, "bad set descriptor: set descriptor must be a JSON object, got 'sphere'"),
        ("design", {"rho": [1, 2]}, "density descriptor must be a JSON object, got [1, 2]"),
    ],
    ids=["solve-set", "solve-field", "solve-designed-rho", "solve-expression-term", "design-set", "design-rho"],
)
def test_non_object_descriptor_rejected(tmp_path, capsys, monkeypatch, command, overrides, message):
    _no_solve(monkeypatch)
    out = tmp_path / "out"
    if command == "solve":
        argv = ["solve", _tiny_config(tmp_path, **overrides)]
    else:
        files = {"set": {"kind": "interval", "a": 0.0, "b": 2.0}, "rho": {"kind": "uniform"}} | overrides
        argv = ["design", *(_write_json(tmp_path / f"{key}.json", files[key]) for key in ("set", "rho")), "--s", "4"]
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_solve_rejects_non_object_config(tmp_path, capsys):
    cfg = _write_json(tmp_path / "run.json", [{"set": {"kind": "interval", "a": 0.0, "b": 2.0}}])
    assert cli.main(["solve", cfg]) == 2
    assert f"{cfg}: run config must be a JSON object" in capsys.readouterr().err


def test_negative_seed_rejected_before_run(recorded_runs, capsys):
    assert cli.main(["reproduce", "e", "--seed", "-3"]) == 2
    assert recorded_runs == []
    assert "bad optimizer settings: rng_seed must be non-negative, got -3" in capsys.readouterr().err


def test_solve_warns_on_budget_stop(tmp_path, capsys, monkeypatch, validate_report_schema):
    # a node budget below the initial rule's 192 nodes: the run completes
    # on a rule that never met tol, and says so
    monkeypatch.setattr(cli, "solve_equilibrium", functools.partial(solve_equilibrium, budget=100))
    out = tmp_path / "run"
    assert cli.main(["solve", _tiny_config(tmp_path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    validate_report_schema(report)
    assert report["solver_info"]["stop_reason"] == "budget"
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1
    assert "stopped on budget" in warnings[0]


def test_design_warns_on_budget_stop(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "solve_equilibrium", functools.partial(solve_equilibrium, budget=100))
    set_json = _write_json(tmp_path / "set.json", {"kind": "interval", "a": 0.0, "b": 2.0})
    rho_json = _write_json(tmp_path / "rho.json", {"kind": "uniform"})
    code = cli.main(["design", set_json, rho_json, "--s", "4", "--out", str(tmp_path / "design.json")])
    assert code == 0
    assert "warning: equilibrium solve stopped on budget" in capsys.readouterr().err


def test_design_fails_on_unresolved_integral(tmp_path, capsys, monkeypatch):
    # the target's mass from an integral that stopped on its node budget
    # is not used as if it were exact
    monkeypatch.setattr(equilibrium, "_NODE_BUDGET", 100)
    set_json = _write_json(tmp_path / "set.json", {"kind": "interval", "a": 0.0, "b": 2.0})
    # sqrt|x - 0.7|: a kink between quadrature nodes
    rho = {"kind": "expression", "terms": [{"type": "radial", "center": [0.7], "exponent": 0.5}]}
    rho_json = _write_json(tmp_path / "rho.json", rho)
    out = tmp_path / "design.json"
    assert cli.main(["design", set_json, rho_json, "--s", "4", "--out", str(out)]) == 3
    assert "solver failure: adaptive integral stopped on budget" in capsys.readouterr().err
    assert not out.exists()


def test_solve_small_n_bins_density(tmp_path, validate_report_schema):
    # density.csv has one format at any N: 8 points in ceil(sqrt(8)) = 3 bins
    out = tmp_path / "run"
    assert cli.main(["solve", _tiny_config(tmp_path, n=8), "--out", str(out)]) == 0
    for name in RUN_FILES:
        assert (out / name).exists(), name
    with open(out / "density.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "count", "empirical_density", "equilibrium_density"]
    assert len(rows) == 4
    assert sum(int(r[1]) for r in rows[1:]) == 8
    report = json.loads((out / "report.json").read_text())
    validate_report_schema(report)
    assert report["n_points"] == 8


def test_solver_failure_exit_code(tmp_path, capsys, monkeypatch):
    def boom(*a, **kw):
        raise EquilibriumError("mass equation did not bracket")

    monkeypatch.setattr(cli, "solve_equilibrium", boom)
    assert cli.main(["solve", _tiny_config(tmp_path)]) == 3
    assert "mass equation" in capsys.readouterr().err


def test_io_failure_exit_code(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    cfg = _tiny_config(tmp_path)
    assert cli.main(["solve", cfg, "--out", str(blocker / "sub")]) == 4
    assert capsys.readouterr().err != ""


def test_design_round_trip(tmp_path, capsys):
    set_json = _write_json(tmp_path / "set.json", {"kind": "interval", "a": 0.0, "b": 2.0})
    rho_json = _write_json(tmp_path / "rho.json", {"kind": "uniform"})
    out = tmp_path / "design.json"
    code = cli.main(["design", set_json, rho_json, "--s", "4", "--out", str(out)])
    assert code == 0
    desc = json.loads(out.read_text())
    assert desc["field"]["kind"] == "designed"
    assert desc["field"]["s"] == 4.0
    assert abs(desc["round_trip"]["l1"]) < 1e-8
    assert desc["round_trip"]["max_rel_density_error"] < 1e-6
    assert desc["renormalized"] is False
    # the emitted descriptor must load as a usable field
    cset = set_from_descriptor(json.loads(Path(set_json).read_text()))
    fld = field_from_descriptor(desc["field"], cset, c_sd=riesz_constant(desc["field"]["s"], cset.hausdorff_dim))
    vals = fld.evaluate(cset.nodes)
    assert np.allclose(vals, vals[0])  # uniform target: constant q
    stdout = capsys.readouterr().out
    assert "designed field" in stdout and "round trip" in stdout


def test_design_rejects_unnormalized(tmp_path, capsys):
    set_json = _write_json(tmp_path / "set.json", {"kind": "interval", "a": 0.0, "b": 1.0})
    # 1 - ((x - 0.5) / 0.5)^2 integrates to 2/3, not 1
    rho_json = _write_json(
        tmp_path / "rho.json",
        {"kind": "truncated_quadratic", "center": 0.5, "halfwidth": 0.5},
    )
    assert cli.main(["design", set_json, rho_json, "--s", "2"]) == 2
    err = capsys.readouterr().err
    assert "integrates to" in err and "normalize" in err


def test_design_rejects_vanishing(tmp_path, capsys):
    set_json = _write_json(tmp_path / "set.json", {"kind": "interval", "a": 0.0, "b": 1.0})
    rho_json = _write_json(
        tmp_path / "rho.json",
        {"kind": "truncated_quadratic", "center": 5.0, "halfwidth": 0.5},
    )
    assert cli.main(["design", set_json, rho_json, "--s", "2"]) == 2
    assert capsys.readouterr().err != ""


def test_design_rejects_subcritical(tmp_path, capsys):
    set_json = _write_json(tmp_path / "set.json", {"kind": "sphere", "radius": 1.0})
    rho_json = _write_json(tmp_path / "rho.json", {"kind": "uniform"})
    assert cli.main(["design", set_json, rho_json, "--s", "1"]) == 2
    assert "hypersingular" in capsys.readouterr().err


def test_reproduce_reduced(tmp_path, capsys, validate_report_schema):
    out = tmp_path / "rep"
    code = cli.main([
        "reproduce", "e", "--out", str(out), "--n", "24", "--iters", "60", "--seed", "0",
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    validate_report_schema(report)
    comp = report["comparison"]
    assert comp is not None
    assert comp["published_n"] == 500
    assert comp["run_n"] == 24
    assert comp["reduced_n"] is True
    assert "separation" in comp["checks"]
    for chk in comp["checks"].values():
        assert set(chk) >= {"published", "computed", "within"}
    stdout = capsys.readouterr().out
    assert "PASS" in stdout or "FAIL" in stdout


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--n", "need at least 2 points"),
        ("--iters", "bad optimizer settings"),
    ],
)
def test_reproduce_zero_override_rejected(tmp_path, capsys, flag, message):
    # 0 is an override like any other, not a request for the default
    assert cli.main(["reproduce", "e", "--out", str(tmp_path / "rep"), flag, "0"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


# example: (n, max_iters, init, restarts, published_n, published window names)
BUNDLED = {
    "a": (1000, 1500, "stratified", 1, 1000, ["separation", "mesh_ratio_mid", "mesh_ratio_polar"]),
    "b": (200, 3000, "stratified", 1, 500, ["separation"]),
    "c": (500, 2000, "stratified", 3, 500, ["separation"]),
    "d": (1000, 1500, "stratified", 1, 1000, ["separation", "void_avoidance"]),
    "e": (200, 5000, "stratified", 1, 500, ["separation", "histogram_sup_dev"]),
}


@pytest.mark.parametrize("example", sorted(BUNDLED))
def test_bundled_example_reaches_run(recorded_runs, example):
    n, max_iters, init, restarts, published_n, windows = BUNDLED[example]
    assert cli.main(["reproduce", example]) == 0
    (run,) = recorded_runs
    assert run["n"] == n
    assert run["settings"] == cli.OptimizerSettings(
        max_iters=max_iters, restarts=restarts, rng_seed=0, init=init
    )
    assert run["label"] == f"catalog field {example}, n = {n}"
    assert run["out_dir"] == f"riesz-reproduce-{example}"
    assert run["entry"]["published_n"] == published_n
    assert list(run["entry"]["published"]) == windows


def test_reproduce_overrides_reach_run(tmp_path, recorded_runs):
    out = str(tmp_path / "rep")
    assert cli.main(["reproduce", "e", "--out", out, "--n", "24", "--iters", "60", "--seed", "3"]) == 0
    assert cli.main(["reproduce", "e"]) == 0
    over, default = recorded_runs
    assert over["n"] == 24
    assert over["settings"] == cli.OptimizerSettings(max_iters=60, restarts=1, rng_seed=3, init="stratified")
    assert over["label"] == "catalog field e, n = 24"
    assert over["out_dir"] == out
    # the overrides apply to a copy: the bundled defaults stay as they were
    assert default["n"] == 200
    assert default["settings"] == cli.OptimizerSettings(max_iters=5000, restarts=1, rng_seed=0, init="stratified")


def test_window_rule_edges():
    # a relative window holds up to rel_tol on either side and not one ulp
    # further; an upper-bound window holds at its value and not one ulp above
    rel = {"value": 1.0, "rel_tol": 0.25}
    for edge, outward in ((1.25, 2.0), (0.75, 0.0)):
        assert cli._check(rel, edge) == {"published": 1.0, "computed": edge, "rel_tol": 0.25, "within": True}
        assert cli._check(rel, np.nextafter(edge, outward))["within"] is False
    bound = {"value": 0.127}
    assert cli._check(bound, 0.127) == {"published": 0.127, "computed": 0.127, "within": True}
    assert cli._check(bound, np.nextafter(0.127, 1.0))["within"] is False


def test_void_check_holds_at_equality():
    # points at exactly the published field level avoid the void
    level = 0.127
    entry = {"published_n": 4, "published": {"void_avoidance": {"value": level}}}
    config = types.SimpleNamespace(points=np.zeros((4, 1)), n=4)
    measure = types.SimpleNamespace(field=types.SimpleNamespace(evaluate=lambda X: np.full(len(X), level)))
    report = types.SimpleNamespace(separation=0.5)
    table = {"density": np.ones(2)}
    comparison = cli._compare(entry, measure, config, report, table, np.ones(2))
    assert comparison["checks"] == {"void_avoidance": {"published": level, "computed": level, "within": True}}
    assert comparison["all_within"] is True


def test_reproduce_unknown_example():
    with pytest.raises(SystemExit) as exc:
        cli.main(["reproduce", "z"])
    assert exc.value.code == 2


def _subprocess_env():
    """os.environ with this package's source on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(rieszfield.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _declared_scripts():
    """The [project.scripts] table of this checkout's pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"].get("scripts", {})


def _assert_constants_s4_d1(res):
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["value"] == pytest.approx(2.0 * float(np.pi**4 / 90.0), rel=1e-12)


def test_console_entry_point(tmp_path):
    # Run the declared entry point the way the console script pip generates
    # does: a fresh interpreter imports the target (rieszfield/__init__ first,
    # then the module), renames argv[0], and exits with main()'s return value.
    assert _declared_scripts().get("rieszfield") == "rieszfield.cli:main"
    launcher = (
        "import sys\n"
        "from rieszfield.cli import main\n"
        "sys.argv[0] = 'rieszfield'\n"
        "sys.exit(main())\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", launcher, "constants", "--s", "4", "--d", "1"],
        capture_output=True, text=True, env=_subprocess_env(), cwd=tmp_path,
    )
    _assert_constants_s4_d1(res)


@pytest.mark.skipif(
    shutil.which("rieszfield") is None, reason="rieszfield console script not installed"
)
def test_installed_console_script():
    res = subprocess.run(
        ["rieszfield", "constants", "--s", "4", "--d", "1"],
        capture_output=True, text=True,
    )
    _assert_constants_s4_d1(res)
