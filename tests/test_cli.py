import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rieszfield
from rieszfield import cli
from rieszfield.equilibrium import EquilibriumError
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
        "mode": "fast",
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
    assert report["mode"] == "fast"
    assert report["comparison"] is None
    assert sorted(report["files"]) == sorted(RUN_FILES)
    # descriptors written to the report must round trip through the loaders
    cset = set_from_descriptor(report["set"])
    assert cset.kind == "interval"
    stdout = capsys.readouterr().out
    assert "L1 = " in stdout and "report:" in stdout


def test_solve_byte_determinism(tmp_path):
    cfg = _tiny_config(tmp_path, mode="reproducible")
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


def test_solve_bad_settings(tmp_path, capsys):
    cfg = _tiny_config(tmp_path, settings={"max_iters": 60, "armijo_c": 0.9})
    assert cli.main(["solve", cfg]) == 2
    assert "bad optimizer settings" in capsys.readouterr().err


def test_solve_bad_mode(tmp_path, capsys):
    cfg = _tiny_config(tmp_path, mode="turbo")
    assert cli.main(["solve", cfg]) == 2
    assert "mode must be" in capsys.readouterr().err


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
    cset = set_from_descriptor(json.loads(open(set_json).read()))
    fld = field_from_descriptor(desc["field"], cset, s=desc["field"]["s"])
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
        ("--restarts", "bad optimizer settings"),
    ],
)
def test_reproduce_zero_override_rejected(tmp_path, capsys, flag, message):
    # 0 is an override like any other, not a request for the default
    assert cli.main(["reproduce", "e", "--out", str(tmp_path / "rep"), flag, "0"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_reproduce_unknown_example():
    with pytest.raises(SystemExit) as exc:
        cli.main(["reproduce", "z"])
    assert exc.value.code == 2


def _subprocess_env(**overrides):
    """os.environ plus overrides, with this package's source on PYTHONPATH."""
    env = dict(os.environ, **overrides)
    src = str(Path(rieszfield.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_thread_cap_env(tmp_path):
    code = (
        "import rieszfield.cli, os;"
        "print(os.environ['OMP_NUM_THREADS'], os.environ['OPENBLAS_NUM_THREADS'])"
    )
    env = _subprocess_env(RIESZ_THREADS="3")
    env.pop("OMP_NUM_THREADS", None)
    env.pop("OPENBLAS_NUM_THREADS", None)
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert res.stdout.split() == ["3", "3"]


def test_thread_cap_respects_existing(tmp_path):
    code = "import rieszfield.cli, os; print(os.environ['OMP_NUM_THREADS'])"
    env = _subprocess_env(RIESZ_THREADS="3", OMP_NUM_THREADS="5")
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert res.stdout.strip() == "5"


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
