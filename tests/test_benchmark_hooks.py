"""The traced benchmark run (perfbench/tracing.py) wraps package names
from outside and reads solver results by key, and its smoke test's fault
injection (perfbench/worker.py) rebinds them; a renamed or bypassed hook
would otherwise surface only in the minutes-long benchmark runs."""

import importlib
import importlib.util
import inspect
import json
import os
from pathlib import Path

import numpy as np

from rieszfield import cli, diagnostics, optimizer
from rieszfield.equilibrium import solve_equilibrium
from rieszfield.fields import ExternalField
from rieszfield.geometry import make_interval, make_sphere, make_torus
from rieszfield.optimizer import OptimizerSettings, minimize, tau

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    # stdlib-only module: load it by path, without the perfbench package
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_boundaries_exist():
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in _tracing().BOUNDARIES
        if not callable(getattr(importlib.import_module(f"rieszfield.{module}"), attr, None))
    ]
    assert missing == []


def test_builtin_descriptors_hold_the_checked_keys():
    # perfbench/checks.py:set_residual reads these keys to measure the
    # distance of exported points from the set
    assert make_interval(0.0, 2.0).descriptor() == {"kind": "interval", "a": 0.0, "b": 2.0}
    assert make_sphere(1.5).descriptor() == {"kind": "sphere", "radius": 1.5}
    assert make_torus(2.0, 4.0).descriptor() == {"kind": "torus", "r_inner": 2.0, "r_outer": 4.0}


def test_traced_parameters_bind_by_name():
    assert "budget" in inspect.signature(solve_equilibrium).parameters
    assert {"cset", "s", "N", "settings"} <= set(inspect.signature(minimize).parameters)
    assert OptimizerSettings().grad_tol > 0


def test_positional_call_shapes():
    # perfbench/workloads.py calls sublevel_components(cset, mesh, fld,
    # threshold) and perfbench/sweep.py covering_radius(config, mesh), both
    # on the set's default mesh
    assert list(inspect.signature(diagnostics.sublevel_components).parameters) == [
        "cset", "mesh", "fld", "threshold"
    ]
    cset = make_interval(0.0, 1.0)
    mesh = cset.mesh()
    pts, fill = mesh
    assert pts.shape[1] == 1 and fill > 0
    ramp = ExternalField(lambda X: np.atleast_2d(X)[:, 0])
    kept, labels = diagnostics.sublevel_components(cset, mesh, ramp, 0.5)
    assert len(kept) == len(labels) and kept.max() <= 0.5
    config = optimizer.Configuration(np.array([[0.0], [1.0]]), cset)
    assert diagnostics.covering_radius(config, mesh) == 0.5


def test_export_call_shape(tmp_path):
    # perfbench/tracing.py sizes the export from its first argument, the
    # output directory, and the file list it returns
    cset = make_interval(0.0, 1.0)
    zero = ExternalField(lambda X: np.zeros(len(np.atleast_2d(X))))
    result = minimize(cset, zero, 2.0, 6, OptimizerSettings(max_iters=5, restarts=1))
    measure = solve_equilibrium(cset, zero, 2.0)
    table = diagnostics.empirical_density(result.config)
    eq = diagnostics.density_table_average(measure, table)
    out_dir = tmp_path / "run"
    files = cli._write_run(out_dir, result, measure, cset, zero, {}, table, eq)
    assert sorted(files) == sorted(os.listdir(out_dir))


def test_solver_info_has_traced_keys():
    zero = ExternalField(lambda X: np.zeros(len(np.atleast_2d(X))))
    info = solve_equilibrium(make_interval(0.0, 1.0), zero, 2.0).solver_info
    assert {"nodes", "evaluations", "rounds"} <= set(info)


def test_energy_fault_reaches_reported_numbers(monkeypatch):
    # the benchmark's fault injection (perfbench/worker.py --fault energy)
    # rebinds these two module attributes and expects every reported
    # energy to change with them
    exact = optimizer.energy

    def doubled(*args, **kwargs):
        return 2.0 * exact(*args, **kwargs)

    monkeypatch.setattr(optimizer, "energy", doubled)
    monkeypatch.setattr(diagnostics, "energy", doubled)
    cset = make_interval(0.0, 1.0)
    zero = ExternalField(lambda X: np.zeros(len(np.atleast_2d(X))))
    result = minimize(cset, zero, 2.0, 6, OptimizerSettings(max_iters=20))
    assert result.energy == 2.0 * exact(result.config, zero, 2.0)
    measure = solve_equilibrium(cset, zero, 2.0)
    report = diagnostics.build_report(result.config, zero, 2.0, measure)
    assert report.energy_ratio == 2.0 * exact(result.config, zero, 2.0) / tau(2.0, 1, 6)


def test_benchmark_solve_config_reaches_run(tmp_path, monkeypatch, recorded_runs):
    # the sphere-large workload (perfbench/workloads.py) writes a solve
    # config with a top-level seed, settings without one, and a "mode" key
    # the CLI ignores.  A seed lost on the way would run every benchmark
    # seed as seed 0
    monkeypatch.syspath_prepend(str(TRACING.parent))
    workloads = importlib.import_module("workloads")
    work = workloads.SphereLarge(3, tmp_path, minimal=False)
    written = json.loads(work.config.read_text())
    assert written["seed"] == 3 and "seed" not in written["settings"]
    assert written["mode"] == "reproducible"
    assert cli.main(["solve", str(work.config), "--out", str(tmp_path / "d")]) == 0
    (run,) = recorded_runs
    assert run["n"] == 4000
    assert run["settings"] == OptimizerSettings(max_iters=30, restarts=1, rng_seed=3, init="weighted")
    assert run["out_dir"] == str(tmp_path / "d")
