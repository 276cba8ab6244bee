"""The traced benchmark run (perfbench/tracing.py) wraps package names
from outside and reads solver results by key; a renamed hook would
otherwise surface only in the minutes-long traced run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from rieszfield.equilibrium import solve_equilibrium
from rieszfield.fields import ExternalField
from rieszfield.geometry import make_interval
from rieszfield.optimizer import minimize

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


def test_traced_parameters_bind_by_name():
    assert "budget" in inspect.signature(solve_equilibrium).parameters
    assert {"cset", "s", "N", "settings"} <= set(inspect.signature(minimize).parameters)


def test_solver_info_has_traced_keys():
    zero = ExternalField(lambda X: np.zeros(len(np.atleast_2d(X))))
    info = solve_equilibrium(make_interval(0.0, 1.0), zero, 2.0).solver_info
    assert {"nodes", "evaluations", "rounds"} <= set(info)
