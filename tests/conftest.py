"""Shared fixtures: compact sets and solved measures reused across modules."""

import inspect

import numpy as np
import pytest

from rieszfield import cli
from rieszfield.equilibrium import solve_equilibrium
from rieszfield.fields import catalog
from rieszfield.geometry import make_interval, make_sphere, make_torus


@pytest.fixture(scope="session")
def sphere():
    return make_sphere()


@pytest.fixture(scope="session")
def interval01():
    return make_interval(0.0, 1.0)


@pytest.fixture(scope="session")
def interval02():
    return make_interval(0.0, 2.0)


@pytest.fixture(scope="session")
def torus24():
    return make_torus(2.0, 4.0)


@pytest.fixture
def recorded_runs(monkeypatch):
    """cli._run replaced by a recorder: one dict of its arguments, by
    name, per call, and no solve."""
    runs = []
    sig = inspect.signature(cli._run)
    monkeypatch.setattr(cli, "_run", lambda *a, **kw: runs.append(sig.bind(*a, **kw).arguments))
    return runs


@pytest.fixture(scope="session")
def measure_a(sphere):
    return solve_equilibrium(sphere, catalog("a"), 2.0)


@pytest.fixture(scope="session")
def measure_e(interval02):
    return solve_equilibrium(interval02, catalog("e"), 4.0)


# ---------------------------------------------------------------------------
# minimal JSON-schema checker (draft-07 subset: type, required, properties,
# items, enum, minimum) so the report contract is testable without a
# jsonschema dependency

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value, name):
    if name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, _TYPES[name])


def schema_errors(instance, schema, path="$"):
    """Collect violations of the supported schema subset."""
    errs = []
    t = schema.get("type")
    if t is not None:
        names = t if isinstance(t, list) else [t]
        if not any(_type_ok(instance, n) for n in names):
            errs.append(f"{path}: expected type {t}, got {type(instance).__name__}")
            return errs
    if "enum" in schema and instance not in schema["enum"]:
        errs.append(f"{path}: {instance!r} not in enum {schema['enum']}")
    if "minimum" in schema and isinstance(instance, (int, float)):
        if instance < schema["minimum"]:
            errs.append(f"{path}: {instance} below minimum {schema['minimum']}")
    if isinstance(instance, dict):
        for key in schema.get("required", []):
            if key not in instance:
                errs.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                errs.extend(schema_errors(instance[key], sub, f"{path}.{key}"))
    if isinstance(instance, list) and "items" in schema:
        items = schema["items"]
        if isinstance(items, list):
            for i, (v, sub) in enumerate(zip(instance, items)):
                errs.extend(schema_errors(v, sub, f"{path}[{i}]"))
        else:
            for i, v in enumerate(instance):
                errs.extend(schema_errors(v, items, f"{path}[{i}]"))
    return errs


@pytest.fixture(scope="session")
def validate_report_schema():
    import json
    from pathlib import Path

    schema = json.loads(
        (Path(__file__).resolve().parents[1] / "docs" / "report.schema.json").read_text()
    )

    def check(report: dict):
        errs = schema_errors(report, schema)
        assert not errs, "report schema violations:\n" + "\n".join(errs)

    return check


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
