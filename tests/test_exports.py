"""Every exported name resolves: the package's lazy exports and the
``__all__`` of each submodule.  Importing the package loads none of them."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import rieszfield


def _submodules():
    for info in pkgutil.iter_modules(rieszfield.__path__):
        yield importlib.import_module(f"rieszfield.{info.name}")


def test_package_exports_resolve():
    missing = [name for name in rieszfield.__all__ if not hasattr(rieszfield, name)]
    assert missing == []


def test_lazy_exports_are_submodule_exports():
    # each lazily exported name is public in the module it is taken from
    for name, module in rieszfield._EXPORTS.items():
        mod = importlib.import_module(f"rieszfield.{module}")
        assert name in getattr(mod, "__all__", ()), f"{module}.{name}"


def test_submodule_exports_resolve():
    checked = 0
    for mod in _submodules():
        exported = getattr(mod, "__all__", ())
        missing = [name for name in exported if not hasattr(mod, name)]
        assert missing == [], mod.__name__
        checked += len(exported)
    assert checked > 0


def test_package_import_loads_no_submodule():
    # a fresh interpreter that sees only the package's source directory
    src = os.path.dirname(os.path.dirname(rieszfield.__file__))
    probe = (
        "import sys, rieszfield; print(sorted(m for m in sys.modules"
        " if m.startswith(('rieszfield.', 'numpy', 'scipy'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


def test_only_the_cli_writes_files():
    # one home for the file formats: no other module opens a file or
    # imports the csv or json module
    offenders = []
    for path in sorted(Path(rieszfield.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name in ("open", "write_text", "write_bytes"):
                    offenders.append(f"{path.name}:{node.lineno} calls {name}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
                offenders += [f"{path.name}:{node.lineno} imports {m}" for m in modules if m in ("csv", "json")]
    assert offenders == []
