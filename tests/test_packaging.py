"""The installed package imports cleanly and exports what it names.

``pip install .`` brings NumPy only: a module under ``src/repro`` that
imports a dev-only dependency cannot be imported from a plain install,
and an ``__all__`` entry naming a deleted symbol breaks
``from module import *``.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
DEV_ONLY = {"hypothesis", "pytest", "pytest_benchmark"}
MODULES = sorted(info.name for info in
                 pkgutil.walk_packages(repro.__path__, "repro."))


def test_no_module_imports_a_dev_only_dependency():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.relative_to(SRC)}:{node.lineno} {name}"
                          for name in names
                          if name.split(".")[0] in DEV_ONLY]
    assert not offenders, f"dev-only imports in the package: {offenders}"


@pytest.mark.parametrize("name", ["repro", *MODULES])
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ())
               if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names missing symbols {missing}"
