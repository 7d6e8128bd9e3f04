"""No pickle in the shipped package but where an owner keeps it.

A pure-``ast`` census over ``src/repro``: a module that imports a
pickling module (``pickle``, its C twin, or a library built on it)
fails unless :data:`ALLOWED` names it together with the ROADMAP item
that owns replacing it.  An entry whose module no longer imports one
also fails: the list can only shrink.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Set

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: modules whose loads run whatever a crafted byte string names
PICKLERS = frozenset({"pickle", "_pickle", "cPickle", "shelve", "dill",
                      "cloudpickle"})

# module -> the owner that keeps its pickle
ALLOWED: Dict[str, str] = {
    # checkpoints: a CRC and an allow-list unpickler first
    "repro.fl.checkpoint": "ROADMAP item 2(b)",
}


def _picklers_imported(path: Path) -> Set[str]:
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found.update(name for name in names
                     if name.split(".")[0] in PICKLERS)
    return found


def _census() -> Dict[str, Set[str]]:
    census = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        picklers = _picklers_imported(path)
        if picklers:
            census[".".join(parts)] = picklers
    return census


def test_only_allowed_modules_import_pickle():
    census = _census()
    unowned = {module: sorted(picklers)
               for module, picklers in census.items()
               if module not in ALLOWED}
    assert unowned == {}, (
        f"modules that import a pickler without an owner: {unowned}")
    stale = sorted(set(ALLOWED) - set(census))
    assert stale == [], f"ALLOWED entries that import no pickler: {stale}"
    assert all(owner.startswith("ROADMAP item")
               for owner in ALLOWED.values())


def test_the_census_sees_every_import_form(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("import os, pickle as p\nfrom _pickle import loads\n"
                      "from dill.source import getsource\nimport json\n")
    assert _picklers_imported(source) == {"pickle", "_pickle",
                                          "dill.source"}
