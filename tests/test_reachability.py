"""The shipped package holds only code an entry point runs.

A pure-``ast`` census (nothing under ``perf/`` or ``examples/`` is
imported) checks two rules over ``src/repro``:

1. every module is reached by the import walk from the entry points
   (``repro.cli``, ``repro.verify.__main__``, and whatever the
   non-test ``perf/`` files and ``examples/`` import);
2. every top-level ``def`` / ``class`` is referenced by name somewhere
   in a reached ``src/repro`` module, non-test ``perf/`` or
   ``examples/`` -- its own definition, its imports and ``__all__``
   strings do not count.

A module or symbol that breaks a rule fails unless :data:`ALLOWED`
names it together with the ROADMAP item or test fixture that owns it.
An entry that no longer exists, or that production now reaches, also
fails: the list can only shrink.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, Set

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ROOT_MODULES = ("repro.cli", "repro.verify.__main__")

# symbol or module -> the owner that keeps it although no entry point
# reaches it.  Symbols defined in an allow-listed module are covered by
# the module's entry.
ALLOWED: Dict[str, str] = {
    # Theorem 1's bound and the pruning error it charges
    "repro.analysis": "ROADMAP item 7(b)",
    "repro.analysis.convergence": "ROADMAP item 7(b)",
    "repro.pruning.error.pruning_error": "ROADMAP item 7(b)",
    # what benchmarks/ needs until the paper's claims become a battery
    "repro.bandit.discrete": "ROADMAP item 9",
    "repro.bandit.regret.RegretTracker": "ROADMAP item 9",
    "repro.experiments.cache.clear_cache": "ROADMAP item 9",
    "repro.experiments.cache.run_cached": "ROADMAP item 9",
    "repro.experiments.fleet.make_fleet": "ROADMAP item 9",
    "repro.experiments.reporting.fmt_speedup": "ROADMAP item 9",
    "repro.experiments.reporting.fmt_time": "ROADMAP item 9",
    "repro.experiments.reporting.print_series": "ROADMAP item 9",
    "repro.fl.strategies.capability_table": "ROADMAP item 9",
    "repro.pruning.quantize.quantization_error": "ROADMAP item 9",
    "repro.pruning.quantize.residual_memory_ratio": "ROADMAP item 9",
    "repro.nn.dtype.set_default_dtype": "tests/conftest.py float64_mode fixture",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _package_modules() -> Dict[str, Path]:
    return {_module_name(path): path
            for path in sorted((SRC / "repro").rglob("*.py"))}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _entry_files() -> Iterator[Path]:
    """Non-test ``perf/`` and ``examples/``: code outside the package
    whose imports are entry points."""
    yield from sorted(path for path in (ROOT / "perf").rglob("*.py")
                      if "tests" not in path.relative_to(ROOT).parts)
    yield from sorted((ROOT / "examples").glob("*.py"))


def _with_parents(name: str) -> Iterator[str]:
    parts = name.split(".")
    for end in range(1, len(parts) + 1):
        yield ".".join(parts[:end])


def _imported(tree: ast.AST, modules: Dict[str, Path]) -> Set[str]:
    """Every ``repro`` module ``tree`` imports, at any depth (the
    package uses absolute imports only)."""
    found: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.update(_with_parents(alias.name))
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.update(_with_parents(node.module))
            found.update(f"{node.module}.{alias.name}"
                         for alias in node.names)
    return {name for name in found if name in modules}


def _reached(modules: Dict[str, Path]) -> Set[str]:
    frontier = set(ROOT_MODULES)
    for path in _entry_files():
        frontier |= _imported(_parse(path), modules)
    frontier = {parent for name in frontier for parent in _with_parents(name)
                if parent in modules}
    reached: Set[str] = set()
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        frontier |= _imported(_parse(modules[name]), modules) - reached
    return reached


def _names(nodes: Iterable[ast.AST]) -> Iterator[str]:
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr


def _references(modules: Dict[str, Path], reached: Set[str]) -> Set[str]:
    """Names used in reached modules and the entry files, a
    definition's uses of its own name excepted."""
    used: Set[str] = set()
    for path in [*(modules[name] for name in sorted(reached)),
                 *_entry_files()]:
        for statement in _parse(path).body:
            names = set(_names([statement]))
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                names.discard(statement.name)
            used |= names
    return used


def _definitions(modules: Dict[str, Path]) -> Dict[str, str]:
    """``module.symbol`` -> symbol for every top-level def and class."""
    found = {}
    for name, path in modules.items():
        for statement in _parse(path).body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                if not statement.name.startswith("__"):
                    found[f"{name}.{statement.name}"] = statement.name
    return found


@pytest.fixture(scope="module")
def census():
    """Modules, unreached modules, definitions, unreferenced symbols."""
    modules = _package_modules()
    reached = _reached(modules)
    dead_modules = set(modules) - reached
    used = _references(modules, reached)
    definitions = _definitions(modules)
    dead_symbols = {qualified for qualified, symbol in definitions.items()
                    if symbol not in used}
    return modules, dead_modules, definitions, dead_symbols


def _covered(name: str) -> bool:
    module = name.rpartition(".")[0]
    return name in ALLOWED or module in ALLOWED


def test_every_module_is_reached_from_an_entry_point(census):
    _, dead_modules, _, _ = census
    offenders = sorted(name for name in dead_modules if name not in ALLOWED)
    assert not offenders, f"modules no entry point imports: {offenders}"


def test_every_top_level_symbol_is_referenced(census):
    _, _, _, dead_symbols = census
    offenders = sorted(name for name in dead_symbols if not _covered(name))
    assert not offenders, f"symbols nothing references: {offenders}"


def test_allow_list_only_shrinks(census):
    modules, dead_modules, definitions, dead_symbols = census
    stale = []
    for name, owner in ALLOWED.items():
        assert owner.startswith(("ROADMAP item", "tests/")), name
        if name in modules:
            if name not in dead_modules:
                stale.append(f"{name} (reached)")
        elif name in definitions:
            if name not in dead_symbols:
                stale.append(f"{name} (referenced)")
        else:
            stale.append(f"{name} (gone)")
    assert not stale, f"allow-list entries to delete: {stale}"
