"""The shipped package holds only code an entry point runs.

A pure-``ast`` census (nothing under ``perf/`` or ``examples/`` is
imported) checks three rules over ``src/repro``:

1. every module is reached by the import walk from the entry points
   (``repro.cli``, ``repro.verify.__main__``, and whatever the
   non-test ``perf/`` files and ``examples/`` import);
2. every top-level ``def`` / ``class`` is referenced by name somewhere
   in a reached ``src/repro`` module, non-test ``perf/`` or
   ``examples/`` -- its own definition, its imports and ``__all__``
   strings do not count;
3. so is every method and property a class body defines (dunders
   aside); here a string constant equal to the name counts too, since
   ``getattr(obj, "name")`` is how a by-name lookup reaches it.

A module, symbol or method that breaks a rule fails unless
:data:`ALLOWED` names it (or a module or class enclosing it) together
with the owner that keeps it: a ROADMAP item, a test fixture, or the
library that calls it by name.  An entry that no longer exists, or that
production now reaches, also fails: the list can only shrink.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ROOT_MODULES = ("repro.cli", "repro.verify.__main__")

# module, symbol or method -> the owner that keeps it although no entry
# point reaches it.  An entry covers everything defined inside it.
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
    "repro.fl.history.TrainingHistory.metric_at_time": "ROADMAP item 9",
    "repro.fl.history.TrainingHistory.round_curve": "ROADMAP item 9",
    "repro.fl.strategies.capability_table": "ROADMAP item 9",
    "repro.pruning.quantize.quantization_error": "ROADMAP item 9",
    "repro.pruning.quantize.residual_memory_ratio": "ROADMAP item 9",
    "repro.nn.dtype.set_default_dtype": "tests/conftest.py float64_mode fixture",
    # BaseHTTPRequestHandler dispatches to these by name
    "repro.telemetry.export._MetricsHandler.do_GET": "http.server",
    "repro.telemetry.export._MetricsHandler.log_message": "http.server",
}
OWNERS = ("ROADMAP item", "tests/", "http.server")


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


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(nodes: Iterable[ast.AST]) -> Iterator[str]:
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr


def _references(modules: Dict[str, Path],
                reached: Set[str]) -> Tuple[Set[str], Set[str]]:
    """Names used in reached modules and the entry files, a
    definition's uses of its own name excepted; and their strings."""
    used: Set[str] = set()
    strings: Set[str] = set()
    for path in [*(modules[name] for name in sorted(reached)),
                 *_entry_files()]:
        tree = _parse(path)
        strings.update(node.value for node in ast.walk(tree)
                       if isinstance(node, ast.Constant)
                       and isinstance(node.value, str))
        for statement in tree.body:
            names = set(_names([statement]))
            if isinstance(statement, _DEFS + (ast.ClassDef,)):
                names.discard(statement.name)
            used |= names
    return used, strings


def _definitions(modules: Dict[str, Path]) -> Tuple[Dict[str, str],
                                                     Dict[str, str]]:
    """``module.symbol`` -> symbol for every top-level def and class,
    and ``module.Class.method`` -> method for every class-body def."""
    symbols, methods = {}, {}
    for name, path in modules.items():
        for statement in _parse(path).body:
            if not isinstance(statement, _DEFS + (ast.ClassDef,)) \
                    or statement.name.startswith("__"):
                continue
            qualified = f"{name}.{statement.name}"
            symbols[qualified] = statement.name
            if isinstance(statement, ast.ClassDef):
                methods.update(
                    (f"{qualified}.{node.name}", node.name)
                    for node in statement.body
                    if isinstance(node, _DEFS)
                    and not node.name.startswith("__"))
    return symbols, methods


@pytest.fixture(scope="module")
def census():
    """Every module, symbol and method by kind, and the ones no entry
    point reaches or references."""
    modules = _package_modules()
    reached = _reached(modules)
    used, strings = _references(modules, reached)
    symbols, methods = _definitions(modules)
    dead = set(modules) - reached
    dead |= {name for name, symbol in symbols.items() if symbol not in used}
    dead |= {name for name, method in methods.items()
             if method not in used and method not in strings}
    kinds = {"module": set(modules), "symbol": set(symbols),
             "method": set(methods)}
    return kinds, dead


def _offenders(census, kind: str) -> List[str]:
    kinds, dead = census
    return sorted(name for name in dead & kinds[kind]
                  if not any(part in ALLOWED for part in _with_parents(name)))


def test_every_module_is_reached_from_an_entry_point(census):
    offenders = _offenders(census, "module")
    assert not offenders, f"modules no entry point imports: {offenders}"


def test_every_top_level_symbol_is_referenced(census):
    offenders = _offenders(census, "symbol")
    assert not offenders, f"symbols nothing references: {offenders}"


def test_every_method_is_referenced(census):
    offenders = _offenders(census, "method")
    assert not offenders, f"methods nothing references: {offenders}"


def test_allow_list_only_shrinks(census):
    kinds, dead = census
    stale = []
    for name, owner in ALLOWED.items():
        assert owner.startswith(OWNERS), name
        if not any(name in names for names in kinds.values()):
            stale.append(f"{name} (gone)")
        elif name not in dead:
            stale.append(f"{name} (reached)")
    assert not stale, f"allow-list entries to delete: {stale}"
