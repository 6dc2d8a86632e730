"""Every module under ``src/repro`` has a consumer.

An import walk starts at the program's entry points -- the CLI, the
service, the repository benchmark and the examples -- and follows every
``import`` statement (lazy ones inside functions too) through the
modules it reaches. A name imported through a package ``__init__``
counts for the module that defines it (``obj.__module__``); the
``__init__``'s own re-exports reach nothing. A module that only its own
tests import belongs under ``tests/``, next to them, or nowhere.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: dotted name -> source file, for every module of the ``repro`` package
MODULES = {
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__"): path
    for path in sorted((SRC / "repro").rglob("*.py"))
}
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


def _reexport_source(package: str, name: str) -> str | None:
    """The module a package ``__init__`` imports ``name`` from (plain data
    such as a dict or a tuple has no ``__module__``)."""
    for node in ast.walk(ast.parse(MODULES[package].read_text())):
        if isinstance(node, ast.ImportFrom) and any(
            (alias.asname or alias.name) == name for alias in node.names
        ):
            return _absolute(node, package, is_package=True)
    return None


def _absolute(node: ast.ImportFrom, module: str | None, is_package: bool) -> str:
    if not node.level:
        return node.module or ""
    parts = (module or "").split(".")
    base = parts if is_package else parts[:-1]
    base = base[: len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def _defining_module(package: str, name: str) -> str | None:
    """The module that defines ``package.name`` (a submodule or an object)."""
    if f"{package}.{name}" in MODULES:
        return f"{package}.{name}"
    if package not in PACKAGES:
        return package
    obj = getattr(importlib.import_module(package), name, None)
    owner = getattr(obj, "__module__", None)
    if owner in MODULES and owner != package:
        return owner
    source = _reexport_source(package, name)
    if source in PACKAGES:
        return _defining_module(source, name)
    return source


def _imports(path: Path, module: str | None = None) -> set[str]:
    """The ``repro`` modules that the file at ``path`` imports from."""
    is_package = path.name == "__init__.py"
    reached: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            reached.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(node, module, is_package)
            if source.split(".")[0] != "repro":
                continue
            for alias in node.names:
                reached.add(_defining_module(source, alias.name) or source)
    return {name for name in reached if name in MODULES}


def reached_modules() -> set[str]:
    roots = [p for d in ("perfbench", "examples") for p in sorted((ROOT / d).glob("*.py"))]
    todo = {"repro.cli"} | {m for m in MODULES if m.startswith("repro.service.")}
    for path in roots:
        todo |= _imports(path)
    seen: set[str] = set()
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        if module not in PACKAGES:
            todo |= _imports(MODULES[module], module) - seen
    return seen


def test_every_module_in_src_has_a_consumer():
    unreached = sorted(set(MODULES) - PACKAGES - reached_modules())
    assert unreached == [], f"modules no entry point reaches: {unreached}"
