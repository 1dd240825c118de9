"""Every ``src/repro`` module has an importer outside ``tests/``.

A module that only tests import is code the running system never runs.
This test parses the imports of ``src/``, ``benchmarks/`` and
``examples/`` with :mod:`ast` and fails on each module none of them
reaches.  A package ``__init__`` that re-exports a name does not count
as a use of the module defining it: the name has to be imported from
the package by a file outside ``tests/``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
PRODUCTION_ROOTS = ("src", "benchmarks", "examples")


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(path: Path) -> Iterator[Tuple[str, List[str]]]:
    """``(module, names)`` per import statement (the project uses
    absolute imports only); ``names`` is empty for ``import module``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, []
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", [alias.name for alias in node.names]


class _ImportGraph:
    def __init__(self) -> None:
        self.modules: Dict[str, Path] = {
            _module_name(path): path for path in SRC.rglob("*.py")
        }
        #: package -> {exported name: (source module, source name)}
        self.reexports: Dict[str, Dict[str, Tuple[str, str]]] = {}
        for name, path in self.modules.items():
            if path.name != "__init__.py":
                continue
            table = self.reexports[name] = {}
            for source, names in _imports(path):
                for imported in names:
                    table[imported] = (source, imported)

    def defining_module(self, module: str, name: str) -> str:
        """The module that ``from module import name`` reaches."""
        while f"{module}.{name}" not in self.modules:
            origin = self.reexports.get(module, {}).get(name)
            if origin is None:
                return module
            module, name = origin
        return f"{module}.{name}"

    def used_modules(self) -> Set[str]:
        used: Set[str] = set()
        for root in PRODUCTION_ROOTS:
            for path in (REPO / root).rglob("*.py"):
                if path.name == "__init__.py" and root == "src":
                    continue  # re-exports count only where they are imported
                for source, names in _imports(path):
                    used.add(source)
                    for name in names:
                        used.add(self.defining_module(source, name))
        return used


def unused_modules() -> List[str]:
    graph = _ImportGraph()
    used = graph.used_modules()
    return sorted(
        name
        for name, path in graph.modules.items()
        if path.name != "__init__.py" and name not in used
    )


def test_every_module_has_an_importer_outside_tests():
    assert unused_modules() == []

