"""Run the tier-1 suite and fail if a located error in ``src/`` is never raised.

    PYTHONPATH=src python tests/raise_reach.py [PYTEST_ARGS...]

Every ``raise`` statement in ``src/biaslens`` whose exception is a
``BiasLensError`` class, called or bare, is found through ``ast``. The suite
then runs in this process under a ``sys.monitoring`` line hook (Python 3.12
and later; standard library only), which records each line of the package
the first time it runs. A raise is reached when one of its lines ran. The
script exits 1 and names each raise that was not; none is exempt, so each
needs a test, through the CLI, a reader or the public API. It exits with
pytest's status when the suite itself fails.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "biaslens"


def error_classes(modules: dict[str, ast.Module]) -> set[str]:
    """``BiasLensError`` and the names of the classes that derive from it."""
    names = {"BiasLensError"}
    while True:
        found = {node.name for tree in modules.values() for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef)
                 and any(isinstance(base, ast.Name) and base.id in names
                         for base in node.bases)}
        if found <= names:
            return names
        names |= found


def located_raises(modules: dict[str, ast.Module]) -> list[tuple[str, str, ast.Raise]]:
    """(file, enclosing function, raise) for each raise of an error class."""
    classes = error_classes(modules)
    found = []

    def visit(node: ast.AST, file: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, file, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                raised = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(raised, ast.Name) and raised.id in classes:
                    found.append((file, scope, child))
            visit(child, file, scope)

    for file, tree in modules.items():
        visit(tree, file, "")
    return found


def run_suite(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's status for ``args``, and the (file name, line) pairs of the
    package that ran."""
    monitoring, tool = sys.monitoring, sys.monitoring.COVERAGE_ID
    package = str(SOURCE)
    ran: set[tuple[str, int]] = set()

    def line(code, number):
        path = os.path.realpath(code.co_filename)
        if os.path.dirname(path) == package:
            ran.add((os.path.basename(path), number))
        return monitoring.DISABLE  # each line is recorded once

    monitoring.use_tool_id(tool, "raise-reach")
    monitoring.register_callback(tool, monitoring.events.LINE, line)
    monitoring.set_events(tool, monitoring.events.LINE)
    try:
        status = pytest.main(args)
    finally:
        monitoring.set_events(tool, monitoring.events.NO_EVENTS)
        monitoring.free_tool_id(tool)
    return status, ran


def main(args: list[str]) -> int:
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SOURCE.glob("*.py"))}
    raises = located_raises(modules)
    status, ran = run_suite(args)
    if status:
        return status
    unreached = [(file, scope, node) for file, scope, node in raises
                 if not any((file, number) in ran
                            for number in range(node.lineno, node.end_lineno + 1))]
    for file, scope, node in unreached:
        print(f"src/biaslens/{file}:{node.lineno}: in {scope or 'the module'}, "
              f"no test reaches: raise {ast.unparse(node.exc)[:80]}")
    print(f"{len(raises)} located raises, {len(unreached)} not reached")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
