from __future__ import annotations

import ast
import json
import re
import tomllib
from pathlib import Path

import biaslens

ROOT = Path(__file__).parents[1]


def test_all_is_sorted_unique_and_exactly_what_star_import_binds():
    names = biaslens.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(biaslens, name)] == []
    namespace: dict = {}
    exec("from biaslens import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == names


def test_ci_runs_the_lowest_python_that_pyproject_allows():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        requires = tomllib.load(handle)["project"]["requires-python"]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    matrix = json.loads(re.search(r"^\s*python-version: (\[.*\])$", workflow,
                                  re.MULTILINE).group(1))
    lowest = min(matrix, key=lambda version: tuple(map(int, version.split("."))))
    assert requires == f">={lowest}"


def imported_modules(module: str) -> set[str]:
    """The biaslens modules that ``module``'s source imports from, by name."""
    tree = ast.parse((ROOT / "src" / "biaslens" / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if not node.level:  # absolute: only biaslens and its modules count
                if name.partition(".")[0] != "biaslens":
                    continue
                name = name.removeprefix("biaslens").lstrip(".")
            found.update([name] if name else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.removeprefix("biaslens.") for alias in node.names
                         if alias.name.startswith("biaslens."))
    return found


def test_the_two_json_readers_share_no_code_but_the_walk():
    """The report reader and the SPARQL reader share the streamed JSON walk
    through ``_jsonwalk``, so neither imports from the other."""
    assert "ingest" not in imported_modules("report")
    assert "report" not in imported_modules("ingest")
    assert {"_jsonwalk"} <= imported_modules("report") & imported_modules("ingest")
