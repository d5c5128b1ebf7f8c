from __future__ import annotations

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
