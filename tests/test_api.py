from __future__ import annotations

import biaslens


def test_all_is_sorted_unique_and_exactly_what_star_import_binds():
    names = biaslens.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(biaslens, name)] == []
    namespace: dict = {}
    exec("from biaslens import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == names
