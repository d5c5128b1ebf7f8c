"""Traced run of the biaslens CLI: spans around the calls between its modules.

Child side (run as a script)::

    python3 perfbench/tracer.py SPANS_JSON RUN_ID -- evaluate --runs ...

imports the package, wraps the functions below, calls `biaslens.cli.main`
with the remaining arguments, and writes the spans to SPANS_JSON when the
run ends. The parent side, `summarize`, turns that file into per-layer
metrics. A layer is a module of the package; `_util` is named `util`,
because metric names start with a letter.

Which calls get a span is found from the code, not from a list: every
module-level function that one biaslens module (the package `__init__`
included) imports from another, or reaches as an attribute of another
module it imported, plus `LabelCatalog.build` and `LabelCatalog.merged`.
Each is wrapped where it is defined and where it is imported, so calls
inside its own module get a span too. Two kinds are skipped: generator
functions, whose work runs after the call returns, and per-value helpers
that map scalars to scalars by their annotations (`ratio_str`, `to_float`,
`ideal_target_ratio_at_n`, ...). Those run per ratio or per entity, like
the `LabelCatalog.label_of` accessor, and their spans would cost more than
the work they measure.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import re
import sys
import time
import types
from pathlib import Path

PACKAGE = "biaslens"
CLASS_METHODS = (("ingest", "LabelCatalog", "build"), ("ingest", "LabelCatalog", "merged"))
SCALAR_ANNOTATIONS = frozenset(
    {"int", "str", "float", "bool", "bytes", "None", "Fraction", "Ratio"})


def layer_name(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _only_scalars(annotation, allowed: frozenset[str]) -> bool:
    if annotation is inspect.Parameter.empty:
        return False
    text = annotation if isinstance(annotation, str) else repr(annotation)
    return set(re.findall(r"[A-Za-z_]\w*", text)) <= allowed


def _is_scalar_helper(fn: types.FunctionType) -> bool:
    """True for a function from scalars to scalars, such as `ratio_str`."""
    signature = inspect.signature(fn)
    params = signature.parameters.values()
    return (bool(params)
            and all(_only_scalars(p.annotation, SCALAR_ANNOTATIONS) for p in params)
            and _only_scalars(signature.return_annotation, SCALAR_ANNOTATIONS | {"tuple"}))


def _code_names(code: types.CodeType, names: set[str]) -> None:
    names.update(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            _code_names(const, names)


def _referenced_names(module: types.ModuleType) -> set[str]:
    """Global and attribute names used by the code defined in ``module``."""
    names: set[str] = set()
    for obj in vars(module).values():
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            _code_names(obj.__code__, names)
        elif isinstance(obj, type) and obj.__module__ == module.__name__:
            for member in vars(obj).values():
                func = getattr(member, "__func__", member)
                if isinstance(func, types.FunctionType):
                    _code_names(func.__code__, names)
    return names


def discover() -> tuple[dict[str, types.ModuleType], list[tuple[types.ModuleType, str]]]:
    """The package's modules, and the (module, function name) pairs to wrap."""
    package = importlib.import_module(PACKAGE)
    modules = {info.name: importlib.import_module(f"{PACKAGE}.{info.name}")
               for info in pkgutil.iter_modules(package.__path__)}
    by_full_name = {m.__name__: m for m in modules.values()}
    found: dict[tuple[str, str], types.FunctionType] = {}
    for site in (package, *modules.values()):
        referenced = _referenced_names(site)
        for obj in list(vars(site).values()):
            if (isinstance(obj, types.FunctionType) and obj.__module__ in by_full_name
                    and obj.__module__ != site.__name__):
                found[(obj.__module__, obj.__name__)] = obj
            elif (isinstance(obj, types.ModuleType) and obj.__name__ in by_full_name
                  and obj is not site):
                for name in referenced:
                    fn = vars(obj).get(name)
                    if isinstance(fn, types.FunctionType) and fn.__module__ == obj.__name__:
                        found[(obj.__name__, name)] = fn
    targets = [(by_full_name[module], name) for (module, name), fn in sorted(found.items())
               if not inspect.isgeneratorfunction(fn) and not _is_scalar_helper(fn)]
    return modules, targets


class Tracer:
    """Spans in memory, plus counts observed at the layer boundaries."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list = []
        self.stack: list[int] = []
        self.wrapped: list[str] = []
        self.inputs: dict[str, str] = {}
        self.sparql_label_rows = 0
        self.catalog_size: int | None = None
        self.report_sizes: tuple[int, int] | None = None
        self.layers: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack, clock, run_id = self.spans, self.stack, time.perf_counter, self.run_id
        observe = self._observe
        self.wrapped.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (run_id, name, start, end, parent)
            observe(name, args, result)
            return result

        return traced

    def _observe(self, name: str, args: tuple, result) -> None:
        if name.startswith("ingest."):
            for arg in args:
                path = getattr(arg, "name", None)
                if isinstance(path, str) and hasattr(arg, "read"):
                    self.inputs.setdefault(path, name)
            rows = getattr(result, "label_rows", None)
            if rows is not None:
                self.sparql_label_rows += len(rows)
            if type(result).__name__ == "LabelCatalog":
                self.catalog_size = len(result.assignments)
        if type(result).__name__ == "Report":
            self.report_sizes = (len(result.records), len(result.skipped))

    def install(self):
        """Wrap every discovered function; returns the wrapped `cli.main`."""
        modules, targets = discover()
        sites = [importlib.import_module(PACKAGE), *modules.values()]
        for module, name in targets:
            original = getattr(module, name)
            wrapper = self.wrap(f"{layer_name(module.__name__)}.{name}", original)
            for site in sites:
                for bound, obj in list(vars(site).items()):
                    if obj is original:
                        setattr(site, bound, wrapper)
        for module_name, class_name, method in CLASS_METHODS:
            cls = getattr(modules.get(module_name), class_name, None)
            member = vars(cls).get(method) if cls is not None else None
            if member is None:
                continue
            span = f"{layer_name(module_name)}.{class_name}.{method}"
            if isinstance(member, classmethod):
                setattr(cls, method, classmethod(self.wrap(span, member.__func__)))
            else:
                setattr(cls, method, self.wrap(span, member))
        self.layers = sorted(layer_name(m.__name__) for m in modules.values())
        return self.wrap("cli.main", modules["cli"].main)

    def document(self) -> dict:
        return {
            "layers": self.layers,
            "wrapped": self.wrapped,
            "spans": self.spans,
            "inputs": self.inputs,
            "sparql_label_rows": self.sparql_label_rows,
            "catalog_size": self.catalog_size,
            "report_records": self.report_sizes[0] if self.report_sizes else None,
            "report_skipped": self.report_sizes[1] if self.report_sizes else None,
        }


def summarize(doc: dict) -> dict[str, dict[str, float]]:
    """Self time per layer, and calls / self time / total time per function.

    A span's self time is its duration minus the durations of its child
    spans; calls do not overlap, because the program is single-threaded.
    """
    spans = doc["spans"]
    child_time: dict[int, float] = {}
    for run_id, name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    layers = {layer: 0.0 for layer in doc["layers"]}
    functions = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
                 for name in doc["wrapped"]}
    for position, (run_id, name, start, end, parent) in enumerate(spans):
        duration = end - start
        self_time = duration - child_time.get(position, 0.0)
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_time
        entry = functions[name]
        entry["calls"] += 1
        entry["self_s"] += self_time
        entry["total_s"] += duration
    return {"layers": layers, "functions": functions}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_JSON RUN_ID -- BIASLENS_ARGS...", file=sys.stderr)
        return 2
    out, run_id, args = Path(argv[0]), argv[1], argv[3:]
    tracer = Tracer(run_id)
    entry = tracer.install()
    try:
        return entry(args)
    finally:
        out.write_text(json.dumps(tracer.document()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
