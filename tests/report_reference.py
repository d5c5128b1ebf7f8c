"""The report.json renderer as it was when every entry went through the
compact encoder as a dict, kept verbatim as the reference the text renderer
in ``biaslens.report`` must agree with, byte for byte."""

from __future__ import annotations

import json

from biaslens.report import SCHEMA, Report, _derived, _record_obj


def report_to_json(report: Report) -> str:
    """Render the report as the versioned JSON document (byte-stable)."""
    meta = report.meta
    payload = {
        "schema": SCHEMA,
        "meta": {
            "seed": meta.seed,
            "cutoff": meta.cutoff,
            "feature": meta.feature_name,
            "values": list(meta.values),
            "unknown_token": meta.unknown_token,
            "sources": list(meta.sources),
            "strict": meta.strict,
            "table_size": meta.table_size,
            "sd_divisor": meta.sd_divisor,
            "evaluation": "one-vs-rest",
        },
        "summaries": _derived("summaries", report.blocks),
        "records": [_record_obj(e) for e in report.records],
        "histogram": _derived("histogram", report.blocks),
        "scatter": _derived("scatter", report.blocks),
        "tables": _derived("tables", report.blocks),
        "skipped": [
            {"topic": s.topic_id, "source": s.source, "reason": s.reason,
             "detail": s.detail}
            for s in report.skipped
        ],
    }
    return _layout(payload) + "\n"


# CPython encodes in C only when no indent is given, so entries go through a
# compact encoder and only the lines around them are written here.
_encode = json.JSONEncoder(ensure_ascii=False).encode


def _layout(value, indent: str = "") -> str:
    """JSON text of ``value``. The top level, and any container that is or
    directly holds a non-empty list of objects, puts one member or entry per
    line with a 2-space indent; everything else is one compact line."""
    members = value.values() if type(value) is dict else (value,)
    if indent and (list not in map(type, members) or not any(
            type(v) is list and v and type(v[0]) is dict for v in members)):
        return _encode(value)
    inner = indent + "  "
    if type(value) is dict:
        lines = [f"{inner}{_encode(key)}: {_layout(v, inner)}" for key, v in value.items()]
        return "{\n" + ",\n".join(lines) + f"\n{indent}}}"
    lines = [inner + _layout(v, inner) for v in value]
    return "[\n" + ",\n".join(lines) + f"\n{indent}]"

