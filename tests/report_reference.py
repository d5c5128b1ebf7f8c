"""The report renderers as they were when every line was built as a dict:
the report.json renderer, whose entries went through the compact encoder,
and the CSV bundle, whose rows were those dicts spread into cells and
written by ``csv.writer``. They and the dict builders they read are kept
verbatim, and import from ``biaslens.report`` only its schema and data
classes, as the reference the text renderers in ``biaslens.report`` must
agree with, byte for byte. ``unit_open`` is the one-key draw that
``biaslens._util.unit_open_xy`` must agree with, bit for bit.
``parse_report_whole`` is the report reader as it was before the text was
streamed, the reference the streamed ``biaslens.report.parse_report`` must
agree with, error for error."""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import replace
from typing import Iterable, Sequence

from biaslens import report as live
from biaslens._util import derive_seed, ratio_str, reduced_str
from biaslens.errors import ParseError, SchemaVersionError
from biaslens.metrics import BiasRecord
from biaslens.report import SCHEMA, EvaluatedTopic, Report, ReportBlock


def unit_open(seed: int, *parts: str) -> float:
    """Deterministic draw in the open interval (0, 1) keyed on (seed, *parts)."""
    raw = derive_seed(seed, *parts)
    return (raw + 0.5) / 2.0**64


def _exact_obj(numerator: int, denominator: int) -> dict:
    return {"ratio": reduced_str(numerator, denominator), "value": numerator / denominator}


def _grid_obj(count: int, grid: int) -> dict:
    return {"ratio": ratio_str(count, grid), "value": count / grid}


def _row_obj(r: BiasRecord) -> dict:
    m = r.cutoff_effective
    return {
        "topic": r.topic_id,
        "cutoff_effective": m,
        "model_ratio": _grid_obj(r.model_count, m),
        "target_ratio_at_cutoff": _grid_obj(r.ideal_count, m),
        "bias": _grid_obj(r.model_count - r.ideal_count, m),
    }


def _summary_entry(b: ReportBlock) -> dict:
    return {
        "topics": b.summary.topic_count,
        "MB": _exact_obj(*b.summary.mean_bias.as_integer_ratio()),
        "SB": b.summary.stdev_bias,
        "MAB": _exact_obj(*b.summary.mean_abs_bias.as_integer_ratio()),
        "min": _exact_obj(*b.summary.min_bias.as_integer_ratio()),
        "max": _exact_obj(*b.summary.max_bias.as_integer_ratio()),
        "single_sample": b.summary.single_sample,
    }


def _histogram_entry(b: ReportBlock) -> dict:
    n = b.histogram.cutoff
    return {
        "cutoff": n,
        "bins": [
            {"center": ratio_str(k, n), "value": k / n, "count": count,
             "reference_count": ref}
            for k, count, ref in zip(range(-n, n + 1), b.histogram.counts,
                                     b.histogram.reference_counts)
        ],
        "off_grid_topics": list(b.histogram.off_grid_topics),
    }


def _scatter_entry(b: ReportBlock) -> dict:
    return {
        "points": [
            {
                "topic": p.record.topic_id,
                "x": _exact_obj(p.record.ideal_count, p.record.cutoff_effective),
                "y": _exact_obj(p.record.model_count, p.record.cutoff_effective),
                "cell": list(p.cell),
                "dx": p.dx,
                "dy": p.dy,
                "on_diagonal": p.on_diagonal,
                "off_grid": p.off_grid,
            }
            for p in b.scatter
        ],
    }


def _tables_entry(b: ReportBlock) -> dict:
    grid = b.unbiased.grid
    return {
        "k": b.tables.requested_size,
        "towards": [_row_obj(r) for r in b.tables.towards],
        "against": [_row_obj(r) for r in b.tables.against],
        "towards_short": b.tables.towards_short,
        "against_short": b.tables.against_short,
        "unbiased": {
            "grid": grid,
            "buckets": [
                {
                    "bucket": ratio_str(bk.bucket, grid),
                    "value": bk.bucket / grid,
                    "topic": bk.row.topic_id if bk.row else None,
                    "population": bk.population,
                    "row": _row_obj(bk.row) if bk.row else None,
                }
                for bk in b.unbiased.buckets
            ],
            "skipped": [{"topic": t, "reason": reason} for t, reason in b.unbiased.skipped],
        },
    }


_DERIVED_ENTRIES = {"summaries": _summary_entry, "histogram": _histogram_entry,
                    "scatter": _scatter_entry, "tables": _tables_entry}


def _derived(name: str, blocks: Sequence[ReportBlock]) -> list[dict]:
    """The document's section ``name``, one entry per block. Writing a report,
    checking a stored one and the CSV bundle all take their entries from here."""
    entry = _DERIVED_ENTRIES[name]
    return [{"source": b.source, "value": b.feature_value, **entry(b)} for b in blocks]


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


def _record_obj(item: EvaluatedTopic) -> dict:
    r = item.record
    m = r.cutoff_effective
    numerator, denominator = r.target_numerator, r.target_denominator
    return {
        "source": item.source,
        "topic": r.topic_id,
        "value": r.feature_value,
        "cutoff_requested": r.cutoff_requested,
        "cutoff_effective": m,
        "model_ratio": _grid_obj(r.model_count, m),
        "target_ratio_raw": _exact_obj(numerator, denominator),
        "rounding_remainder": _exact_obj(numerator * m % denominator, denominator),
        "target_ratio_at_cutoff": _grid_obj(r.ideal_count, m),
        "bias": _grid_obj(r.model_count - r.ideal_count, m),
        "unknown_in_window": r.unknown_in_window,
        "target_population": item.target_population,
    }


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _cells(entry: dict) -> list:
    """CSV cells of a JSON entry: ratio objects and lists spread over their
    own cells, flags as true/false and nulls as empty cells."""
    cells = []
    for value in entry.values():
        if type(value) is dict:
            cells.extend(value.values())
        elif type(value) is list:
            cells.extend(value)
        elif type(value) is bool:
            cells.append("true" if value else "false")
        else:
            cells.append("" if value is None else value)
    return cells


def report_to_csv_bundle(report: Report) -> dict[str, str]:
    """Render the report as named CSV files with fixed column orders; the
    rows are the entries of the JSON document, spread by ``_cells``."""
    # Records spread to source, topic, value, ...; the value column comes first.
    record_rows = [(c[0], c[2], c[1], *c[3:])
                   for c in map(_cells, map(_record_obj, report.records))]
    tables = _derived("tables", report.blocks)

    def table_rows(side: str) -> list:
        return [(t["source"], t["value"], rank, *_cells(row))
                for t in tables for rank, row in enumerate(t[side], start=1)]

    table_header = ("source", "value", "rank", "topic_id", "cutoff_effective",
                    "model_ratio", "model_ratio_value",
                    "target_ratio_at_cutoff", "target_ratio_at_cutoff_value",
                    "bias", "bias_value")
    return {
        "summaries.csv": _csv_text(
            ("source", "value", "topics", "MB", "MB_value", "SB_value",
             "MAB", "MAB_value", "min", "min_value", "max", "max_value",
             "single_sample", "sd_divisor"),
            [_cells(s) + [report.meta.sd_divisor]
             for s in _derived("summaries", report.blocks)]),
        "records.csv": _csv_text(
            ("source", "value", "topic_id", "cutoff_requested", "cutoff_effective",
             "model_ratio", "model_ratio_value",
             "target_ratio_raw", "target_ratio_raw_value",
             "rounding_remainder", "rounding_remainder_value",
             "target_ratio_at_cutoff", "target_ratio_at_cutoff_value",
             "bias", "bias_value", "unknown_in_window", "target_population"),
            record_rows),
        "histogram.csv": _csv_text(
            ("source", "value", "center", "center_value", "count",
             "reference_count"),
            [(h["source"], h["value"], *_cells(b))
             for h in _derived("histogram", report.blocks) for b in h["bins"]]),
        "scatter.csv": _csv_text(
            ("source", "value", "topic_id", "x", "x_value", "y", "y_value",
             "cell_i", "cell_j", "dx", "dy", "on_diagonal", "off_grid"),
            [(s["source"], s["value"], *_cells(p))
             for s in _derived("scatter", report.blocks) for p in s["points"]]),
        "table_towards.csv": _csv_text(table_header, table_rows("towards")),
        "table_against.csv": _csv_text(table_header, table_rows("against")),
        # Each bucket's cells end with its row, which this table leaves out.
        "table_unbiased.csv": _csv_text(
            ("source", "value", "bucket", "bucket_value", "topic_id", "population"),
            [(t["source"], t["value"], *_cells(b)[:4])
             for t in tables for b in t["unbiased"]["buckets"]]),
    }


def _typed_points(scatter: list) -> bool:
    """Whether a stored scatter section that equals the built one has its
    types: int cell items, bool flags and float values and offsets. Only
    numbers and flags can equal a value of another JSON type."""
    for block in scatter:
        for p in block["points"]:
            cell = p["cell"]
            if not (type(cell[0]) is type(cell[1]) is int
                    and type(p["on_diagonal"]) is type(p["off_grid"]) is bool
                    and type(p["x"]["value"]) is type(p["y"]["value"]) is float
                    and type(p["dx"]) is type(p["dy"]) is float):
                return False
    return True


def _first_difference(stored: list, built: list) -> int | None:
    return next((i for i, pair in enumerate(zip(stored, built)) if not live._same(*pair)),
                None)


def _check_section(payload: dict, name: str, report: Report, path: str) -> None:
    """The stored section ``name`` against the dict entries ``_derived``
    builds: the scatter with ``==`` and then its number and flag types, the
    other sections type-strictly as their JSON reads back."""
    stored = live._read_section(payload, name, path, lambda entry: entry)
    if name == "scatter":
        built = _derived("scatter", report.blocks)
        same = stored == built and _typed_points(stored)
    else:
        built = json.loads(json.dumps(_derived(name, report.blocks)))
        same = live._same(stored, built)
    if same:
        return
    i = _first_difference(stored, built)
    if i is None:
        raise ParseError(f"{len(stored)} entries, the records give {len(built)}",
                         path=path, field=name)
    points = stored[i].get("points") if name == "scatter" and type(stored[i]) is dict else None
    j = _first_difference(points, built[i]["points"]) if type(points) is list else None
    if j is None:
        raise ParseError("entry differs from the one the records give",
                         path=path, field=f"{name}[{i}]")
    block = report.blocks[i]
    raise ParseError(f"point differs from the one the record {block.source}/"
                     f"{block.feature_value}/{built[i]['points'][j]['topic']} gives",
                     path=path, field=f"scatter[{i}].points[{j}]")


def parse_report_whole(text: str, path: str = "<report>") -> Report:
    """``parse_report`` as it was when it decoded the whole text with
    ``json.loads`` and then walked the tree, with the per-entry readers of
    ``biaslens.report`` (meta, grid, record and skipped-topic readers). A
    repeated member, which ``json.loads`` lets the last of win, and an
    integer too long for ``int()``, which it cannot locate, are outside its
    reach; the streamed reader raises a located error for each."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", path=path) from None
    except ValueError:  # an integer too long for int()
        raise ParseError(f"invalid JSON: integer longer than {sys.get_int_max_str_digits()} "
                         "digits", path=path) from None
    if type(payload) is not dict:
        raise ParseError("a report document must be a JSON object", path=path)
    schema = payload.get("schema")
    if schema != SCHEMA:
        raise SchemaVersionError(
            f"{path}: unsupported schema {schema!r}, expected {SCHEMA!r}")
    try:
        meta = live._read_meta(payload["meta"])
    except live._MALFORMED as exc:
        raise live._malformed(exc, path, "meta") from None
    try:
        meta = replace(meta, exemplar_grid=live._read_grid(live._typed(payload, "tables", list)))
    except live._MALFORMED as exc:
        raise live._malformed(exc, path, "tables") from None
    seen: set[tuple[str, str, str]] = set()

    def read_record(obj: dict) -> EvaluatedTopic:
        item = live._read_record(obj)
        key = (item.source, item.record.feature_value, item.record.topic_id)
        if item.source not in meta.sources or key[1] not in meta.values:
            raise ValueError(f"source {key[0]!r} and value {key[1]!r} must be listed in meta")
        if item.record.cutoff_requested != meta.cutoff:
            raise ValueError(f"cutoff_requested must be meta's cutoff {meta.cutoff}")
        if key in seen:
            raise ValueError(f"repeats the record of {'/'.join(key)}")
        seen.add(key)
        return item

    records = live._read_section(payload, "records", path, read_record)
    try:
        # The rebuild allocates 2 * cutoff + 1 bins per block; the stored bins bound it.
        histogram = live._typed(payload, "histogram", list)
        bins = len(live._typed(histogram[0], "bins", list)) if histogram else 0
        if (histogram or records) and bins != 2 * meta.cutoff + 1:
            raise ValueError(f"{bins} bins in a block, the cutoff gives {2 * meta.cutoff + 1}")
    except live._MALFORMED as exc:
        raise live._malformed(exc, path, "histogram") from None
    report = live.build_report(meta, records, live._read_section(payload, "skipped", path,
                                                                 live._read_skipped))
    for name in ("scatter", "summaries", "histogram", "tables"):
        _check_section(payload, name, report, path)
    return report
