"""The report renderers as they were when every line was built as a dict:
the report.json renderer, whose entries went through the compact encoder,
and the CSV bundle, whose rows were those dicts spread into cells and
written by ``csv.writer``. They and the dict builders they read are kept
verbatim, and import from ``biaslens.report`` only its schema and data
classes, as the reference the text renderers in ``biaslens.report`` must
agree with, byte for byte. ``unit_open`` is the one-key draw that
``biaslens._util.unit_open_xy`` must agree with, bit for bit."""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Sequence

from biaslens._util import derive_seed, ratio_str, reduced_str
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
