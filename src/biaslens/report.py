"""Deterministic reporting artifacts built from bias records.

Everything here is plot-ready data, not rendered images: histogram bins on
the 1/n grid, jittered target-vs-model scatter points, ranked most-biased
tables, and per-bucket unbiased exemplars. Emission is byte-stable: given
the same records and seed, the JSON document and every CSV in the bundle
come out identical, and files are written atomically so a failed run never
leaves a partial report behind. Each line shape (summary, record, histogram
bin, scatter point, table row, exemplar bucket) has one definition, a
``_Shape`` field list: its JSON line, its CSV line and its CSV header are
all built from it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, groupby, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .errors import ParseError, SchemaVersionError
from ._jsonwalk import _JsonCursor, _decode_value, _entries, _scan, located
from .metrics import BiasRecord, BiasSummary, aggregate
from ._util import (atomic_write, lone_surrogate, ratio_str, reduced_str, round_half_away,
                    unit_open_xy)

SCHEMA = "biaslens-report/1"

JSON_NAME = "report.json"
CSV_NAMES = ("summaries.csv", "records.csv", "histogram.csv", "scatter.csv",
             "table_towards.csv", "table_against.csv", "table_unbiased.csv")


@dataclass(frozen=True)
class HistogramSpec:
    """Bias histogram with bins centered on k/cutoff for k in [-cutoff, cutoff].

    Records measured at a shorter effective window land in the nearest bin
    and their topics are flagged. ``reference_counts`` is the bias-free
    comparison shape: all mass in the zero bin.
    """

    cutoff: int
    feature_value: str
    counts: tuple[int, ...]
    reference_counts: tuple[int, ...]
    off_grid_topics: tuple[str, ...]


@dataclass(frozen=True)
class ScatterPoint:
    """One record in target-vs-model space: x is its attainable target ratio,
    y its model ratio, snapped to the 1/cutoff cell grid.

    ``dx``/``dy`` are deterministic jitter offsets strictly inside the half
    cell, a pure function of (seed, topic, value), so points sharing a cell
    stay distinguishable without ever leaving their square.
    """

    record: BiasRecord
    cell: tuple[int, int]
    dx: float
    dy: float
    on_diagonal: bool
    off_grid: bool


@dataclass(frozen=True)
class RankedTables:
    """Top-k most biased topics in both directions, zero-bias rows excluded."""

    requested_size: int
    towards: tuple[BiasRecord, ...]
    against: tuple[BiasRecord, ...]
    towards_short: bool
    against_short: bool


@dataclass(frozen=True)
class ExemplarBucket:
    """Target ratios bucket/grid; ``row`` is the exemplar, None for a gap."""

    bucket: int
    row: BiasRecord | None
    population: int | None


@dataclass(frozen=True)
class ExemplarTable:
    """One unbiased exemplar per target-ratio bucket; gaps stay explicit."""

    grid: int
    buckets: tuple[ExemplarBucket, ...]
    skipped: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class EvaluatedTopic:
    """A bias record plus its target source and reference-population size."""

    source: str
    target_population: int
    record: BiasRecord


@dataclass(frozen=True)
class SkippedTopic:
    topic_id: str
    source: str
    reason: str
    detail: str


@dataclass(frozen=True)
class ReportMeta:
    seed: int
    cutoff: int
    feature_name: str
    values: tuple[str, ...]
    unknown_token: str
    sources: tuple[str, ...]
    strict: bool
    table_size: int
    sd_divisor: str
    exemplar_grid: int = 10


@dataclass(frozen=True)
class ReportBlock:
    source: str
    feature_value: str
    summary: BiasSummary
    histogram: HistogramSpec
    scatter: tuple[ScatterPoint, ...]
    tables: RankedTables
    unbiased: ExemplarTable


@dataclass(frozen=True)
class Report:
    meta: ReportMeta
    records: tuple[EvaluatedTopic, ...]
    blocks: tuple[ReportBlock, ...]
    skipped: tuple[SkippedTopic, ...]


def build_histogram(records: Sequence[BiasRecord], value: str,
                    n: int) -> HistogramSpec:
    """Bin per-topic biases onto the 1/n grid, flagging short-window topics."""
    if not records:
        raise ValueError("cannot build a histogram from zero records")
    counts = [0] * (2 * n + 1)
    off_grid = []
    for record in records:
        k = round_half_away(record.bias_count * n, record.cutoff_effective)
        counts[k + n] += 1
        if record.cutoff_effective != n:
            off_grid.append(record.topic_id)
    reference = [0] * (2 * n + 1)
    reference[n] = len(records)
    return HistogramSpec(cutoff=n, feature_value=value, counts=tuple(counts),
                         reference_counts=tuple(reference),
                         off_grid_topics=tuple(sorted(off_grid)))


def build_scatter(records: Sequence[BiasRecord], value: str, n: int,
                  seed: int) -> tuple[ScatterPoint, ...]:
    """Target-vs-model points with deterministic in-cell jitter, by topic.
    The jitter digests each topic and ``value`` as UTF-8, so one that holds
    a lone surrogate is a ValueError."""
    if not records:
        raise ValueError("cannot build a scatter from zero records")
    points = []
    ordered = sorted(records, key=lambda r: r.topic_id)
    draws = unit_open_xy(seed, ((r.topic_id, value) for r in ordered))
    try:
        for record, (ux, uy) in zip(ordered, draws):
            m = record.cutoff_effective
            ideal, model = record.ideal_count, record.model_count
            points.append(ScatterPoint(
                record=record,
                cell=(round_half_away(ideal * n, m), round_half_away(model * n, m)),
                dx=(ux - 0.5) / n,
                dy=(uy - 0.5) / n,
                on_diagonal=model == ideal,
                off_grid=m != n,
            ))
    except UnicodeEncodeError:
        text = next(t for t in (value, *(r.topic_id for r in ordered)) if lone_surrogate(t))
        raise ValueError(f"{text!r} holds a lone surrogate") from None
    return tuple(points)


def ranked_bias_table(records: Sequence[BiasRecord], value: str,
                      k: int) -> RankedTables:
    """Top-k topics most biased towards and against ``value``.

    Ties on bias break by the larger gap between model ratio and the raw
    target ratio, then by topic id, so the ordering is a total order. Tables
    come out shorter than k when fewer biased topics exist; that is flagged,
    not an error.
    """
    if k < 1:
        raise ValueError(f"table size must be >= 1, got {k}")
    grid = math.lcm(*{r.cutoff_effective for r in records})
    towards, towards_count = _most_biased(records, k, grid, 1)
    against, against_count = _most_biased(records, k, grid, -1)
    return RankedTables(
        requested_size=k,
        towards=tuple(towards),
        against=tuple(against),
        towards_short=towards_count < k,
        against_short=against_count < k,
    )


def _raw_gap(record: BiasRecord) -> Fraction:
    """|model ratio - raw target ratio|, the first tie-break of equal biases."""
    m, denominator = record.cutoff_effective, record.target_denominator
    return Fraction(abs(record.model_count * denominator - record.target_numerator * m),
                    m * denominator)


def _most_biased(records: Sequence[BiasRecord], k: int, grid: int,
                 sign: int) -> tuple[list[BiasRecord], int]:
    """The k records with the largest positive sign * bias, in table order,
    and the number of such records.

    Biases compare as integers on the common ``grid``. The exact tie-break
    is computed only for records at or beyond the k-th strongest bias.
    """
    biased = [(sign * r.bias_count * (grid // r.cutoff_effective), r) for r in records]
    biased = [pair for pair in biased if pair[0] > 0]
    contenders = biased
    if len(biased) > k:
        threshold = sorted((strength for strength, _ in biased), reverse=True)[k - 1]
        contenders = [pair for pair in biased if pair[0] >= threshold]
    contenders.sort(key=lambda pair: (-pair[0], -_raw_gap(pair[1]), pair[1].topic_id))
    return [r for _, r in contenders[:k]], len(biased)


def unbiased_exemplars(records: Sequence[BiasRecord],
                       populations: Mapping[str, int],
                       *, grid: int = 10) -> ExemplarTable:
    """Pick, per target-ratio bucket, the most populous bias-free topic.

    Buckets span the 1/grid steps from 0 to 1 (half-way ratios round away
    from zero). Bias-free topics without a known population are skipped with
    a per-topic warning entry; empty buckets stay in the output as gaps.
    """
    best: dict[int, ExemplarBucket] = {}
    skipped = []
    for record in sorted(records, key=lambda r: r.topic_id):
        if record.model_count != record.ideal_count:
            continue
        population = populations.get(record.topic_id)
        if population is None:
            skipped.append((record.topic_id, "missing-population"))
            continue
        index = round_half_away(record.ideal_count * grid, record.cutoff_effective)
        held = best.get(index)
        if held is None or population > held.population:
            best[index] = ExemplarBucket(bucket=index, row=record, population=population)
    buckets = tuple(best.get(i) or ExemplarBucket(i, None, None) for i in range(grid + 1))
    return ExemplarTable(grid=grid, buckets=buckets, skipped=tuple(skipped))


def _groups(meta: ReportMeta, evaluated: Sequence[EvaluatedTopic]
            ) -> Iterator[tuple[str, str, list[BiasRecord], dict[str, int]]]:
    """(source, value, records, populations) of each block, in block order:
    one per (source, value) pair of ``meta`` with at least one record."""
    grouped: dict[tuple[str, str], list[EvaluatedTopic]] = {}
    for item in evaluated:
        grouped.setdefault((item.source, item.record.feature_value), []).append(item)
    for source in sorted(meta.sources):
        for value in meta.values:
            group = grouped.get((source, value))
            if group:
                yield (source, value, [g.record for g in group],
                       {g.record.topic_id: g.target_population for g in group})


def build_report(meta: ReportMeta, evaluated: Sequence[EvaluatedTopic],
                 skipped: Sequence[SkippedTopic] = ()) -> Report:
    """Assemble the full report: summaries, histograms, scatters and tables.

    Blocks exist per (source, value) pair that produced at least one record.
    All orderings are fixed (sources and topics sorted, values in scheme
    order) so the result is independent of evaluation order.
    """
    evaluated = tuple(sorted(
        evaluated, key=lambda e: (e.source, e.record.feature_value, e.record.topic_id)))
    blocks = tuple(
        ReportBlock(
            source=source,
            feature_value=value,
            summary=aggregate(records, value, source,
                              population_sd=meta.sd_divisor == "population"),
            histogram=build_histogram(records, value, meta.cutoff),
            scatter=build_scatter(records, value, meta.cutoff, meta.seed),
            tables=ranked_bias_table(records, value, meta.table_size),
            unbiased=unbiased_exemplars(records, populations, grid=meta.exemplar_grid),
        )
        for source, value, records, populations in _groups(meta, evaluated))
    ordered_skips = tuple(sorted(skipped, key=lambda s: (s.source, s.topic_id)))
    return Report(meta=meta, records=evaluated, blocks=blocks, skipped=ordered_skips)


def rebuild_report(report: Report, *, table_size: int | None = None,
                   exemplar_grid: int | None = None) -> Report:
    """Re-rank the tables and exemplars of ``report``; ``None`` keeps its table
    size or exemplar grid. The other sections depend only on the records,
    cutoff, seed and standard-deviation divisor, so they are kept."""
    changes = {"table_size": table_size, "exemplar_grid": exemplar_grid}
    meta = replace(report.meta, **{k: v for k, v in changes.items() if v is not None})
    blocks = tuple(
        replace(block, tables=ranked_bias_table(records, value, meta.table_size),
                unbiased=unbiased_exemplars(records, populations, grid=meta.exemplar_grid))
        for block, (_, value, records, populations)
        in zip(report.blocks, _groups(meta, report.records), strict=True))
    return replace(report, meta=meta, blocks=blocks)


# ---------------------------------------------------------------------------
# JSON document
# ---------------------------------------------------------------------------

def report_to_json(report: Report) -> str:
    """Render the report as the versioned JSON document (byte-stable)."""
    return "".join(_json_pieces(report))


def _json_pieces(report: Report) -> list[str]:
    """The text of ``report_to_json`` as the pieces that make it up in order.

    Each line of an array of objects is written by its shape's field list,
    which the CSV bundle shares, each ratio object encoded once per distinct
    (numerator, denominator). A point's line holds its ``_point_values``, in
    that order, which ``parse_report`` compares.
    """
    meta = report.meta
    grid, exact = _RatioTexts(ratio_str, _JSON_RATIO), _RatioTexts(reduced_str, _JSON_RATIO)
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
        "summaries": _summaries(report.blocks),
        "records": _RECORD.json(_record_cells(report.records, _string, grid, exact)),
        "histogram": _histogram(report.blocks),
        "scatter": [{"source": b.source, "value": b.feature_value,
                     "points": _POINT.json(_point_cells((b,), _string, exact))}
                    for b in report.blocks],
        "tables": _tables(report.blocks),
        "skipped": [
            {"topic": s.topic_id, "source": s.source, "reason": s.reason,
             "detail": s.detail}
            for s in report.skipped
        ],
    }
    pieces: list[str] = []
    _layout(payload, pieces)
    pieces.append("\n")
    return pieces


# The sections that parse_report also reads back from their text to compare.
def _summaries(blocks: Sequence[ReportBlock]) -> _Lines:
    return _SUMMARY.json(_summary_cells(blocks, _string, _RatioTexts(reduced_str, _JSON_RATIO)))


def _histogram(blocks: Sequence[ReportBlock]) -> list[dict]:
    return [{"source": b.source, "value": b.feature_value, "cutoff": b.histogram.cutoff,
             "bins": _BIN.json(_bin_cells((b,), _string)),
             "off_grid_topics": list(b.histogram.off_grid_topics)} for b in blocks]


def _tables(blocks: Sequence[ReportBlock]) -> list[dict]:
    grid = _RatioTexts(ratio_str, _JSON_RATIO)
    return [{
        "source": b.source,
        "value": b.feature_value,
        "k": b.tables.requested_size,
        "towards": _ROW.json(_row_cells([(b, b.tables.towards)], _string, grid)),
        "against": _ROW.json(_row_cells([(b, b.tables.against)], _string, grid)),
        "towards_short": b.tables.towards_short,
        "against_short": b.tables.against_short,
        "unbiased": {
            "grid": b.unbiased.grid,
            "buckets": _BUCKET.json(_bucket_cells((b,), _string, "null", grid)),
            "skipped": [{"topic": t, "reason": reason} for t, reason in b.unbiased.skipped],
        },
    } for b in blocks]


# CPython encodes in C only when no indent is given, so entries go through a
# compact encoder and only the lines around them are written here.
_encode = json.JSONEncoder(ensure_ascii=False).encode
# The string encoder of ``_encode``; it returns the quoted JSON string.
_string = json.encoder.encode_basestring
_BOOLS = ("false", "true")


# The ratio object's text in a JSON line, and its two cells in a CSV line.
# A ratio string holds only digits, "-" and "/", so it needs no escaping.
_JSON_RATIO = '{"ratio": "%s", "value": %r}'
_CSV_RATIO = "%s,%r"


class _RatioTexts(dict):
    """Text of the ratio of each (numerator, denominator) key, written by
    ``template`` from the ratio string that ``rendered`` gives (``ratio_str``
    on the grid, ``reduced_str`` exact) and the float, on its first lookup."""

    def __init__(self, rendered, template: str) -> None:
        self.rendered = rendered
        self.template = template

    def __missing__(self, key: tuple[int, int]) -> str:
        numerator, denominator = key
        text = self[key] = self.template % (self.rendered(numerator, denominator),
                                            numerator / denominator)
        return text


class _Lines(list):
    """Array entries already rendered as compact JSON lines."""


_CSV_CHUNK = 128  # CSV lines per piece written


class _Shape:
    """A line shape whose JSON line, CSV line and CSV header are all built from
    ``fields``: the cells its cells function yields, each a JSON key (None
    for a CSV-only cell) and the CSV columns its text fills, in column order
    ("" for a JSON-only cell, which comes last and which the cells function
    yields only for JSON). JSON holds keyed cells in field order,
    ``json_first`` keys first, and cells of one key in a row as a list.
    ``%s`` writes numbers as json and csv do."""

    def __init__(self, *fields: tuple[str | None, str],
                 json_first: tuple[str, ...] = ()) -> None:
        self.header = ",".join(c for _, columns in fields for c in columns.split()) + "\r\n"
        self.csv_line = ",".join(["%s" for _, columns in fields if columns]) + "\r\n"
        keyed = sorted((i for i, (key, _) in enumerate(fields) if key),
                       key=lambda i: fields[i][0] not in json_first)
        members = []
        for key, cells in groupby(keyed, lambda i: fields[i][0]):
            value = ", ".join("%s" for _ in cells)
            members.append(f'"{key}": {value}' if value == "%s" else f'"{key}": [{value}]')
        self.json_line = "{" + ", ".join(members) + "}"
        self.json_cells = itemgetter(*keyed)

    def json(self, cells: Iterable[tuple]) -> _Lines:
        line, pick = self.json_line, self.json_cells
        return _Lines([line % pick(c) for c in cells])

    def pattern(self, *kinds: str) -> str:
        """The text of a regular expression that matches the JSON line as
        ``json`` writes it, each ``%s`` a cell of the kind (a key of
        ``_GROUPS``) at its place in ``kinds``, held in that kind's groups."""
        return re.escape(self.json_line) % tuple(_GROUPS[kind] for kind in kinds)

    def csv(self, cells: Iterable[tuple]) -> Iterator[str]:
        """The CSV header, then the lines of ``cells``, made as they are read
        and joined ``_CSV_CHUNK`` at a time: one write per line costs more
        than the join."""
        line, cells = self.csv_line, iter(cells)
        yield self.header
        while chunk := "".join([line % c for c in islice(cells, _CSV_CHUNK)]):
            yield chunk


# records.csv puts the value column before topic_id, and a JSON record its
# topic before its value; the golden digests pin both orders.
_RECORD = _Shape(
    ("source", "source"), ("value", "value"), ("topic", "topic_id"),
    ("cutoff_requested", "cutoff_requested"), ("cutoff_effective", "cutoff_effective"),
    ("model_ratio", "model_ratio model_ratio_value"),
    ("target_ratio_raw", "target_ratio_raw target_ratio_raw_value"),
    ("rounding_remainder", "rounding_remainder rounding_remainder_value"),
    ("target_ratio_at_cutoff", "target_ratio_at_cutoff target_ratio_at_cutoff_value"),
    ("bias", "bias bias_value"), ("unknown_in_window", "unknown_in_window"),
    ("target_population", "target_population"), json_first=("source", "topic"))
# A point's, bin's, row's or bucket's JSON line sits in its block's entry;
# its CSV file repeats the block's source and value on each line.
_POINT = _Shape(
    (None, "source"), (None, "value"), ("topic", "topic_id"), ("x", "x x_value"),
    ("y", "y y_value"), ("cell", "cell_i"), ("cell", "cell_j"), ("dx", "dx"), ("dy", "dy"),
    ("on_diagonal", "on_diagonal"), ("off_grid", "off_grid"))
_SUMMARY = _Shape(
    ("source", "source"), ("value", "value"), ("topics", "topics"), ("MB", "MB MB_value"),
    ("SB", "SB_value"), ("MAB", "MAB MAB_value"), ("min", "min min_value"),
    ("max", "max max_value"), ("single_sample", "single_sample"), (None, "sd_divisor"))
_BIN = _Shape(
    (None, "source"), (None, "value"), ("center", "center"), ("value", "center_value"),
    ("count", "count"), ("reference_count", "reference_count"))
_ROW = _Shape(
    (None, "source"), (None, "value"), (None, "rank"), ("topic", "topic_id"),
    ("cutoff_effective", "cutoff_effective"), ("model_ratio", "model_ratio model_ratio_value"),
    ("target_ratio_at_cutoff", "target_ratio_at_cutoff target_ratio_at_cutoff_value"),
    ("bias", "bias bias_value"))
_BUCKET = _Shape(
    (None, "source"), (None, "value"), ("bucket", "bucket"), ("value", "bucket_value"),
    ("topic", "topic_id"), ("population", "population"), ("row", ""))


# The group of each kind of cell in a ``_Shape.pattern``, as evaluate writes
# it: a string with no escape, control character or surrogate, which is its
# own value; an integer of at most 18 digits, which int() converts (a longer
# one is left to json's scanner, which names its line); a float, with a
# fraction or an exponent; a flag; and a ratio object, its ratio string
# written as _RATIO reads it, with a denominator >= 1, then that string's
# numerator and denominator (None when it is an integer), and its float.
_FLOAT = r"(-?(?:0|[1-9][0-9]*+)(?:\.[0-9]++(?:[eE][-+]?[0-9]++)?|[eE][-+]?[0-9]++))"
_GROUPS = {"string": r'"([^"\\\x00-\x1f\ud800-\udfff]*+)"',
           "integer": r"(-?(?:0|[1-9][0-9]{0,17}))", "float": _FLOAT, "bool": "(true|false)",
           "ratio": re.escape(_JSON_RATIO).replace("%r", "%s") % (
               r"((-?[0-9]{1,18})(?:/([1-9][0-9]{0,17}))?)", _FLOAT)}
# A record's line: three strings, two integers, five ratios and two integers.
_RECORD_LINE = _RECORD.pattern(*["string"] * 3, *["integer"] * 2, *["ratio"] * 5,
                               *["integer"] * 2)
# A point's line: topic, x, y, cell, dx, dy and the two flags.
_POINT_LINE = _POINT.pattern("string", "ratio", "ratio", "integer", "integer", "float",
                             "float", "bool", "bool")


def _record_cells(records: Iterable[EvaluatedTopic], string, grid: _RatioTexts,
                  exact: _RatioTexts) -> Iterator[tuple]:
    """``_RECORD`` cells, from the format's string encoder and ratio memos."""
    for item in records:
        r = item.record
        m, model, ideal = r.cutoff_effective, r.model_count, r.ideal_count
        numerator, denominator = r.target_numerator, r.target_denominator
        yield (string(item.source), string(r.feature_value), string(r.topic_id),
               r.cutoff_requested, m, grid[model, m], exact[numerator, denominator],
               exact[numerator * m % denominator, denominator], grid[ideal, m],
               grid[model - ideal, m], r.unknown_in_window, item.target_population)


def _point_cells(blocks: Iterable[ReportBlock], string, exact: _RatioTexts
                 ) -> Iterator[tuple]:
    for b in blocks:
        source, value = string(b.source), string(b.feature_value)
        for p in b.scatter:
            r, (i, j) = p.record, p.cell
            m = r.cutoff_effective
            yield (source, value, string(r.topic_id), exact[r.ideal_count, m],
                   exact[r.model_count, m], i, j, p.dx, p.dy, _BOOLS[p.on_diagonal],
                   _BOOLS[p.off_grid])


def _summary_cells(blocks: Iterable[ReportBlock], string, exact: _RatioTexts
                   ) -> Iterator[tuple]:
    for b in blocks:
        s = b.summary
        yield (string(b.source), string(b.feature_value), s.topic_count,
               exact[s.mean_bias.as_integer_ratio()], s.stdev_bias,
               exact[s.mean_abs_bias.as_integer_ratio()], exact[s.min_bias.as_integer_ratio()],
               exact[s.max_bias.as_integer_ratio()], _BOOLS[s.single_sample],
               "population" if s.population_sd else "sample")


def _bin_cells(blocks: Iterable[ReportBlock], string) -> Iterator[tuple]:
    for b in blocks:
        source, value, n = string(b.source), string(b.feature_value), b.histogram.cutoff
        for k, count, reference in zip(range(-n, n + 1), b.histogram.counts,
                                       b.histogram.reference_counts):
            yield source, value, string(ratio_str(k, n)), k / n, count, reference


def _row_cells(tables: Iterable[tuple[ReportBlock, Sequence[BiasRecord]]], string,
               grid: _RatioTexts) -> Iterator[tuple]:
    """``_ROW`` cells of each (block, table) pair, the table ranked from 1."""
    for b, table in tables:
        source, value = string(b.source), string(b.feature_value)
        for rank, r in enumerate(table, start=1):
            m, model, ideal = r.cutoff_effective, r.model_count, r.ideal_count
            yield (source, value, rank, string(r.topic_id), m, grid[model, m],
                   grid[ideal, m], grid[model - ideal, m])


def _bucket_cells(blocks: Iterable[ReportBlock], string, null: str,
                  grid: _RatioTexts | None = None) -> Iterator[tuple]:
    """``_BUCKET`` cells, each of a gap ``null``. Only with a JSON ``grid``
    memo do they end in the row cell, the ``_ROW`` line of the bucket's record."""
    for b in blocks:
        source, value, n = string(b.source), string(b.feature_value), b.unbiased.grid
        for bk in b.unbiased.buckets:
            bucket = (source, value, string(ratio_str(bk.bucket, n)), bk.bucket / n)
            r = bk.row
            if r is None:
                yield (*bucket, null, null) if grid is None else (*bucket, null, null, null)
            elif grid is None:
                yield (*bucket, string(r.topic_id), bk.population)
            else:
                yield (*bucket, string(r.topic_id), bk.population,
                       _ROW.json(_row_cells([(b, (r,))], string, grid))[0])


def _spread(value) -> bool:
    """Whether ``value`` is a non-empty list of objects or of rendered lines."""
    return bool(value) and (type(value) is _Lines
                            or type(value) is list and type(value[0]) is dict)


def _layout(value, pieces: list[str], indent: str | None = "") -> None:
    """Append the JSON text of ``value`` to ``pieces``. The top level, and any
    container that is or directly holds a non-empty list of objects or a
    non-empty ``_Lines``, puts one member or entry per line with a 2-space
    indent; everything else is one compact line, as with ``indent`` None. A
    ``_Lines`` holds each of its entries as a rendered line, in a compact line
    too; its lines go into ``pieces`` as they are, with no joined copy."""
    members = value.values() if type(value) is dict else (value,)
    if indent is None or indent and not any(map(_spread, members)):
        if type(value) is not dict and type(value) is not _Lines:
            pieces.append(_encode(value))
            return
        inner, first, sep, last = None, "", ", ", ""
    else:
        inner = indent + "  "
        first, sep, last = "\n" + inner, ",\n" + inner, "\n" + indent
    if type(value) is dict:
        pieces.append("{" + first)
        for i, (key, v) in enumerate(value.items()):
            pieces.append(f"{sep if i else ''}{_encode(key)}: ")
            _layout(v, pieces, inner)
        pieces.append(last + "}")
        return
    pieces.append("[" + first)
    if type(value) is _Lines:
        # sep, line, sep, line, ...: every line but the first after a sep.
        pieces += islice(chain.from_iterable(zip(repeat(sep), value)), 1, None)
    else:
        for i, v in enumerate(value):
            if i:
                pieces.append(sep)
            _layout(v, pieces, inner)
    pieces.append(last + "]")


# Everything a malformed document can raise while it is read; parse_report
# turns each into a ParseError that names the section.
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError, IndexError,
              ZeroDivisionError)


def _typed(obj: dict, key: str, kind: type):
    return _kind(key, obj[key], kind)


_ABSENT = object()  # a member that a decoded record lacks


def _kind(key: str, value, kind: type):
    """``value``, the member ``key``, checked to be of type ``kind``."""
    if value is _ABSENT:
        raise KeyError(key)
    if type(value) is not kind:
        raise TypeError(f"{key} must be {kind.__name__}, got {value!r}")
    if kind is str and lone_surrogate(value):
        raise ValueError(f"{key} holds a lone surrogate: {value!r}")
    return value


# A ratio as evaluate writes it: an ASCII integer, or "p/q" of two.
_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?").fullmatch


def _read_pair(obj: dict) -> tuple[int, int]:
    """Numerator and denominator of a {"ratio": "p/q"} object, as written."""
    text = _typed(obj, "ratio", str)
    match = _RATIO(text)
    if match is None:
        raise ValueError(f"ratio {text!r} is not written as p/q or an integer")
    numerator, denominator = match.groups("1")
    pair = int(numerator), int(denominator)
    if pair[1] < 1:
        raise ValueError(f"ratio {text!r} has a non-positive denominator")
    return pair


def _read_count(pair: tuple[int, int], key: str, grid: int) -> int:
    """Numerator on the 1/grid grid of the ratio ``key`` read as ``pair``."""
    numerator, denominator = pair
    count, rest = divmod(numerator * grid, denominator)
    if rest:
        raise ValueError(f"{key} {numerator}/{denominator} is not on the 1/{grid} grid")
    return count


def _read_meta(m: dict) -> ReportMeta:
    meta = ReportMeta(
        seed=_typed(m, "seed", int), cutoff=_typed(m, "cutoff", int),
        feature_name=_typed(m, "feature", str),
        values=tuple(_typed(m, "values", list)),
        unknown_token=_typed(m, "unknown_token", str),
        sources=tuple(_typed(m, "sources", list)), strict=_typed(m, "strict", bool),
        table_size=_typed(m, "table_size", int), sd_divisor=_typed(m, "sd_divisor", str),
    )
    if not all(type(name) is str for name in meta.values + meta.sources):
        raise TypeError("values and sources must be lists of strings")
    if any(map(lone_surrogate, meta.values + meta.sources)):
        raise ValueError("values and sources must hold no lone surrogate")
    if meta.cutoff < 1 or meta.table_size < 1:
        raise ValueError("cutoff and table_size must be >= 1")
    if meta.sd_divisor not in ("sample", "population"):
        raise ValueError(f"sd_divisor must be sample or population, got {meta.sd_divisor!r}")
    if (evaluation := m.get("evaluation", "one-vs-rest")) != "one-vs-rest":
        raise ValueError(f"evaluation must be one-vs-rest, got {evaluation!r}")
    return meta


def _read_grid(tables: list) -> int:
    """The exemplar grid of a stored tables section; 10 when it has no blocks."""
    if not tables:
        return 10
    unbiased = _typed(tables[0], "unbiased", dict)
    grid = _typed(unbiased, "grid", int)
    # The stored buckets bound the grid, so a forged one cannot make the
    # rebuild allocate more than the document already holds.
    if not 1 <= grid == len(_typed(unbiased, "buckets", list)) - 1:
        raise ValueError(f"exemplar grid must be >= 1 with grid + 1 buckets, got {grid}")
    return grid


# The ratio objects of a record, in the order of its line.
_RECORD_RATIOS = ("model_ratio", "target_ratio_raw", "rounding_remainder",
                  "target_ratio_at_cutoff", "bias")


def _read_record(obj: dict) -> EvaluatedTopic:
    """The EvaluatedTopic of a decoded record, its members type-checked as
    ``_record_of`` takes them; a member it lacks is passed as ``_ABSENT``."""
    m = _typed(obj, "cutoff_effective", int)
    pairs = [_read_pair(obj[key]) for key in _RECORD_RATIOS]
    return _record_of(_typed(obj, "topic", str), _typed(obj, "value", str),
                      _typed(obj, "cutoff_requested", int), m, pairs,
                      [obj[key].get("value", _ABSENT) for key in _RECORD_RATIOS],
                      *(obj.get(key, _ABSENT) for key in ("unknown_in_window", "source",
                                                          "target_population")))


def _record_of(topic: str, value: str, requested: int, m: int,
               pairs: list[tuple[int, int]], values: list, unknown, source,
               population) -> EvaluatedTopic:
    """The EvaluatedTopic of a record's members, with its ratio objects'
    pairs and stored values in ``_RECORD_RATIOS`` order. ``unknown``,
    ``source`` and ``population`` are type-checked here, among the other
    checks, so that a record's first failed check is the one named."""
    record = BiasRecord(
        topic, value, requested, m, _read_count(pairs[0], "model_ratio", m),
        _read_count(pairs[3], "target_ratio_at_cutoff", m), *pairs[1],
        _kind("unknown_in_window", unknown, int))
    if _read_count(pairs[4], "bias", m) != record.bias_count:
        raise ValueError("bias must equal model_ratio - target_ratio_at_cutoff")
    remainder, remainder_denominator = pairs[2]
    expected = record.target_numerator * m % record.target_denominator
    if remainder * record.target_denominator != expected * remainder_denominator:
        raise ValueError(f"rounding_remainder does not match target_ratio_raw on the "
                         f"1/{m} grid")
    for key, (p, q), stored in zip(_RECORD_RATIOS, pairs, values):
        if stored is _ABSENT:
            raise KeyError("value")
        if stored != p / q or type(stored) is not float:
            raise ValueError(f"{key} value must be {p}/{q} as a float, got {stored!r}")
    return EvaluatedTopic(source=_kind("source", source, str),
                          target_population=_kind("target_population", population, int),
                          record=record)


def _matched_record(match: re.Match[str]) -> EvaluatedTopic:
    """The EvaluatedTopic of a record line that ``_RECORD_LINE`` matched, its
    groups converted as json decodes them and its ratios as ``_read_pair``
    reads them. A line that ``_record_of`` rejects is decoded and read by
    ``_read_record``, whose error names it."""
    source, topic, value, requested, m, *ratios, unknown, population = match.groups("1")
    try:
        return _record_of(topic, value, int(requested), int(m),
                          list(zip(map(int, ratios[1::4]), map(int, ratios[2::4]))),
                          list(map(float, ratios[3::4])), int(unknown), source, int(population))
    except _MALFORMED:
        return _read_record(_decode_value(match.group())[0])


def _read_skipped(s: dict) -> SkippedTopic:
    return SkippedTopic(topic_id=_typed(s, "topic", str), source=_typed(s, "source", str),
                        reason=_typed(s, "reason", str), detail=_typed(s, "detail", str))


def _malformed(exc: Exception, path: str, where: str) -> ParseError:
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return ParseError(detail, path=path, field=where)


def _read_section(payload: dict, name: str, path: str, read) -> list:
    """``read`` applied to each entry of the list ``payload[name]``, which is
    taken out of ``payload`` to free it early. Any malformation becomes a
    ParseError naming the section and the entry."""
    index = None
    try:
        entries = _typed(payload, name, list)
        del payload[name]
        result = []
        for index, entry in enumerate(entries):
            result.append(read(entry))
        return result
    except _MALFORMED as exc:
        raise _malformed(exc, path, name if index is None else f"{name}[{index}]") from None


def _same(a, b) -> bool:
    """Whether ``a`` equals ``b`` with the same JSON type at every level, so
    that 0, 0.0 and false differ; object members may come in any order."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same(v, b[k]) for k, v in a.items())
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


# The members of a stored point, and of its x and y ratio objects.
_POINT_KEYS = frozenset(("topic", "x", "y", "cell", "dx", "dy", "on_diagonal", "off_grid"))
_RATIO_KEYS = frozenset(("ratio", "value"))


def _point_values(p: ScatterPoint) -> tuple:
    """The values of a point's JSON line, flat and in its order."""
    r, m = p.record, p.record.cutoff_effective
    return (r.topic_id, reduced_str(r.ideal_count, m), r.ideal_count / m,
            reduced_str(r.model_count, m), r.model_count / m, *p.cell, p.dx, p.dy,
            p.on_diagonal, p.off_grid)


def _stored_point(p: object) -> tuple | None:
    """The ``_point_values`` of a decoded point that has exactly a point's
    members, x and y exactly a ratio and a value, and a cell of two items,
    with their types: int cell items, bool flags and float values and
    offsets (only numbers and flags can equal a value of another JSON type).
    None, which no built point equals, for anything else."""
    if type(p) is not dict or p.keys() != _POINT_KEYS:
        return None
    x, y, cell = p["x"], p["y"], p["cell"]
    if (type(x) is type(y) is dict and x.keys() == y.keys() == _RATIO_KEYS
            and type(cell) is list and len(cell) == 2
            and type(cell[0]) is type(cell[1]) is int
            and type(p["on_diagonal"]) is type(p["off_grid"]) is bool
            and type(x["value"]) is type(y["value"]) is type(p["dx"]) is type(p["dy"]) is float):
        return (p["topic"], x["ratio"], x["value"], y["ratio"], y["value"], *cell, p["dx"],
                p["dy"], p["on_diagonal"], p["off_grid"])
    return None


def _check_scatter(stored: list, report: Report, path: str) -> None:
    """Compare the stored scatter, each point read as its ``_stored_point``,
    with the one ``report`` writes, point by point as each built point's
    ``_point_values`` are made. A ParseError names the first entry that
    differs and, within it, the first point, and so the record that
    disagrees."""
    for i, (entry, block) in enumerate(zip(stored, report.blocks)):
        points = entry.get("points") if type(entry) is dict else None
        if type(points) is not list:
            raise ParseError("entry differs from the one the records give",
                             path=path, field=f"scatter[{i}]")
        for j, (point, made) in enumerate(zip(points, map(_point_values, block.scatter))):
            if point != made:
                raise ParseError(f"point differs from the one the record {block.source}/"
                                 f"{block.feature_value}/{made[0]} gives",
                                 path=path, field=f"scatter[{i}].points[{j}]")
        if len(points) != len(block.scatter) or entry != {
                "source": block.source, "value": block.feature_value, "points": points}:
            raise ParseError("entry differs from the one the records give",
                             path=path, field=f"scatter[{i}]")
    if len(stored) != len(report.blocks):
        raise ParseError(f"{len(stored)} entries, the records give {len(report.blocks)}",
                         path=path, field="scatter")


def _check_section(payload: dict, name: str, report: Report, path: str) -> None:
    """Compare the stored section ``name`` with the one ``report`` writes,
    type-strictly: 0, 0.0 and false differ. A ParseError names the first
    entry that differs. The scatter, one point per record, is compared by
    ``_check_scatter``; the other sections are compared with their written
    JSON as it reads back."""
    stored = _read_section(payload, name, path, lambda entry: entry)
    if name == "scatter":
        _check_scatter(stored, report, path)
        return
    written = {"summaries": _summaries, "histogram": _histogram, "tables": _tables}[name]
    pieces: list[str] = []
    _layout(written(report.blocks), pieces, "  ")
    built = json.loads("".join(pieces))
    if _same(stored, built):
        return
    i = next((i for i, pair in enumerate(zip(stored, built)) if not _same(*pair)), None)
    if i is None:
        raise ParseError(f"{len(stored)} entries, the records give {len(built)}",
                         path=path, field=name)
    raise ParseError("entry differs from the one the records give",
                     path=path, field=f"{name}[{i}]")


# The members of a report document; any of them that comes twice is an error.
_MEMBERS = ("schema", "meta", "summaries", "records", "histogram", "scatter", "tables",
            "skipped")


def _read_document(cursor: _JsonCursor, path: str
                   ) -> tuple[object, list[EvaluatedTopic] | None, ParseError | None]:
    """Walk the JSON text at the cursor: the document, each member decoded
    whole but a ``records`` list, which ``_read_records`` reads, and a
    ``scatter`` list, whose entries ``_walk_scatter_entry`` reads; its
    records, or None when it has no ``records`` list; and the first record's
    error. A syntax error, or an integer too long for ``int()``, is a
    ParseError worded by json at its line, but a value nested too deeply
    names no line (``located``)."""
    records, held = None, []
    with located(cursor, path):
        if cursor.text.startswith("\ufeff"):  # as json.loads rejects a text
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)",
                                       cursor.text, 0)
        if cursor.at("{"):
            payload = {}
            for key in cursor.members(_MEMBERS, path):
                if key == "records" and cursor.at("["):
                    records = _read_records(cursor, path, held)
                elif key == "scatter" and cursor.at("["):
                    payload[key] = list(_entries(cursor, _walk_scatter_entry))
                else:
                    payload[key] = cursor.value()
        else:
            payload = cursor.value()
    return payload, records, held[0] if held else None


def _read_records(cursor: _JsonCursor, path: str,
                  held: list[ParseError]) -> list[EvaluatedTopic]:
    """The ``records`` list at the cursor, each entry read as an
    EvaluatedTopic as soon as it is read, so that no entry's dict outlives
    it: each match of a batch of ``_RECORD_LINE`` by ``_matched_record``,
    and any other entry by ``_read_record``. The error of the first entry
    rejected is appended to ``held``, and the entries after it are read for
    syntax only."""
    records: list[EvaluatedTopic] = []
    for entry in _entries(cursor, pattern=_RECORD_LINE):
        if held:
            continue
        try:
            if type(entry) is tuple:  # a batch of matches
                for match in entry:
                    records.append(_matched_record(match))
            else:
                records.append(_read_record(entry))
        except _MALFORMED as exc:
            held.append(_malformed(exc, path, f"records[{len(records)}]"))
    return records


def _walk_scatter_entry(cursor: _JsonCursor) -> tuple[object, int]:
    """The scatter entry at the cursor and the offset where it ends. An object
    is walked member by member, and its ``points`` list a batch of
    ``_POINT_LINE`` matches or one point at a time, each kept as its
    ``_stored_point``; anything else is decoded whole."""
    if not cursor.at("{"):
        return cursor.read(_scan, cursor.pos)
    entry = {}
    for key in cursor.members((), ""):  # watching no key, it names no path
        if key == "points" and cursor.at("["):
            points = entry[key] = []
            for point in _entries(cursor, pattern=_POINT_LINE):
                if type(point) is tuple:  # a batch of matches
                    points += map(_matched_point, point)
                else:
                    points.append(_stored_point(point))
        else:
            entry[key] = cursor.value()
    return entry, cursor.pos


def _matched_point(match: re.Match[str]) -> tuple:
    """The ``_stored_point`` of a point line that ``_POINT_LINE`` matched."""
    topic, x, _, _, x_value, y, _, _, y_value, i, j, dx, dy, on_diagonal, off_grid = (
        match.groups())
    return (topic, x, float(x_value), y, float(y_value), int(i), int(j), float(dx),
            float(dy), on_diagonal == "true", off_grid == "true")


def _check_records(payload: dict, records: list[EvaluatedTopic] | None,
                   held: ParseError | None, meta: ReportMeta, path: str) -> None:
    """Check each record read against ``meta``, in order: its source and
    value are listed, its cutoff is meta's, and it comes once. A ParseError
    names the first record that fails, this or the held read error; with no
    records read, ``payload`` holds no ``records`` list, which is named."""
    seen: set[tuple[str, str, str]] = set()
    index = None
    try:
        if records is None:
            _typed(payload, "records", list)  # absent or not a list: raises
        for index, item in enumerate(records):
            key = (item.source, item.record.feature_value, item.record.topic_id)
            if item.source not in meta.sources or key[1] not in meta.values:
                raise ValueError(f"source {key[0]!r} and value {key[1]!r} must be listed in "
                                 "meta")
            if item.record.cutoff_requested != meta.cutoff:
                raise ValueError(f"cutoff_requested must be meta's cutoff {meta.cutoff}")
            if key in seen:
                raise ValueError(f"repeats the record of {'/'.join(key)}")
            seen.add(key)
    except _MALFORMED as exc:
        raise _malformed(exc, path, "records" if index is None else f"records[{index}]") from None
    if held is not None:
        raise held


def parse_report(source: str | IO[str], path: str = "<report>") -> Report:
    """Read a report document and check it against its own records.

    ``source`` is the text or a handle, read once through a ``_JsonCursor``
    window as ``parse_sparql_results`` reads an export. Each ``records``
    entry becomes an EvaluatedTopic as it is read, and each ``scatter`` point
    a flat tuple of its values; every other member is decoded whole. A
    syntax error is raised where the walk meets it, and a repeated member at
    its key's line; every other error once the whole text has been read, in
    a fixed order. Only ``meta``, ``records`` and ``skipped`` are read, and
    ``build_report`` rebuilds the rest with the exemplar grid of the stored
    tables; each stored derived section must equal the rebuilt one. Any
    malformed document, from a wrong type or an off-grid ratio to a repeated
    record or a stale section, raises a ParseError naming the file, the
    section and, within a list, the entry.
    """
    payload, records, held = _read_document(_JsonCursor(source), path)
    if type(payload) is not dict:
        raise ParseError("a report document must be a JSON object", path=path)
    schema = payload.get("schema")
    if schema != SCHEMA:
        raise SchemaVersionError(
            f"{path}: unsupported schema {schema!r}, expected {SCHEMA!r}")
    try:
        meta = _read_meta(payload["meta"])
    except _MALFORMED as exc:
        raise _malformed(exc, path, "meta") from None
    try:
        meta = replace(meta, exemplar_grid=_read_grid(_typed(payload, "tables", list)))
    except _MALFORMED as exc:
        raise _malformed(exc, path, "tables") from None
    _check_records(payload, records, held, meta, path)
    try:
        # The rebuild allocates 2 * cutoff + 1 bins per block; the stored bins bound it.
        histogram = _typed(payload, "histogram", list)
        bins = len(_typed(histogram[0], "bins", list)) if histogram else 0
        if (histogram or records) and bins != 2 * meta.cutoff + 1:
            raise ValueError(f"{bins} bins in a block, the cutoff gives {2 * meta.cutoff + 1}")
    except _MALFORMED as exc:
        raise _malformed(exc, path, "histogram") from None
    report = build_report(meta, records, _read_section(payload, "skipped", path,
                                                       _read_skipped))
    for name in ("scatter", "summaries", "histogram", "tables"):
        _check_section(payload, name, report, path)
    return report


# ---------------------------------------------------------------------------
# CSV bundle
# ---------------------------------------------------------------------------

# The characters for which csv.writer's default dialect may quote a cell: its
# delimiter, quote character and line ends.
_CSV_SPECIAL = re.compile('[,"\r\n]').search


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it among other cells of a row. A
    string without a special character is written as it is (an alphanumeric
    one, most cells, is known to be such without a search); any other is
    written by the csv module itself, so quoting follows it on every
    Python version."""
    if text.isalnum() or _CSV_SPECIAL(text) is None:
        return text
    buffer = io.StringIO()
    csv.writer(buffer).writerow((text, ""))
    return buffer.getvalue()[:-3]  # the empty cell's "," and the "\r\n"


def report_to_csv_bundle(report: Report) -> dict[str, str]:
    """Render the report as named CSV files with fixed column orders.

    Each file is written by the field list of its line shape, which the JSON
    document shares, and strings go through ``_csv_field``, so each file's
    bytes are those ``csv.writer`` writes. One file is rendered before the
    next.
    """
    return {name: "".join(lines) for name, lines in _csv_lines(report).items()}


def _csv_lines(report: Report) -> dict[str, Iterator[str]]:
    """The lines of each file of ``report_to_csv_bundle``, each made as it is
    read."""
    grid, exact = _RatioTexts(ratio_str, _CSV_RATIO), _RatioTexts(reduced_str, _CSV_RATIO)
    blocks = report.blocks
    return dict(zip(CSV_NAMES, (
        _SUMMARY.csv(_summary_cells(blocks, _csv_field, exact)),
        _RECORD.csv(_record_cells(report.records, _csv_field, grid, exact)),
        _BIN.csv(_bin_cells(blocks, _csv_field)),
        _POINT.csv(_point_cells(blocks, _csv_field, exact)),
        _ROW.csv(_row_cells([(b, b.tables.towards) for b in blocks], _csv_field, grid)),
        _ROW.csv(_row_cells([(b, b.tables.against) for b in blocks], _csv_field, grid)),
        _BUCKET.csv(_bucket_cells(blocks, _csv_field, "")),
    ), strict=True))


def emit_report(report: Report, fmt: str, out_dir: Path | str,
                keep: Iterable[Path | str] = ()) -> list[Path]:
    """Write the report to ``out_dir`` as JSON or a CSV bundle, atomically.

    ``report.json`` is written from the pieces of its text, and each CSV
    file from its lines as they are made, with no joined copy. Every file
    goes to a temp file first, and the temp files replace the old ones only
    once the last is written, so a failure while rendering or writing leaves
    the previous output set as it was and no temp file. Once the set is in
    place, a report file of the other format that an earlier run left in
    ``out_dir`` is removed, so the directory holds one report, unless it is
    one of the files in ``keep``, the files the run read; no other file is
    touched.
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f"unsupported report format {fmt!r} (use json or csv)")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        documents = {JSON_NAME: _json_pieces(report)}
    else:
        documents = _csv_lines(report)
    files = {out / name: documents[name] for name in sorted(documents)}
    atomic_write(files)
    keep = tuple(keep)
    for name in {JSON_NAME, *CSV_NAMES} - documents.keys():
        if not any(_same_file(out / name, path) for path in keep):
            (out / name).unlink(missing_ok=True)
    return list(files)


def _same_file(path: Path, other: Path | str) -> bool:
    """Whether both paths name one existing file, through links too."""
    try:
        return path.samefile(other)
    except OSError:  # either is missing
        return False
