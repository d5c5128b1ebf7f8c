"""Exactness gate: compare a written report with the corpus's expected biases.

A JSON report is read through the public `biaslens.parse_report` of the
code under test, so the gate does not depend on the document layout. A CSV
bundle is read as `records.csv` and `summaries.csv`, by column name. Every
record's bias, the record count, and each summary's topic count, mean bias
and mean absolute bias must match exactly.
"""

from __future__ import annotations

import csv
import hashlib
from fractions import Fraction
from pathlib import Path

from corpus import Corpus

MAX_PROBLEMS = 5


def digest(paths: list[Path]) -> str | None:
    """sha256 over the files' names and bytes; None when one is missing."""
    hasher = hashlib.sha256()
    for path in paths:
        if not path.is_file():
            return None
        hasher.update(path.name.encode() + b"\0" + path.read_bytes())
    return hasher.hexdigest()


def report_digest(out_dir: Path, fmt: str) -> str | None:
    """Digest of the report files in ``out_dir``; None when one is missing."""
    if fmt == "json":
        return digest([out_dir / "report.json"])
    if not (out_dir / "records.csv").is_file() or not (out_dir / "summaries.csv").is_file():
        return None
    return digest(sorted(out_dir.glob("*.csv")))


def _read_json(out_dir: Path):
    import biaslens  # the checkout's, once run.main has put its src on the path

    path = out_dir / "report.json"
    report = biaslens.parse_report(path.read_text(encoding="utf-8"), path=str(path))
    records = [((e.source, e.record.feature_value, e.record.topic_id), e.record.bias)
               for e in report.records]
    summaries = {(b.source, b.feature_value): (b.summary.topic_count,
                                                 b.summary.mean_bias,
                                                 b.summary.mean_abs_bias)
                 for b in report.blocks}
    return records, summaries


def _read_csv(out_dir: Path):
    with open(out_dir / "records.csv", encoding="utf-8", newline="") as handle:
        records = [((row["source"], row["value"], row["topic_id"]), Fraction(row["bias"]))
                   for row in csv.DictReader(handle)]
    with open(out_dir / "summaries.csv", encoding="utf-8", newline="") as handle:
        summaries = {(row["source"], row["value"]): (int(row["topics"]),
                                                     Fraction(row["MB"]),
                                                     Fraction(row["MAB"]))
                     for row in csv.DictReader(handle)}
    return records, summaries


def check_report(out_dir: Path, fmt: str, corpus: Corpus) -> list[str]:
    """Problems found in the report in ``out_dir``; empty when it is exact."""
    try:
        records, summaries = (_read_json if fmt == "json" else _read_csv)(out_dir)
    except Exception as exc:  # any unreadable output is a failed invocation
        return [f"cannot read the {fmt} report: {type(exc).__name__}: {exc}"]
    expected = corpus.expected_records()
    problems = []
    if len(records) != len(expected):
        problems.append(f"{len(records)} records, expected {len(expected)}")
    seen = set()
    for key, bias in records:
        if key in seen:
            problems.append(f"record {key} appears twice")
        seen.add(key)
        want = expected.get(key)
        if want is None:
            problems.append(f"unexpected record {key}")
        elif bias != want:
            problems.append(f"record {key}: bias {bias}, expected {want}")
    want_summaries = corpus.expected_summaries()
    if set(summaries) != set(want_summaries):
        problems.append(f"summaries for {sorted(summaries)}, expected {sorted(want_summaries)}")
    for key, want in want_summaries.items():
        got = summaries.get(key)
        if got is not None and got != want:
            problems.append(f"summary {key}: (topics, MB, MAB) = {got}, expected {want}")
    return problems[:MAX_PROBLEMS]
