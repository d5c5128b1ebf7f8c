from __future__ import annotations

import csv
import errno
import io
import json
import os
import random
import re
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import report_reference
import support
from audit_rows import AUDIT_ROWS
from biaslens import (
    BiasRecord,
    ParseError,
    ReportMeta,
    SchemaVersionError,
    bias_at_n,
    build_histogram,
    build_report,
    build_scatter,
    cli,
    emit_report,
    parse_report,
    ranked_bias_table,
    rebuild_report,
    report_to_csv_bundle,
    report_to_json,
    simulate_run,
    unbiased_exemplars,
)
from biaslens import _jsonwalk
from biaslens import report as report_module
from biaslens._util import unit_open_xy
from biaslens.report import EvaluatedTopic, SkippedTopic

F = Fraction


def records_from_counts(rows, m=10):
    """rows: (topic, model_count, ideal_count[, raw]) on the 1/m grid."""
    records = []
    for row in rows:
        topic, model, ideal = row[:3]
        raw = row[3] if len(row) > 3 else None
        remainder = F(0)
        if raw is not None:
            scaled = raw * m
            remainder = scaled - (scaled.numerator // scaled.denominator)
        records.append(support.grid_record(topic, "female", m, model, ideal,
                                           raw=raw, remainder=remainder))
    return records


def simulated_corpus(scheme, seed, topics=24, m=10):
    rng = random.Random(seed)
    evaluated = []
    for i in range(topics):
        target = F(rng.randint(0, 20), 20)
        low, high = support.feasible_bias_range(target, m)
        bias = F(rng.randint(low, high), m)
        sim = simulate_run(f"t{i:03d}", target, bias, m, scheme, "female",
                           seed=seed * 1000 + i,
                           population=target.denominator * rng.randint(1, 60))
        for value in scheme.values:
            record = bias_at_n(sim.run, sim.labels, sim.target, value, m)
            evaluated.append(EvaluatedTopic(source="kb",
                                            target_population=sim.target.total,
                                            record=record))
    return evaluated


class TestHistogram:
    def test_all_mass_at_zero(self):
        records = records_from_counts([(f"t{i}", 4, 4) for i in range(6)])
        hist = build_histogram(records, "female", 10)
        assert hist.counts[10] == 6
        assert sum(hist.counts) == 6
        assert hist.reference_counts == hist.counts

    def test_extremes_land_in_their_bins(self):
        records = records_from_counts([("announcer", 0, 5), ("archivist", 9, 1)])
        hist = build_histogram(records, "female", 10)
        # Bin k/n sits at index k + n.
        assert hist.counts[-5 + 10] == 1
        assert hist.counts[8 + 10] == 1
        assert sum(hist.counts) == 2
        # Bias-free reference piles everything on zero for comparison.
        assert hist.reference_counts[10] == 2

    def test_mass_conservation_against_recount(self):
        rng = random.Random(31)
        rows = [(f"t{i}", rng.randint(0, 10), rng.randint(0, 10))
                for i in range(1000)]
        records = records_from_counts(rows)
        hist = build_histogram(records, "female", 10)
        # Independent tally oracle over the raw biases.
        oracle = {}
        for record in records:
            oracle[record.bias] = oracle.get(record.bias, 0) + 1
        for k, count in zip(range(-10, 11), hist.counts):
            assert count == oracle.get(F(k, 10), 0)
        assert sum(hist.counts) == 1000

    def test_short_windows_flagged_and_binned_nearest(self):
        short = support.grid_record("short", "female", 7, 3, 1, n=10)
        assert short.bias == F(2, 7)  # 2/7 * 10 = 20/7 -> nearest bin 3/10
        full = support.grid_record("full", "female", 10, 5, 5, n=10)
        hist = build_histogram([short, full], "female", 10)
        assert hist.off_grid_topics == ("short",)
        assert hist.counts[10 + 3] == 1
        assert hist.counts[10] == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_histogram([], "female", 10)


class TestScatter:
    def test_diagonal_cell(self):
        records = records_from_counts([("t", 5, 5)])
        (point,) = build_scatter(records, "female", 10, seed=1)
        assert point.cell == (5, 5)
        assert point.on_diagonal

    def test_archivist_style_cell(self):
        records = records_from_counts([("archivist", 9, 1)])
        (point,) = build_scatter(records, "female", 10, seed=1)
        assert point.cell == (1, 9)
        assert not point.on_diagonal

    def test_deterministic_under_seed(self):
        records = records_from_counts([(f"t{i}", i % 11, (i * 3) % 11)
                                       for i in range(30)])
        first = build_scatter(records, "female", 10, seed=99)
        second = build_scatter(records, "female", 10, seed=99)
        assert first == second
        third = build_scatter(records, "female", 10, seed=100)
        assert first != third

    def test_jitter_stays_inside_half_cell(self):
        records = records_from_counts([(f"t{i}", i % 11, (7 * i) % 11)
                                       for i in range(200)])
        for point in build_scatter(records, "female", 10, seed=5):
            assert abs(point.dx) < 1 / 20
            assert abs(point.dy) < 1 / 20

    def test_sorted_by_topic(self):
        records = records_from_counts([("zeta", 1, 1), ("alpha", 2, 2)])
        points = build_scatter(records, "female", 10, seed=1)
        assert [p.record.topic_id for p in points] == ["alpha", "zeta"]

    @given(seed=st.integers(-10**30, 10**30),
           keys=st.lists(st.lists(st.text(), max_size=3), max_size=4))
    def test_shared_prefix_draws_are_unit_open_draws(self, seed, keys):
        expected = [(report_reference.unit_open(seed, *parts, "x"),
                     report_reference.unit_open(seed, *parts, "y"))
                    for parts in keys]
        assert list(unit_open_xy(seed, keys)) == expected

    @pytest.mark.parametrize("topic, value, named", [
        ("t\ud800", "female", "t\ud800"), ("t", "fe\udbffmale", "fe\udbffmale"),
    ])
    def test_a_lone_surrogate_in_a_digested_string_is_named(self, topic, value, named):
        records = [BiasRecord(topic, value, 10, 10, 5, 5, 1, 2, 0),
                   BiasRecord("u", value, 10, 10, 5, 5, 1, 2, 0)]
        evaluated = [EvaluatedTopic("kb", 9, r) for r in records]
        with pytest.raises(ValueError) as err:
            build_report(make_meta(values=("male", value)), evaluated)
        assert str(err.value) == f"{named!r} holds a lone surrogate"

    def test_binary_symmetry_of_point_sets(self, gender):
        evaluated = simulated_corpus(gender, seed=8)
        females = [e.record for e in evaluated if e.record.feature_value == "female"]
        males = [e.record for e in evaluated if e.record.feature_value == "male"]
        f_points = build_scatter(females, "female", 10, seed=2)
        m_points = build_scatter(males, "male", 10, seed=2)
        f_set = {(p.record.target_ratio_at_cutoff, p.record.model_ratio) for p in f_points}
        mirrored = {(1 - p.record.target_ratio_at_cutoff, 1 - p.record.model_ratio)
                    for p in m_points}
        assert f_set == mirrored


class TestRankedTables:
    def test_kb_fixture_heads(self):
        rows = [(topic, model, ideal) for source, _, topic, model, ideal, _
                in AUDIT_ROWS if source == "kb"]
        # Give the top row a raw-ratio gap wider than its half-grid peers.
        records = records_from_counts(
            [(t, mo, i, F(52, 100) if t == "announcer" else None)
             for t, mo, i in rows])
        tables = ranked_bias_table(records, "female", 11)
        assert tables.against[0].topic_id == "announcer"
        assert tables.against[0].bias == F(-5, 10)
        assert tables.towards[0].topic_id == "archivist"
        assert tables.towards[0].bias == F(8, 10)
        assert len(tables.towards) == len(tables.against) == 11
        assert not tables.towards_short and not tables.against_short

    def test_full_results_fixture_heads(self):
        rows = [(topic, model, ideal) for source, _, topic, model, ideal, _
                in AUDIT_ROWS if source == "full-results"]
        records = records_from_counts(
            [(t, mo, i, F(649, 1000) if t == "librarian" else None)
             for t, mo, i in rows])
        tables = ranked_bias_table(records, "female", 11)
        assert tables.against[0].topic_id == "librarian"
        assert tables.against[0].bias == F(-4, 10)
        assert tables.towards[0].topic_id == "archivist"
        assert tables.towards[0].bias == F(5, 10)

    def test_all_unbiased_gives_empty_tables(self):
        records = records_from_counts([(f"t{i}", 3, 3) for i in range(5)])
        tables = ranked_bias_table(records, "female", 4)
        assert tables.towards == () and tables.against == ()
        assert tables.towards_short and tables.against_short

    def test_truncation_flags(self):
        records = records_from_counts([("a", 6, 5), ("b", 7, 5), ("c", 2, 5)])
        tables = ranked_bias_table(records, "female", 2)
        assert [r.topic_id for r in tables.towards] == ["b", "a"]
        assert [r.topic_id for r in tables.against] == ["c"]
        assert not tables.towards_short
        assert tables.against_short

    def test_tie_break_is_total_order(self):
        # Same bias, same raw gap: lexicographic topic id decides.
        records = records_from_counts([("zz", 6, 5), ("aa", 6, 5)])
        tables = ranked_bias_table(records, "female", 2)
        assert [r.topic_id for r in tables.towards] == ["aa", "zz"]

    def test_k_must_be_positive(self):
        records = records_from_counts([("a", 6, 5)])
        with pytest.raises(ValueError):
            ranked_bias_table(records, "female", 0)


class TestUnbiasedExemplars:
    def test_largest_population_wins_bucket(self):
        records = records_from_counts([("rhythmic gymnast", 10, 10),
                                       ("glamour model", 10, 10)])
        populations = {"rhythmic gymnast": 5000, "glamour model": 400}
        table = unbiased_exemplars(records, populations)
        assert table.buckets[10].row.topic_id == "rhythmic gymnast"
        assert table.buckets[10].population == 5000

    def test_singleton_bucket(self):
        records = records_from_counts([("historian", 1, 1)])
        table = unbiased_exemplars(records, {"historian": 10})
        assert table.buckets[1].row.topic_id == "historian"

    def test_empty_buckets_are_explicit_gaps(self):
        records = records_from_counts([("historian", 1, 1)])
        table = unbiased_exemplars(records, {"historian": 10})
        assert len(table.buckets) == 11
        gaps = [b for b in table.buckets if b.row is None]
        assert len(gaps) == 10
        assert all(b.population is None for b in gaps)

    def test_all_buckets_match_brute_force_scan(self):
        rng = random.Random(17)
        rows = []
        populations = {}
        for i in range(600):
            topic = f"t{i:03d}"
            ideal = rng.randint(0, 10)
            model = rng.randint(0, 10) if rng.random() < 0.5 else ideal
            rows.append((topic, model, ideal))
            populations[topic] = rng.randint(1, 10_000)
        records = records_from_counts(rows)
        table = unbiased_exemplars(records, populations)

        # Brute-force scan: check every candidate against every bucket.
        for index in range(11):
            best = None
            for record in records:
                if record.bias != 0:
                    continue
                if record.target_ratio_at_cutoff * 10 != index:
                    continue
                key = (populations[record.topic_id], record.topic_id)
                if best is None or key[0] > best[0] or (
                        key[0] == best[0] and key[1] < best[1]):
                    best = key
            bucket = table.buckets[index]
            if best is None:
                assert bucket.row is None
            else:
                assert bucket.population == best[0]

    def test_missing_population_skipped_with_warning(self):
        records = records_from_counts([("known", 2, 2), ("mystery", 3, 3)])
        table = unbiased_exemplars(records, {"known": 10})
        assert ("mystery", "missing-population") in table.skipped
        assert table.buckets[3].row is None

    def test_ties_break_on_population_then_topic(self):
        records = records_from_counts([("bb", 4, 4), ("aa", 4, 4)])
        table = unbiased_exemplars(records, {"aa": 10, "bb": 10})
        assert table.buckets[4].row.topic_id == "aa"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.text(max_size=4)
    | st.sampled_from(["1/3", "0", "-1/10", "3/10", "kb", "female"]),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3),
                                                                inner, max_size=2),
    max_leaves=4)


def _json_paths(node, prefix=()):
    """Every (key or index) path into a JSON tree, the root's children first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield (*prefix, key)
        if isinstance(child, (dict, list)) and child:
            yield from _json_paths(child, (*prefix, key))


def mutate(payload, data) -> None:
    """Delete a member of ``payload``, or replace a member or item with a
    drawn JSON value, at a drawn path."""
    *parents, last = data.draw(st.sampled_from(list(_json_paths(payload))))
    holder = payload
    for step in parents:
        holder = holder[step]
    if isinstance(holder, dict) and data.draw(st.booleans()):
        del holder[last]
    else:
        holder[last] = data.draw(JSON_VALUES)


def make_meta(**overrides):
    base = dict(seed=20191201, cutoff=10, feature_name="gender",
                values=("female", "male"), unknown_token="unknown",
                sources=("kb",), strict=False, table_size=11,
                sd_divisor="sample")
    base.update(overrides)
    return ReportMeta(**base)


def _mutation_base() -> str:
    evaluated = simulated_corpus(support.GENDER, seed=8, topics=3, m=4)
    skipped = (SkippedTopic("ghost", "kb", "missing-target", "no counts"),)
    return report_to_json(build_report(make_meta(cutoff=4, table_size=2), evaluated,
                                       skipped))


MUTATION_BASE = _mutation_base()


# Strings a JSON writer must escape or may mangle: quotes, backslashes,
# control characters, line separators, text outside ASCII and lone surrogates.
AWKWARD_TEXT = st.text(st.sampled_from('a"\\\x00\x1f\n\t\u2028\u2029é漢\U0001f600\ud800')
                       | st.characters(), min_size=1, max_size=5)


# Strings a CSV writer must quote, or may mangle: the delimiter, quotes and
# line ends, other separators, text outside ASCII, lone surrogates and padding
# spaces.
CSV_TEXT = st.lists(st.sampled_from([",", '"', "\r", "\n", "\r\n", "\u2028", "\x1f",
                                     "\x00", " ", "a", "é", "漢", "\U0001f600", "\udfff"])
                    | st.characters(), max_size=5).map("".join)


def _surrogate_free(text: str) -> bool:
    """Whether ``text`` holds no code point in U+D800-U+DFFF."""
    return not any("\ud800" <= c <= "\udfff" for c in text)


@st.composite
def reports(draw, text=AWKWARD_TEXT):
    """Reports over 2- or 3-valued schemes with labels and topic ids drawn
    from ``text``, windows up to the cutoff, biases of either sign and
    possibly no records or no skipped topics. Only the values and the
    records' topics hold no lone surrogate: the scatter jitter digests them
    as UTF-8, so build_report rejects one there."""
    n = draw(st.integers(1, 12))
    digested = text.filter(_surrogate_free)
    values = tuple(draw(st.lists(digested, min_size=2, max_size=3, unique=True)))
    sources = tuple(draw(st.lists(text, min_size=1, max_size=2, unique=True)))
    meta = make_meta(seed=draw(st.integers(-10**6, 10**6)), cutoff=n,
                     feature_name=draw(text), values=values,
                     unknown_token=draw(text), sources=sources,
                     strict=draw(st.booleans()), table_size=draw(st.integers(1, 4)),
                     sd_divisor=draw(st.sampled_from(["sample", "population"])),
                     exemplar_grid=draw(st.integers(1, 6)))
    keys = draw(st.lists(st.tuples(st.sampled_from(sources), st.sampled_from(values),
                                   digested), max_size=12, unique=True))
    evaluated = []
    for source, value, topic in keys:
        m = draw(st.integers(1, n))
        denominator = draw(st.integers(1, 60))
        record = BiasRecord(topic, value, n, m, draw(st.integers(0, m)),
                            draw(st.integers(0, m)), draw(st.integers(0, denominator)),
                            denominator, draw(st.integers(0, m)))
        evaluated.append(EvaluatedTopic(source, draw(st.integers(1, 10**6)), record))
    skipped = draw(st.lists(st.builds(SkippedTopic, text, st.sampled_from(sources),
                                      text, text), max_size=3))
    return build_report(meta, evaluated, skipped)


# Every record is bias-free, so each block's ranked tables are both empty and
# its tables entry, buckets included, is written as one compact line.
UNBIASED_REPORT = build_report(
    make_meta(cutoff=2, sources=("kb", 'w"é'), exemplar_grid=2),
    [EvaluatedTopic(source, population, BiasRecord(topic, value, 2, m, count, count, 1, 3, 0))
     for source, value, topic, m, count, population in [
         ("kb", "female", "a", 2, 1, 5), ("kb", "female", 'b"é', 2, 2, 9),
         ("kb", "male", "a", 2, 0, 4), ('w"é', "female", "c", 1, 1, 7)]],
    [SkippedTopic("ghost", "kb", "missing-target", "no counts")])


def _entry_lines(text: str, key: str, indent: str) -> list[list[str]]:
    """For each array ``key`` spread over lines at ``indent``, its entry
    lines without indent and separator. Lines end only at \\n: U+2028 may
    sit inside a string."""
    lines = text.split("\n")
    sections = []
    for start, line in enumerate(lines):
        if line == f'{indent}"{key}": [':
            end = next(i for i in range(start + 1, len(lines))
                       if lines[i] in (f"{indent}]", f"{indent}],"))
            sections.append([entry.strip().removesuffix(",") for entry in lines[start + 1:end]])
    return sections


class TestReportDocument:
    @given(report=reports())
    @example(report=UNBIASED_REPORT)
    def test_text_renderer_writes_the_bytes_of_the_dict_renderer(self, report):
        assert report_to_json(report) == report_reference.report_to_json(report)

    @given(report=reports())
    def test_record_and_point_lines_are_their_entries(self, report):
        text = report_to_json(report)
        records = [report_reference._record_obj(item) for item in report.records]
        points = [report_reference._scatter_entry(block)["points"]
                  for block in report.blocks]
        written_records = _entry_lines(text, "records", "  ") or [[]]
        written_points = _entry_lines(text, "points", "      ")
        assert [[json.loads(line) for line in lines] for lines in written_records] == [records]
        assert [[json.loads(line) for line in lines] for lines in written_points] == points
        # Equal as JSON values is not enough: 1 == 1.0 == True.
        assert written_records == [[json.dumps(r, ensure_ascii=False) for r in records]]
        assert written_points == [[json.dumps(p, ensure_ascii=False) for p in block]
                                  for block in points]

    def test_compact_tables_entries_read_back(self):
        text = report_to_json(UNBIASED_REPORT)
        tables = _entry_lines(text, "tables", "  ")
        buckets = [json.loads(line)["unbiased"]["buckets"] for line in tables[0]]
        assert [[type(bucket) for bucket in block] for block in buckets] == [[dict] * 3] * 3
        assert parse_report(text) == UNBIASED_REPORT

    def test_json_round_trip_is_identity(self, gender):
        evaluated = simulated_corpus(gender, seed=3)
        skipped = (SkippedTopic("ghost", "kb", "missing-target", "no counts"),)
        report = build_report(make_meta(), evaluated, skipped)
        parsed = parse_report(report_to_json(report))
        assert parsed == report

    def test_reemitting_a_parsed_report_gives_identical_bytes(self, gender, tmp_path):
        evaluated = simulated_corpus(gender, seed=3)
        skipped = (SkippedTopic("fantôme", "kb", "missing-target", "no counts"),)
        text = report_to_json(build_report(make_meta(), evaluated, skipped))
        assert report_to_json(parse_report(text)) == text
        path = tmp_path / "report.json"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(["report", str(path), "--format", "json", "--out", str(out)]) == 0
        assert (out / "report.json").read_text(encoding="utf-8") == text

    def test_indented_report_parses_to_the_same_report(self, gender):
        evaluated = simulated_corpus(gender, seed=12)
        skipped = (SkippedTopic("ghost", "kb", "missing-target", "no counts"),)
        text = report_to_json(build_report(make_meta(), evaluated, skipped))
        indented = json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n"
        assert indented != text
        assert parse_report(indented) == parse_report(text)
        assert report_to_json(parse_report(indented)) == text

    def test_each_entry_is_one_compact_line(self, gender):
        evaluated = simulated_corpus(gender, seed=13, topics=6)
        text = report_to_json(build_report(make_meta(), evaluated))
        lines = {line.strip().rstrip(",") for line in text.splitlines()}
        payload = json.loads(text)
        entries = payload["summaries"] + payload["records"]
        for histogram, scatter, table in zip(payload["histogram"], payload["scatter"],
                                             payload["tables"]):
            entries += histogram["bins"] + scatter["points"] + table["towards"]
            entries += table["against"] + table["unbiased"]["buckets"]
        for entry in entries:
            assert json.dumps(entry, ensure_ascii=False) in lines

    def test_json_summary_keys_match_contract(self, gender):
        evaluated = simulated_corpus(gender, seed=4)
        report = build_report(make_meta(), evaluated)
        import json as json_module

        payload = json_module.loads(report_to_json(report))
        assert payload["schema"] == "biaslens-report/1"
        entry = payload["summaries"][0]
        assert set(entry) == {"source", "value", "topics", "MB", "SB", "MAB",
                              "min", "max", "single_sample"}
        assert set(payload) == {"schema", "meta", "summaries", "records",
                                "histogram", "scatter", "tables", "skipped"}

    def test_rationals_render_on_window_grid(self, gender):
        evaluated = simulated_corpus(gender, seed=5, topics=4)
        report = build_report(make_meta(), evaluated)
        import json as json_module

        payload = json_module.loads(report_to_json(report))
        for record in payload["records"]:
            assert record["bias"]["ratio"].endswith("/10")

    def test_empty_sections_still_schema_valid(self):
        report = build_report(make_meta(sources=()), [], [])
        parsed = parse_report(report_to_json(report))
        assert parsed.blocks == ()
        assert parsed.records == ()

    def test_schema_version_mismatch(self):
        with pytest.raises(SchemaVersionError):
            parse_report('{"schema": "biaslens-report/2"}')

    def test_invalid_json_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_report("{broken", path="report.json")

    @pytest.mark.parametrize("text", ["[]", '{"schema": "biaslens-report/1"}',
                                      '{"schema": "biaslens-report/1", "meta": {}}'])
    def test_malformed_documents_name_the_section(self, text):
        with pytest.raises(ParseError) as err:
            parse_report(text, path="report.json")
        assert str(err.value).startswith("report.json: ")
        assert err.value.field in (None, "meta")

    @given(data=st.data())
    def test_mutated_documents_parse_or_raise_parse_error(self, data):
        payload = json.loads(MUTATION_BASE)
        mutate(payload, data)
        try:
            report = parse_report(json.dumps(payload), path="report.json")
        except (ParseError, SchemaVersionError) as exc:
            assert str(exc).startswith("report.json")
            return
        reemitted = json.loads(report_to_json(report))
        for section in ("summaries", "histogram", "scatter", "tables"):
            assert reemitted[section] == payload[section]
        rebuilt = rebuild_report(report, exemplar_grid=7)
        report_to_json(rebuilt)
        report_to_csv_bundle(rebuilt)

    @pytest.mark.parametrize("section, tamper", [
        ("summaries[0]", lambda p: p["summaries"][0]["MB"].update(ratio="0")),
        ("histogram[1]", lambda p: p["histogram"][1]["bins"][0].update(count=7)),
        ("scatter[0].points[1]", lambda p: p["scatter"][0]["points"][1].update(dx=0.01)),
        ("tables[0]", lambda p: p["tables"][0]["towards"][0]["bias"].update(ratio="9/10")),
    ])
    def test_stale_derived_sections_name_the_section(self, section, tamper):
        payload = json.loads(MUTATION_BASE)
        tamper(payload)
        with pytest.raises(ParseError) as err:
            parse_report(json.dumps(payload), path="report.json")
        assert err.value.field == section
        if section.startswith("scatter"):
            assert f"kb/female/{payload['scatter'][0]['points'][1]['topic']}" in str(err.value)

    @pytest.mark.parametrize("field, tamper", [
        ("summaries[0]", lambda p: p["summaries"][0].update(single_sample=0)),
        ("summaries[1]", lambda p: p["summaries"][1].update(topics=3.0)),
        ("histogram[0]", lambda p: p["histogram"][0]["bins"][4].update(
            count=float(p["histogram"][0]["bins"][4]["count"]))),
        ("tables[1]", lambda p: p["tables"][1].update(towards_short=1)),
        ("tables[0]", lambda p: p["tables"][0]["unbiased"]["buckets"][0].update(value=0)),
        ("scatter[0].points[1]",
         lambda p: p["scatter"][0]["points"][1]["cell"].__setitem__(0, float(
             p["scatter"][0]["points"][1]["cell"][0]))),
        ("scatter[1].points[0]", lambda p: p["scatter"][1]["points"][0].update(
            on_diagonal=int(p["scatter"][1]["points"][0]["on_diagonal"]))),
        ("scatter[0].points[2]", lambda p: p["scatter"][0]["points"][2]["y"].update(
            value=int(p["scatter"][0]["points"][2]["y"]["value"]))),
    ])
    def test_equal_values_of_another_type_name_the_entry(self, field, tamper):
        payload = json.loads(MUTATION_BASE)
        before = json.dumps(payload)
        tamper(payload)
        assert json.dumps(payload) != before and json.loads(before) == payload
        with pytest.raises(ParseError) as err:
            parse_report(json.dumps(payload), path="report.json")
        assert err.value.field == field

    @pytest.mark.parametrize("field, tamper", [
        ("records[1]", lambda p: p["records"].insert(1, p["records"][0])),
        ("records[0]", lambda p: p["records"][0].update(source="zz")),
        ("meta", lambda p: p["meta"].update(sd_divisor="foo")),
        ("meta", lambda p: p["meta"].update(evaluation=5)),
        ("tables", lambda p: p["tables"][0]["unbiased"].update(grid=0, buckets=[{}])),
        ("tables", lambda p: p["tables"][0]["unbiased"].update(grid=10**9)),
    ])
    def test_inconsistent_records_and_meta_name_the_field(self, field, tamper):
        payload = json.loads(MUTATION_BASE)
        tamper(payload)
        with pytest.raises(ParseError) as err:
            parse_report(json.dumps(payload), path="report.json")
        assert err.value.field == field

    @staticmethod
    def _set_cutoff(payload, cutoff):
        payload["meta"]["cutoff"] = cutoff
        for record in payload["records"]:
            record["cutoff_requested"] = cutoff

    @pytest.mark.parametrize("field, message, tamper", [
        ("records[0]", "bias value must be",
         lambda p: p["records"][0]["bias"].update(value=0.9)),
        ("records[2]", "target_ratio_raw value must be",
         lambda p: p["records"][2]["target_ratio_raw"].update(value=0.5000001)),
        ("records[1]", "model_ratio value must be",
         lambda p: p["records"][1]["model_ratio"].update(value=True)),
        ("records[0]", "cutoff_requested must be meta's cutoff 4",
         lambda p: p["records"][0].update(cutoff_requested=5)),
        # Without the bound the rebuild would allocate 2 * 10**6 + 1 bins first.
        ("histogram", "9 bins in a block, the cutoff gives 2000001",
         lambda p: TestReportDocument._set_cutoff(p, 10**6)),
        ("histogram", "0 bins in a block", lambda p: p.update(histogram=[])),
    ])
    def test_stored_values_and_cutoffs_must_agree(self, field, message, tamper):
        payload = json.loads(MUTATION_BASE)
        tamper(payload)
        with pytest.raises(ParseError) as err:
            parse_report(json.dumps(payload), path="report.json")
        assert err.value.field == field
        assert message in str(err.value)

    # records[0] holds model_ratio 2/4 and target_ratio_raw 7/20; each of
    # these spells one of them in a form int() or Fraction() reads.
    @pytest.mark.parametrize("key, ratio", [
        ("target_ratio_raw", "0.35"), ("target_ratio_raw", " 7/20"),
        ("target_ratio_raw", "7/2_0"), ("target_ratio_raw", "+7/20"),
        ("target_ratio_raw", "\u0667/\u0662\u0660"), ("target_ratio_raw", "7/20\n"),
        ("model_ratio", " 2/4"), ("model_ratio", "2/4 "),
    ])
    def test_a_ratio_is_read_only_as_evaluate_writes_it(self, key, ratio):
        payload = json.loads(MUTATION_BASE)
        payload["records"][0][key]["ratio"] = ratio
        with pytest.raises(ParseError) as err:
            parse_report(json.dumps(payload), path="report.json")
        assert err.value.field == "records[0]"
        assert f"ratio {ratio!r} is not written as p/q or an integer" in str(err.value)

    # json.dumps escapes a lone surrogate as \udXXX, which json.loads reads back.
    @pytest.mark.parametrize("field, tamper", [
        ("records[0]", lambda p: p["records"][0].update(topic="t\ud800")),
        ("records[1]", lambda p: p["records"][1].update(source="kb\udfff")),
        ("records[2]", lambda p: p["records"][2].update(value="fe\udbffmale")),
        ("skipped[0]", lambda p: p["skipped"][0].update(topic="gho\udc00st")),
        ("meta", lambda p: p["meta"]["values"].__setitem__(1, "male\ud800")),
    ])
    def test_a_lone_surrogate_names_the_entry(self, field, tamper):
        payload = json.loads(MUTATION_BASE)
        tamper(payload)
        with pytest.raises(ParseError) as err:
            parse_report(json.dumps(payload, ensure_ascii=True), path="report.json")
        assert err.value.field == field
        assert "lone surrogate" in str(err.value)

    @given(report=reports(), data=st.data())
    def test_a_lone_surrogate_in_any_identifier_is_a_parse_error(self, report, data):
        payload = json.loads(report_to_json(report))
        meta = payload["meta"]
        spots = [(meta, "feature"), (meta, "unknown_token"),
                 *((meta[key], i) for key in ("values", "sources")
                   for i in range(len(meta[key]))),
                 *((r, key) for r in payload["records"] for key in ("source", "topic", "value")),
                 *((s, key) for s in payload["skipped"] for key in ("topic", "source"))]
        holder, key = data.draw(st.sampled_from(spots))
        text, lone = holder[key], chr(data.draw(st.integers(0xD800, 0xDFFF)))
        at = data.draw(st.integers(0, len(text)))
        holder[key] = text[:at] + lone + text[at:]
        # A high surrogate before a low one is written as a pair, which reads
        # back as one character.
        assume(not _surrogate_free(json.loads(json.dumps(holder[key]))))
        with pytest.raises(ParseError):
            parse_report(json.dumps(payload, ensure_ascii=True), path="report.json")

    def test_rebuild_without_arguments_keeps_the_report(self, gender):
        evaluated = simulated_corpus(gender, seed=6)
        report = build_report(make_meta(table_size=3, exemplar_grid=4), evaluated)
        assert rebuild_report(report) == report
        assert parse_report(report_to_json(report)) == report

    def test_rebuild_with_new_table_size(self, gender):
        evaluated = simulated_corpus(gender, seed=6)
        report = build_report(make_meta(table_size=3), evaluated)
        bigger = rebuild_report(report, table_size=11)
        assert bigger.meta.table_size == 11
        for block in bigger.blocks:
            assert len(block.tables.towards) <= 11
        again = rebuild_report(bigger, table_size=3)
        assert again == report

    def test_rebuild_with_custom_exemplar_grid(self, gender):
        evaluated = simulated_corpus(gender, seed=7)
        report = build_report(make_meta(), evaluated)
        rebuilt = rebuild_report(report, exemplar_grid=4)
        for block in rebuilt.blocks:
            assert len(block.unbiased.buckets) == 5

    def test_emission_byte_identical(self, gender, tmp_path):
        evaluated = simulated_corpus(gender, seed=9)
        report = build_report(make_meta(), evaluated)
        first = tmp_path / "a"
        second = tmp_path / "b"
        emit_report(report, "json", first)
        emit_report(report, "json", second)
        assert (first / "report.json").read_bytes() == (
            second / "report.json").read_bytes()
        emit_report(report, "csv", first)
        emit_report(report, "csv", second)
        for name in ("summaries.csv", "records.csv", "histogram.csv",
                     "scatter.csv", "table_towards.csv", "table_against.csv",
                     "table_unbiased.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @given(report=reports(CSV_TEXT))
    @example(report=UNBIASED_REPORT)
    def test_text_csv_bundle_writes_the_bytes_of_the_cell_writer(self, report):
        expected = report_reference.report_to_csv_bundle(report)
        bundle = report_to_csv_bundle(report)
        assert list(bundle) == list(expected)
        for name, text in expected.items():
            assert bundle[name] == text, name

    def test_csv_bundle_shape(self, gender):
        evaluated = simulated_corpus(gender, seed=10, topics=6)
        report = build_report(make_meta(), evaluated)
        bundle = report_to_csv_bundle(report)
        assert set(bundle) == {"summaries.csv", "records.csv", "histogram.csv",
                               "scatter.csv", "table_towards.csv",
                               "table_against.csv", "table_unbiased.csv"}
        header = bundle["records.csv"].splitlines()[0]
        assert header.startswith("source,value,topic_id,cutoff_requested")
        # 6 topics x 2 values, one record row each, plus header.
        assert len(bundle["records.csv"].strip().splitlines()) == 13

    def test_unsupported_format_rejected(self, gender, tmp_path):
        evaluated = simulated_corpus(gender, seed=11, topics=2)
        report = build_report(make_meta(), evaluated)
        with pytest.raises(ValueError):
            emit_report(report, "xml", tmp_path)

    @given(report=reports())
    @example(report=UNBIASED_REPORT)
    def test_emitted_json_is_the_rendered_text(self, report):
        with tempfile.TemporaryDirectory() as out:
            try:
                expected = report_to_json(report).encode()
            except UnicodeEncodeError:  # a lone surrogate in a string no digest reads
                with pytest.raises(UnicodeEncodeError):
                    emit_report(report, "json", out)
                assert os.listdir(out) == []
                return
            emit_report(report, "json", out)
            assert (Path(out) / "report.json").read_bytes() == expected

    def test_json_emission_holds_no_joined_copy(self, gender, tmp_path):
        report = build_report(make_meta(), simulated_corpus(gender, seed=13, topics=1000))
        assert len(report.records) == 2000
        emit_report(report, "json", tmp_path)  # first-call allocations are not the text's
        tracemalloc.start()
        try:
            emit_report(report, "json", tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The rendered entry lines take about the file's size. A joined copy
        # of the text, or its whole encoding, would take that size again.
        assert peak <= 2 * (tmp_path / "report.json").stat().st_size

    def test_csv_emission_holds_no_joined_copy(self, gender, tmp_path):
        report = build_report(make_meta(), simulated_corpus(gender, seed=13, topics=1000))
        emit_report(report, "csv", tmp_path)  # first-call allocations are not the lines'
        tracemalloc.start()
        try:
            emit_report(report, "csv", tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Each line is written as it is made; the largest file's text, joined,
        # would take its size, and all seven rendered first twice the bundle's.
        assert peak < max(p.stat().st_size for p in tmp_path.iterdir()) / 2

    def test_a_failed_write_leaves_the_previous_csv_set(self, gender, tmp_path,
                                                         monkeypatch):
        emit_report(build_report(make_meta(), simulated_corpus(gender, seed=14, topics=6)),
                    "csv", tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        report = build_report(make_meta(), simulated_corpus(gender, seed=15, topics=6))
        bundle = report_to_csv_bundle(report)
        # The files written before the failing one would each replace an old one.
        assert all(bundle[name].encode() != before[name] for name in sorted(bundle)[:3])

        class FullDisk(io.TextIOWrapper):
            """A file whose disk fills half-way through its first write."""

            def write(self, text):
                super().write(text[:len(text) // 2])
                self.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        real_fdopen, opened = os.fdopen, []

        def fdopen(fd, mode, **kwargs):
            opened.append(fd)
            if len(opened) < 4:
                return real_fdopen(fd, mode, **kwargs)
            return FullDisk(open(fd, "wb"), **kwargs)

        monkeypatch.setattr(os, "fdopen", fdopen)
        with pytest.raises(OSError) as err:
            emit_report(report, "csv", tmp_path)
        monkeypatch.undo()
        assert err.value.errno == errno.ENOSPC and len(opened) == 4
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert not list(tmp_path.glob(".*"))

    @pytest.mark.parametrize("first, then", [("csv", "json"), ("json", "csv")])
    def test_the_other_formats_report_goes_only_once_the_set_is_written(
            self, gender, tmp_path, monkeypatch, first, then):
        """A run that fails to write its set leaves the earlier run's report
        in place; one that writes it removes that report, and only that."""
        report = build_report(make_meta(), simulated_corpus(gender, seed=16, topics=4))
        emit_report(report, first, tmp_path)
        (tmp_path / "notes.txt").write_text("kept", encoding="utf-8")
        (tmp_path / "scatter.csv.bak").write_text("kept", encoding="utf-8")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def full_disk(files):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        with monkeypatch.context() as patched:
            patched.setattr(report_module, "atomic_write", full_disk)
            with pytest.raises(OSError):
                emit_report(report, then, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        written = emit_report(report, then, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [*(p.name for p in written), "notes.txt", "scatter.csv.bak"])
        assert (set(report_module.CSV_NAMES) if then == "csv"
                else {report_module.JSON_NAME}) == {p.name for p in written}

    def test_a_report_file_the_run_read_is_kept(self, gender, tmp_path):
        """A file in ``keep`` is not removed, also when named through a link."""
        report = build_report(make_meta(), simulated_corpus(gender, seed=16, topics=4))
        out = tmp_path / "out"
        emit_report(report, "json", out)
        link = tmp_path / "read.json"
        link.symlink_to(out / report_module.JSON_NAME)
        emit_report(report, "csv", out, keep=[link])
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*report_module.CSV_NAMES, report_module.JSON_NAME])
        emit_report(report, "json", out, keep=[link])
        assert sorted(p.name for p in out.iterdir()) == [report_module.JSON_NAME]

    def test_csv_quotes_awkward_topic_ids(self, gender):
        import csv
        import io

        topic = 'officer, "french" navy'
        sim = simulate_run(topic, F(1, 2), F(0), 10, gender, "female", seed=1)
        evaluated = []
        for value in gender.values:
            record = bias_at_n(sim.run, sim.labels, sim.target, value, 10)
            evaluated.append(EvaluatedTopic(source="kb", target_population=2,
                                            record=record))
        report = build_report(make_meta(), evaluated)
        bundle = report_to_csv_bundle(report)
        rows = list(csv.DictReader(io.StringIO(bundle["records.csv"])))
        assert rows[0]["topic_id"] == topic
        assert rows[0]["bias"] == "0/10"


@given(text=st.text() | st.sampled_from(["t0042", "t٤٢", "female", "", "a,b", "a\x00"]))
def test_a_csv_field_is_what_the_csv_writer_writes(text):
    """``_csv_field``, with its alphanumeric shortcut, writes a cell as
    ``csv.writer`` writes it among other cells."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow((text, ""))
    assert report_module._csv_field(text) + ",\r\n" == buffer.getvalue()


def outcome(source):
    """The report ``parse_report`` reads from ``source``, or its error's text."""
    try:
        return parse_report(source, path="report.json")
    except (ParseError, SchemaVersionError) as exc:
        return str(exc)


def windowed(text, window):
    """The outcome of reading ``text`` from a handle through a window of
    ``window`` characters."""
    with mock.patch.object(_jsonwalk, "_WINDOW", window):
        return outcome(io.StringIO(text))


def detailed(read, source):
    """What ``read`` makes of ``source``: the JSON of the report it reads, or
    its error's class, text, field and line."""
    try:
        return report_to_json(read(source, path="report.json"))
    except (ParseError, SchemaVersionError) as exc:
        return type(exc), str(exc), getattr(exc, "field", None), getattr(exc, "line", None)


def detailed_outcomes(text, window):
    """``detailed`` of ``parse_report`` from ``text`` and from a handle read
    through a window of ``window`` characters."""
    with mock.patch.object(_jsonwalk, "_WINDOW", window):
        return detailed(parse_report, text), detailed(parse_report, io.StringIO(text))


def without_pattern(text, window):
    """``detailed_outcomes`` with every record and point read by json's scanner."""
    with mock.patch.object(_jsonwalk, "_batch", lambda pattern, text, pos: ()):
        return detailed_outcomes(text, window)


# The first line of each record and of each scatter point in evaluate's layout.
_RECORD_OR_POINT = re.compile(r'^(?:    \{"source": "(?:[^"\\\n]|\\.)*", "topic": '
                              r'|        \{"topic": )', re.M)


class TestStreamedReader:
    @given(base=st.none() | reports(), data=st.data(), twice=st.booleans(),
           records_first=st.booleans(), layout=st.sampled_from(["one-line", "evaluate",
                                                               "indented"]),
           window=st.integers(1, 16))
    def test_the_reader_reads_as_the_whole_document_reader(self, base, data, twice,
                                                           records_first, layout, window):
        """A document of one or two mutations, its records moved first or
        not, written on one line, in evaluate's layout or indented, reads as
        ``report_reference.parse_report_whole`` reads it: the same report or
        the same error, from a text and from a handle."""
        payload = json.loads(MUTATION_BASE if base is None else report_to_json(base))
        for _ in range(1 + twice):
            mutate(payload, data)
        if records_first and "records" in payload:
            payload = {"records": payload.pop("records"), **payload}
        text = {"one-line": lambda: json.dumps(payload, ensure_ascii=False),
                "evaluate": lambda: report_reference._layout(payload) + "\n",
                "indented": lambda: json.dumps(payload, indent=2, ensure_ascii=False)}[layout]()
        expected = detailed(report_reference.parse_report_whole, text)
        assert detailed_outcomes(text, window) == (expected, expected)

    @given(report=reports(), edit=st.none() | st.tuples(
        st.integers(0), st.floats(0, 1), st.sampled_from([*'{}[]:,"\\ \n0-1.etf', "\ud800"])),
        batch=st.integers(1, 400), window=st.integers(1, 16))
    # Its kb records and points are matched up to the first string with an escape.
    @example(report=UNBIASED_REPORT, edit=None, batch=90, window=4)
    @example(report=UNBIASED_REPORT, edit=(0, 0.5, "1"), batch=400, window=16)
    def test_batches_ending_at_any_offset_read_as_the_scanner_reads(self, report, edit, batch,
                                                                     window):
        """With a batch of 1 to 400 characters, so that a batch ends at every
        offset of a record or point line and of the separator after it, the
        outcome of evaluate's text, and of that text with one character of a
        record or point changed, from a text and from a handle, is the one
        with every record and point read by json's scanner."""
        text = report_to_json(report)
        lines = [m.start() for m in _RECORD_OR_POINT.finditer(text)]
        if edit is not None and lines:
            line, at, char = edit
            start = lines[line % len(lines)]
            at = start + round(at * (text.index("\n", start) - start))
            text = text[:at] + char + text[at + 1:]
        expected = without_pattern(text, window)
        with mock.patch.object(_jsonwalk, "_BATCH", batch):
            assert detailed_outcomes(text, window) == expected

    def test_the_patterns_read_records_and_points_as_evaluate_writes_them(self, gender):
        """Evaluate's records and scatter points are read without json's
        scanner, so the fast path cannot be lost silently."""
        report = build_report(make_meta(), simulated_corpus(gender, seed=16, topics=40))
        text = report_to_json(report)
        scan = mock.Mock(wraps=_jsonwalk._scan)
        with mock.patch.object(_jsonwalk, "_scan", scan):
            assert parse_report(text) == parse_report(io.StringIO(text)) == report
        assert scan.call_count == 0

    @pytest.mark.parametrize("member", ["unknown_in_window", "cutoff_effective",
                                        "target_population", "cell"])
    def test_an_integer_too_long_for_int_is_a_located_syntax_error(self, member):
        """A record's or point's integer that ``int()`` will not convert is
        json's syntax error at the line of its entry, as the scanner reads it."""
        digits = "1" * 5000
        key = f'"{member}": ' + ("[" if member == "cell" else "")
        at = MUTATION_BASE.index(key) + len(key)
        text = MUTATION_BASE[:at] + digits + MUTATION_BASE[at:]
        line = text.count("\n", 0, at) + 1
        assert outcome(text) == windowed(text, 3) == (
            f"report.json:{line}: invalid JSON: integer longer than "
            f"{sys.get_int_max_str_digits()} digits")

    @given(report=reports(), indent=st.booleans(), window=st.integers(1, 16))
    @example(report=UNBIASED_REPORT, indent=False, window=1)
    def test_a_handle_read_through_a_window_equals_the_text(self, report, indent, window):
        text = report_to_json(report)
        if indent:
            text = json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n"
        assert windowed(text, window) == outcome(text)

    @given(indent=st.booleans(), at=st.floats(0, 1), edit=st.sampled_from(
        ["", *'{}[]:,"\\ \n0-1eflnrstuE.+', "NaN", "\ufeff", "\x00"]),
        insert=st.booleans(), window=st.integers(1, 16))
    def test_a_syntax_error_reads_as_json_words_it(self, indent, at, edit, insert, window):
        """An edit at any offset that json.loads rejects is the error it
        raises, at its line, from a text and from a handle."""
        text = MUTATION_BASE if not indent else json.dumps(json.loads(MUTATION_BASE), indent=2)
        at = round(at * len(text))
        text = text[:at] + edit + text[at + (not insert):]
        try:
            json.loads(text)
        except json.JSONDecodeError as exc:
            expected = f"report.json:{exc.lineno}: invalid JSON: {exc.msg}"
        else:
            assume(False)
        assert outcome(text) == expected
        assert windowed(text, window) == expected

    def test_a_syntax_error_in_a_record_reads_as_json_words_it(self):
        # json's scanner stops inside the entry, at the missing value.
        payload = json.loads(MUTATION_BASE)
        text = json.dumps(payload, indent=2).replace('"topic": "t001"', '"topic": }', 1)
        with pytest.raises(json.JSONDecodeError) as err:
            json.loads(text)
        assert err.value.msg == "Expecting value"
        expected = f"report.json:{err.value.lineno}: invalid JSON: Expecting value"
        assert outcome(text) == windowed(text, 3) == expected

    @pytest.mark.parametrize("member", ["schema", "meta", "records", "scatter", "skipped"])
    def test_a_repeated_member_is_a_located_error(self, member):
        *members, last = MUTATION_BASE.rstrip("\n").split("\n")  # last is "}"
        repeat = next(line for line in members if line.startswith(f'  "{member}": '))
        text = "\n".join([*members[:-1], members[-1] + ",", repeat.rstrip(","), last])
        assert outcome(text) == windowed(text, 5) == (
            f"report.json:{len(members) + 1}: member {member!r} is repeated (field: {member})")

    def test_records_before_meta_name_the_first_record_that_fails(self):
        """A record that fails a check against meta before one that fails to
        read is the one named, wherever meta is."""
        payload = json.loads(MUTATION_BASE)
        payload["records"][1]["source"] = "zz"
        payload["records"][2]["bias"]["ratio"] = "x"
        for order in (payload, {"records": payload["records"], **payload}):
            assert outcome(json.dumps(order)) == (
                "report.json: source 'zz' and value 'female' must be listed in meta "
                "(field: records[1])")

    @staticmethod
    def _reads_as(payload, expected):
        for text in (json.dumps(payload), json.dumps(payload, indent=2)):
            assert outcome(text) == windowed(text, 3) == expected

    @pytest.mark.parametrize("i, j, record, tamper", [
        (0, 1, "female/t001", lambda p: {**p, "extra": 1}),
        (1, 2, "male/t002", lambda p: {k: v for k, v in p.items() if k != "dy"}),
        (0, 0, "female/t000", lambda p: {**p, "x": {**p["x"], "extra": 1}}),
        (0, 2, "female/t002", lambda p: {**p, "x": {"value": p["x"]["value"]}}),
        (1, 0, "male/t000", lambda p: {**p, "y": {**p["y"], "extra": None}}),
        (1, 1, "male/t001", lambda p: {**p, "y": {"ratio": p["y"]["ratio"]}}),
        (0, 1, "female/t001", lambda p: {**p, "cell": p["cell"][:1]}),
        (1, 2, "male/t002", lambda p: {**p, "cell": [*p["cell"], 0]}),
        (0, 2, "female/t002", lambda p: None),
        (1, 1, "male/t001", lambda p: list(p.values())),
    ], ids=["extra-key", "missing-key", "x-extra-key", "x-missing-key", "y-extra-key",
            "y-missing-key", "cell-of-1", "cell-of-3", "null", "list"])
    def test_a_point_of_another_shape_is_named(self, i, j, record, tamper):
        """A point that its flat tuple cannot hold is named as when the
        scatter was decoded whole."""
        payload = json.loads(MUTATION_BASE)
        points = payload["scatter"][i]["points"]
        points[j] = tamper(points[j])
        self._reads_as(payload, f"report.json: point differs from the one the record "
                                f"kb/{record} gives (field: scatter[{i}].points[{j}])")

    @pytest.mark.parametrize("i, tamper", [
        (1, lambda entry: {**entry, "points": dict(enumerate(entry["points"]))}),
        (0, lambda entry: list(entry.items())),
    ], ids=["points-not-a-list", "not-an-object"])
    def test_a_scatter_entry_of_another_shape_is_named(self, i, tamper):
        payload = json.loads(MUTATION_BASE)
        payload["scatter"][i] = tamper(payload["scatter"][i])
        self._reads_as(payload, "report.json: entry differs from the one the records give "
                                f"(field: scatter[{i}])")

    @given(at=st.floats(0, 1), edit=st.sampled_from(
        ["", *'{}[]:,"\\ \n0-1eflnrstuE.+', "NaN", "\ufeff", "\x00"]),
        insert=st.booleans(), window=st.integers(1, 16))
    def test_a_syntax_error_is_raised_before_a_later_byte_is_read(self, at, edit, insert,
                                                                  window):
        """A syntax error that json locates inside the text is raised where
        the walk meets it: the padding after the text, longer than a chunk
        that io.TextIOWrapper decodes at a time, and a byte that is not
        UTF-8 after it are never decoded."""
        at = round(at * len(MUTATION_BASE))
        text = MUTATION_BASE[:at] + edit + MUTATION_BASE[at + (not insert):]
        padding = " " * (len(text) + 8192)
        try:
            json.loads(text + padding)
        except json.JSONDecodeError as exc:
            assume(exc.pos < len(text) and not exc.msg.startswith("Unterminated string"))
            expected = f"report.json:{exc.lineno}: invalid JSON: {exc.msg}"
        else:
            assume(False)
        data = (text + padding).encode() + b"\xff"
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as handle, \
                mock.patch.object(_jsonwalk, "_WINDOW", window):
            assert outcome(handle) == expected

    def test_the_window_stays_bounded(self, gender):
        """Through a handle, the window holds a few pieces of the text at a
        time: records and scatter points are read a batch at a time, and
        every other member is short."""
        text = report_to_json(build_report(make_meta(),
                                           simulated_corpus(gender, seed=16, topics=2000)))
        extend, sizes = _jsonwalk._JsonCursor.extend, []

        def recorded(cursor):
            extend(cursor)
            sizes.append(len(cursor.text))

        with mock.patch.object(_jsonwalk._JsonCursor, "extend", recorded):
            parse_report(io.StringIO(text))
        assert len(text) > 16 * _jsonwalk._WINDOW
        assert max(sizes) <= 4 * _jsonwalk._WINDOW

    def test_peak_memory_stays_near_the_text_size(self, gender):
        text = report_to_json(build_report(make_meta(),
                                           simulated_corpus(gender, seed=16, topics=1000)))
        parse_report(io.StringIO(text))  # first-call allocations are not the reader's
        handle = io.StringIO(text)  # which holds a copy of the text of its own
        tracemalloc.start()
        try:
            parse_report(handle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # About 1.6 times the text's size, with each scatter point kept as a
        # flat tuple; 2.8 times with the scatter decoded whole, and 6.2 times
        # with the text and its whole json.loads tree, as
        # parse_report(handle.read()) held them.
        assert peak < 2 * len(text)


class TestPartition:
    def test_tables_and_exemplar_candidates_partition_records(self, gender):
        for seed in range(40):
            evaluated = simulated_corpus(gender, seed=seed, topics=12)
            records = [e.record for e in evaluated
                       if e.record.feature_value == "female"]
            tables = ranked_bias_table(records, "female", len(records))
            towards = {r.topic_id for r in tables.towards}
            against = {r.topic_id for r in tables.against}
            zero = {r.topic_id for r in records if r.bias == 0}
            everything = {r.topic_id for r in records}
            assert towards | against | zero == everything
            assert not towards & against
            assert not towards & zero
            assert not against & zero
