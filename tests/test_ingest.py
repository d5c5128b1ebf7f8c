from __future__ import annotations

import dataclasses
import io
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ingest_reference
import support
from biaslens import (
    EmptyPopulationError,
    FeatureScheme,
    LabelCatalog,
    LabelConflict,
    MembershipTable,
    ParseError,
    RankedRun,
    SchemeViolationError,
    TargetCounts,
    counts_for_topic,
    ingest,
    parse_labels,
    parse_members,
    parse_runs,
    parse_sparql_results,
    parse_target_counts,
    serialize_labels,
    serialize_members,
    serialize_runs,
    serialize_target_counts,
    simulate_run,
)

F = Fraction


def tally(table, catalog):
    """Each topic's counts from ``counts_for_topic``, in topic order, as
    ``evaluate`` tallies a membership source."""
    return [counts_for_topic(t, sorted(table.members[t]), catalog) for t in sorted(table.members)]


class TestParseRuns:
    def test_three_line_fixture(self):
        runs = parse_runs("t1\t1\te1\nt1\t2\te2\nt2\t1\te9\n")
        assert [(r.topic_id, len(r)) for r in runs] == [("t1", 2), ("t2", 1)]

    def test_interleaved_topics(self):
        runs = parse_runs("t1\t1\te1\nt2\t1\te9\nt1\t2\te2\n")
        assert [(r.topic_id, r.entries) for r in runs] == [
            ("t1", ("e1", "e2")), ("t2", ("e9",))]

    def test_comments_blank_lines_and_header(self):
        text = "# crawl snapshot\ntopic_id\trank\tentity_id\n\nt1\t1\te1\n"
        runs = parse_runs(text)
        assert len(runs) == 1 and runs[0].entries == ("e1",)

    def test_rank_gap_names_file_and_line(self):
        with pytest.raises(ParseError) as err:
            parse_runs("t1\t1\te1\nt1\t3\te3\n", path="runs.tsv")
        assert "runs.tsv:2" in str(err.value)
        assert "expected rank 2" in str(err.value)

    @pytest.mark.parametrize("text, line, last", [
        ("t1\t1\te1\nt1\t2\te2\nt2\t1\te9\nt1\t1\te3\n", 4, 2),
        ("t1\t1\te1\nt1\t1\te3\n", 2, 1),
    ], ids=["after-another-topic", "at-once"])
    def test_a_topic_listed_again_is_named(self, text, line, last):
        with pytest.raises(ParseError) as err:
            parse_runs(text, path="runs.tsv")
        assert str(err.value) == (f"runs.tsv:{line}: topic 't1' is listed again: rank 1 "
                                  f"comes after its rank {last} (field: rank)")

    def test_rank_not_integer(self):
        with pytest.raises(ParseError, match="rank"):
            parse_runs("t1\tfirst\te1\n")

    def test_duplicate_entity(self):
        with pytest.raises(ParseError, match="twice"):
            parse_runs("t1\t1\te1\nt1\t2\te1\n")

    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match="fields"):
            parse_runs("t1\t1\n")

    def test_round_trip_identity(self):
        text = "t2\t1\tx\nt1\t1\te1\nt1\t2\te2\n"
        first = parse_runs(text)
        second = parse_runs(serialize_runs(first))
        assert first == second

    def test_large_generated_corpus(self, gender):
        rng = random.Random(4)
        topics = []
        for i in range(454):
            m = rng.randint(1, 10)
            topics.append(simulate_run(f"t{i:03d}", F(1, 2), F(0), m, gender,
                                       "female", seed=i))
        text = serialize_runs(t.run for t in topics)
        runs = parse_runs(text)
        assert len(runs) == 454
        assert all(len(r) <= 10 for r in runs)


class TestParseLabels:
    def test_direct_parse(self, gender):
        catalog = parse_labels("e1\tgender\tfemale\tkb\n", gender)
        assert catalog.assignments == {"e1": "female"}
        assert catalog.provenance == {"e1": "kb"}

    def test_provenance_defaults_to_kb(self, gender):
        catalog = parse_labels("e1\tgender\tfemale\n", gender)
        assert catalog.provenance["e1"] == "kb"

    def test_manual_overrides_kb(self, gender):
        catalog = parse_labels("e1\tgender\tfemale\tkb\ne1\tgender\tmale\tmanual\n",
                               gender)
        assert catalog.assignments["e1"] == "male"
        assert len(catalog.conflicts) == 1
        conflict = catalog.conflicts[0]
        assert conflict.kept_value == "male"
        assert conflict.kept_provenance == "manual"
        assert conflict.dropped_value == "female"
        assert conflict.dropped_provenance == "kb"

    def test_kb_does_not_override_manual(self, gender):
        catalog = parse_labels("e1\tgender\tmale\tmanual\ne1\tgender\tfemale\tkb\n",
                               gender)
        assert catalog.assignments["e1"] == "male"
        assert len(catalog.conflicts) == 1

    def test_equal_priority_keeps_first(self, gender):
        catalog = parse_labels("e1\tgender\tfemale\tkb\ne1\tgender\tmale\tkb\n",
                               gender)
        assert catalog.assignments["e1"] == "female"
        assert len(catalog.conflicts) == 1

    def test_same_value_upgrades_provenance_quietly(self, gender):
        catalog = parse_labels(
            "e1\tgender\tfemale\tkb\ne1\tgender\tfemale\tmanual\n", gender)
        assert catalog.provenance["e1"] == "manual"
        assert catalog.conflicts == ()

    def test_unlisted_provenance_ranks_lowest(self, gender):
        catalog = parse_labels(
            "e1\tgender\tfemale\tguessed\ne1\tgender\tmale\tinferred\n", gender)
        assert catalog.assignments["e1"] == "male"

    def test_explicit_unknown_round_trips(self, gender):
        catalog = parse_labels("e1\tgender\tunknown\tmanual\n", gender)
        assert catalog.label_of("e1") is None
        assert catalog.assignments["e1"] == "unknown"
        assert parse_labels(serialize_labels(catalog), gender) == catalog

    def test_other_features_ignored(self, gender):
        catalog = parse_labels("e1\tage\tyoung\ne2\tgender\tmale\n", gender)
        assert set(catalog.assignments) == {"e2"}

    def test_value_outside_scheme(self, gender):
        with pytest.raises(ParseError) as err:
            parse_labels("e1\tgender\tother\tkb\n", gender, path="labels.tsv")
        assert "labels.tsv:1" in str(err.value)

    def test_round_trip_identity(self, gender):
        text = ("b\tgender\tmale\tmanual\na\tgender\tfemale\tkb\n"
                "c\tgender\tunknown\tinferred\n")
        first = parse_labels(text, gender)
        assert parse_labels(serialize_labels(first), gender) == first

    def test_the_catalog_keeps_each_value_and_provenance_once(self, gender):
        provenances = ("manual", "kb", "inferred", "crowd", "")
        text = "".join(f"e{i:05d}\tgender\t{('female', 'male', 'unknown')[i % 3]}\t"
                       f"{provenances[i % 5]}\n" for i in range(5_000))
        catalog = parse_labels(text, gender)
        assert len(catalog.assignments) == 5_000
        assert len({id(v) for v in catalog.assignments.values()}) <= len(gender.admissible)
        texts = set(catalog.provenance.values())
        assert texts == {"manual", "kb", "inferred", "crowd"}
        assert len({id(p) for p in catalog.provenance.values()}) <= len(texts)

    def test_unknown_in_window_matches_hand_count(self, gender):
        # 20-entity fixture: entities e00..e19; labels only for even indexes,
        # with e04/e08 explicitly unknown. Window of 10 therefore has 5
        # catalog misses + 2 explicit unknowns = 7 unlabeled entities.
        rows = []
        for i in range(0, 20, 2):
            value = "unknown" if i in (4, 8) else ("female" if i % 4 == 0 else "male")
            rows.append(f"e{i:02d}\tgender\t{value}\tkb")
        catalog = parse_labels("\n".join(rows) + "\n", gender)
        window = [f"e{i:02d}" for i in range(10)]
        unlabeled = sum(1 for e in window if catalog.label_of(e) is None)
        assert unlabeled == 7


class TestMembersAndCounts:
    def test_parse_and_dedupe(self):
        table = parse_members("t1\te1\nt1\te1\nt1\te2\nt2\te9\n")
        assert table.members == {"t1": ("e1", "e2"), "t2": ("e9",)}

    def test_round_trip_identity(self):
        table = parse_members("t2\tz\nt1\tb\nt1\ta\n")
        assert parse_members(serialize_members(table)) == table

    def test_member_lists_are_freed_as_they_are_copied(self):
        rows = [(f"t{i % 400}", f"e{i:06d}") for i in range(40_000)]
        text = "".join(f"{topic}\t{entity}\n" for topic, entity in rows)
        lists: dict[str, list[str]] = {}
        for topic, entity in rows:
            lists.setdefault(topic, []).append(entity)
        list_bytes = sum(map(sys.getsizeof, lists.values()))
        parse_members(text)  # first-call allocations are not the table's
        tracemalloc.start()
        try:
            table = parse_members(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tuple_bytes = sum(map(sys.getsizeof, table.members.values()))
        # Every list alive beside every tuple would peak at kept + list_bytes.
        assert peak < kept + list_bytes - tuple_bytes / 2

    def test_counts_with_unknowns(self, gender):
        catalog = support.catalog_of(gender, {"e1": "female", "e2": "male",
                                              "e3": "male"})
        table = MembershipTable({"t": ("e1", "e2", "e3", "e4")})
        (counts,) = tally(table, catalog)
        assert counts.counts == {"female": 1, "male": 2}
        assert counts.total == 3
        assert counts.unknown_count == 1

    def test_single_valued_population(self, gender):
        catalog = support.catalog_of(gender, {"e1": "male", "e2": "male"})
        table = MembershipTable({"t": ("e1", "e2")})
        (counts,) = tally(table, catalog)
        assert F(counts.count_of("male"), counts.total) == 1

    def test_zero_labeled_members_names_topic(self, gender):
        catalog = support.catalog_of(gender, {"other": "male"})
        table = MembershipTable({"ghost-topic": ("e1", "e2")})
        with pytest.raises(EmptyPopulationError, match="ghost-topic"):
            tally(table, catalog)

    def test_matches_group_by_oracle(self, gender):
        # 50 synthetic topics; oracle is an independent one-pass tally over
        # the raw (topic, entity, label) triples.
        rng = random.Random(11)
        mapping = {}
        members: dict[str, set[str]] = {}
        for t in range(50):
            topic = f"p{t:02d}"
            members[topic] = set()
            for i in range(rng.randint(1, 30)):
                entity = f"{topic}:e{i}"
                members[topic].add(entity)
                roll = rng.random()
                if roll < 0.45:
                    mapping[entity] = "female"
                elif roll < 0.9:
                    mapping[entity] = "male"
                # else: leave unlabeled
        # Guarantee every topic has at least one labeled member.
        for topic, entities in members.items():
            mapping[sorted(entities)[0]] = "female"
        catalog = support.catalog_of(gender, mapping)
        table = MembershipTable({t: tuple(s) for t, s in members.items()})
        result = {c.topic_id: c for c in tally(table, catalog)}

        oracle: dict[str, dict[str, int]] = {}
        oracle_unknown: dict[str, int] = {}
        for topic, entities in members.items():
            for entity in entities:
                label = mapping.get(entity)
                if label is None:
                    oracle_unknown[topic] = oracle_unknown.get(topic, 0) + 1
                else:
                    oracle.setdefault(topic, {}).setdefault(label, 0)
                    oracle[topic][label] += 1
        for topic in members:
            assert result[topic].counts == oracle[topic]
            assert result[topic].unknown_count == oracle_unknown.get(topic, 0)

    @given(assigned=st.dictionaries(st.sampled_from([f"e{i}" for i in range(8)]),
                                    st.sampled_from(("red", "green", "blue", "?"))),
           entities=st.lists(st.sampled_from([f"e{i}" for i in range(12)]), unique=True))
    def test_equals_a_label_of_tally(self, assigned, entities):
        catalog = LabelCatalog.build(COLOURS, [(e, v, "kb") for e, v in assigned.items()])
        outcomes = []
        for count in (counts_for_topic, label_of_counts):
            try:
                outcomes.append(count("t", tuple(entities), catalog))
            except EmptyPopulationError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


# Three declared values and an unknown token that is not the default.
COLOURS = FeatureScheme("colour", ("red", "green", "blue"), unknown_token="?")


def label_of_counts(topic_id, entity_ids, labels):
    """``counts_for_topic`` as it was, one ``label_of`` call per member."""
    counts = {value: 0 for value in labels.scheme.values}
    unknown = 0
    for entity in entity_ids:
        value = labels.label_of(entity)
        if value is None:
            unknown += 1
        else:
            counts[value] += 1
    if sum(counts.values()) == 0:
        raise EmptyPopulationError(
            f"topic {topic_id!r} has no labeled members for feature "
            f"{labels.feature_name!r} ({unknown} unknown)")
    return TargetCounts(topic_id=topic_id, feature_name=labels.feature_name,
                        counts={v: c for v, c in counts.items() if c > 0},
                        unknown_count=unknown)


class TestMembersFormat:
    @pytest.mark.parametrize("first, expected", [
        ("{", "json"), ("  ?topic\t?entity", "tsv"), ("t1\te1", "members"),
        ("  # not a comment", "members")])
    def test_a_long_preamble_is_scanned_once(self, monkeypatch, first, expected):
        """Telling the format of a handle that opens with 20,000 blank and
        comment lines scans each character about once: the texts given to
        the preamble pattern sum to at most twice the text read. The handle
        is sought back to where it was."""
        ends = ("\n", "\r\n", "\r")
        preamble = "".join(("   " if i % 5 == 0 else f"# line {i} " + "x" * (i % 97))
                           + ends[i % 3] for i in range(20_000))
        text = preamble + first + "\n"
        handle = io.StringIO("skipped" + text)
        handle.seek(7)
        scanned = []
        pattern = ingest._PREAMBLE

        class Counting:
            def match(self, text):
                scanned.append(len(text))
                return pattern.match(text)
        monkeypatch.setattr(ingest, "_PREAMBLE", Counting())
        assert ingest._members_format(handle) == expected
        assert handle.tell() == 7
        assert sum(scanned) <= 2 * len(text)

    @given(lines=st.lists(st.tuples(st.sampled_from(("", " ", "\t ", "#", "# x", "#{")),
                                    st.sampled_from(("\n", "\r\n", "\r"))), max_size=8),
           first=st.sampled_from(("{", "?t", " {", "t1\te1", " #", "", "\t?")),
           step=st.integers(1, 5))
    def test_a_handle_read_in_any_pieces_reads_as_its_text(self, lines, first, step):
        text = "".join(line + end for line, end in lines) + first

        class Pieces(io.StringIO):  # never more than ``step`` characters a read
            def read(self, size=-1):
                return super().read(step if size < 0 else min(size, step))
        handle = Pieces(text)
        assert ingest._members_format(handle) == ingest._members_format(text)
        assert handle.tell() == 0


class TestParseTargetCounts:
    def test_direct_ratio(self, gender):
        counts = parse_target_counts(
            "t1\tgender\tfemale\t30\nt1\tgender\tmale\t70\n", gender)
        assert F(counts[0].count_of("female"), counts[0].total) == F(3, 10)

    def test_negative_count(self, gender):
        with pytest.raises(ParseError) as err:
            parse_target_counts("t1\tgender\tfemale\t-1\n", gender, path="targets.tsv")
        assert "negative count" in str(err.value)
        assert "targets.tsv:1" in str(err.value)

    def test_value_outside_scheme(self, gender):
        with pytest.raises(ParseError, match="not declared"):
            parse_target_counts("t1\tgender\tdog\t3\n", gender)

    def test_duplicate_value_row(self, gender):
        with pytest.raises(ParseError, match="repeats"):
            parse_target_counts(
                "t1\tgender\tfemale\t3\nt1\tgender\tfemale\t4\n", gender)

    def test_declared_total_cross_check(self, gender):
        good = "t1\tgender\tfemale\t3\t10\nt1\tgender\tmale\t7\t10\n"
        assert parse_target_counts(good, gender)[0].total == 10
        bad = "t1\tgender\tfemale\t3\t11\nt1\tgender\tmale\t7\t11\n"
        with pytest.raises(ParseError, match="total"):
            parse_target_counts(bad, gender)

    def test_conflicting_declared_totals(self, gender):
        text = "t1\tgender\tfemale\t3\t10\nt1\tgender\tmale\t7\t9\n"
        with pytest.raises(ParseError, match="conflicting totals"):
            parse_target_counts(text, gender)

    def test_unknown_row_excluded_from_total(self, gender):
        counts = parse_target_counts(
            "t1\tgender\tfemale\t3\nt1\tgender\tmale\t7\nt1\tgender\tunknown\t5\n",
            gender)
        assert counts[0].total == 10
        assert counts[0].unknown_count == 5

    def test_only_unknown_rows_is_empty_population(self, gender):
        with pytest.raises(ParseError, match="empty population"):
            parse_target_counts("t1\tgender\tunknown\t5\n", gender)

    def test_membership_round_trip(self, gender):
        catalog = support.catalog_of(
            gender, {"a": "female", "b": "male", "c": "male", "d": "female"})
        table = MembershipTable({"t1": ("a", "b", "e"), "t2": ("c", "d")})
        first = tally(table, catalog)
        text = serialize_target_counts(first, gender)
        assert parse_target_counts(text, gender) == first


class TestStreamsAndFields:
    def test_file_object_supplies_name(self, gender, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("e1\tgender\tbogus\n", encoding="utf-8")
        with open(path, encoding="utf-8") as handle:
            with pytest.raises(ParseError) as err:
                parse_labels(handle, gender)
        assert str(path) in str(err.value)

    def test_stringio_parses(self):
        runs = parse_runs(io.StringIO("t1\t1\te1\n"))
        assert runs[0].entries == ("e1",)

    def test_serializer_rejects_tab_in_field(self, gender):
        catalog = LabelCatalog.build(gender, [("e\t1", "female", "kb")])
        with pytest.raises(ValueError, match="tab"):
            serialize_labels(catalog)


# Characters str.splitlines() breaks at but a text file does not.
UNICODE_SEPARATORS = ("\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")
GENDER = FeatureScheme("gender", ("female", "male"))
TSV_PARSERS = {
    "runs": parse_runs,
    "labels": lambda source: parse_labels(source, GENDER),
    "members": parse_members,
    "targets": lambda source: parse_target_counts(source, GENDER),
    "sparql-tsv": parse_sparql_results,
}
TSV_TEXT = st.lists(st.sampled_from((
    "\t", "\r", "\n", "#", "0", "1", "2", "12", "topic_id", "rank", "entity_id",
    "feature_name", "value", "provenance", "count", "total", "gender", "female", "male",
    "unknown", "?topic", "?entity", "?value", "<http://x/Q1>", *UNICODE_SEPARATORS,
)), max_size=40).map("".join)


def _outcome(parse, source):
    try:
        return parse(source)
    except ParseError as exc:
        assert exc.line is not None, str(exc)
        return str(exc)


class TestLineBreaks:
    @pytest.mark.parametrize("parser", sorted(TSV_PARSERS))
    @given(text=TSV_TEXT)
    def test_text_and_file_split_into_the_same_lines(self, parser, text):
        parse = TSV_PARSERS[parser]
        assert _outcome(parse, text) == _outcome(parse, io.StringIO(text, newline=None))

    def test_a_string_source_peaks_no_higher_than_a_handle(self):
        text = "?topic\t?entity\t?value\n" + "".join(
            f'"t{i % 20}"\t<http://x/entity/p{i:05d}>\t"{("female", "male")[i % 2]}"\r\n'
            for i in range(20_000))
        for source in (text, io.StringIO(text)):  # first-call allocations are not the source's
            parse_sparql_results(source)
        peaks = []
        for source in (text, io.StringIO(text)):
            tracemalloc.start()
            try:
                parse_sparql_results(source)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # Splitting a string holds an iterator where a handle holds none, a few
        # hundred bytes; a copy of the text would cost at least its length.
        assert peaks[0] <= peaks[1] + 1024

    @pytest.mark.parametrize("separator", UNICODE_SEPARATORS)
    def test_unicode_separators_stay_inside_a_field(self, separator, tmp_path):
        runs = [RankedRun("t1", (f"a{separator}b", "c"))]
        text = serialize_runs(runs)
        assert parse_runs(text) == runs
        (tmp_path / "runs.tsv").write_text(text, encoding="utf-8")
        with open(tmp_path / "runs.tsv", encoding="utf-8") as handle:
            assert parse_runs(handle) == runs


GENDER = FeatureScheme("gender", ("female", "male"))
GENDER_VALUES = ("female", "male", "unknown")
# Rows over at most six entities, at the listed tags and one unlisted tag.
LABEL_ROWS = st.lists(st.tuples(st.sampled_from(("e1", "e2", "e3", "e4", "e5", "e6")),
                                st.sampled_from(GENDER_VALUES),
                                st.sampled_from(("manual", "kb", "inferred", "crowd"))),
                      max_size=12)


class TestCatalogMerge:
    def test_merge_respects_priorities(self, gender):
        base = LabelCatalog.build(gender, [("e1", "female", "manual"),
                                           ("e2", "male", "kb")])
        merged = base.merged([("e1", "male", "kb"), ("e3", "female", "kb")])
        assert merged.assignments == {"e1": "female", "e2": "male", "e3": "female"}
        assert len(merged.conflicts) == 1

    def test_merge_keeps_the_catalogs_own_conflicts_first(self, gender):
        base = LabelCatalog.build(gender, [("e1", "female", "kb"), ("e1", "male", "manual")])
        merged = base.merged([("e1", "female", "inferred"), ("e2", "male", "kb")])
        assert merged.conflicts == (
            base.conflicts[0],
            LabelConflict("e1", "male", "manual", "female", "inferred"))
        assert merged.assignments == {"e1": "male", "e2": "male"}

    def test_catalog_rejects_undeclared_value(self, gender):
        with pytest.raises(Exception):
            LabelCatalog(scheme=gender, assignments={"e": "dog"},
                         provenance={"e": "kb"})

    def test_the_constructor_takes_a_provenance_dict_over_the_assigned_entities(self, gender):
        catalog = LabelCatalog(scheme=gender, assignments={"e1": "female", "e2": "male"},
                               provenance={"e1": "kb", "e2": "inferred"})
        assert catalog == LabelCatalog.build(gender, [("e1", "female", "kb"),
                                                      ("e2", "male", "inferred")])
        for assignments in ({"e1": "female"}, {"e1": "female", "e2": "male", "e3": "male"}):
            with pytest.raises(SchemeViolationError, match="provenance must cover"):
                dataclasses.replace(catalog, assignments=assignments)

    def test_provenance_is_a_read_only_view(self, gender):
        catalog = parse_labels("e1\tgender\tfemale\ne2\tgender\tmale\tmanual\n", gender)
        assert catalog.provenance == {"e1": "kb", "e2": "manual"}
        with pytest.raises(TypeError):
            catalog.provenance["e1"] = "manual"
        with pytest.raises(KeyError):
            catalog.provenance["e3"]

    def test_a_catalog_of_kb_rows_holds_one_dict(self, gender):
        text = "".join(f"e{i:06d}\tgender\t{('female', 'male')[i % 2]}\n"
                       for i in range(50_000))
        parse_labels(io.StringIO(text), gender)  # first-call allocations are not the catalog's
        handle = io.StringIO(text)
        tracemalloc.start()
        try:
            catalog = parse_labels(handle, gender)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        dict_bytes = sys.getsizeof(catalog.assignments)
        one_dict = dict_bytes + sum(map(sys.getsizeof, catalog.assignments))
        # A provenance dict beside the assignments would keep dict_bytes more.
        assert kept < one_dict + dict_bytes / 2

    @given(base=LABEL_ROWS, rows=LABEL_ROWS,
           relabel=st.none() | st.lists(st.sampled_from(GENDER_VALUES), min_size=6,
                                        max_size=6))
    @example(base=[("e1", "female", "inferred")], rows=[("e1", "female", "kb")],
             relabel=None)
    @example(base=[("e1", "female", "inferred")], rows=[("e1", "male", "kb")],
             relabel=None)
    @example(base=[("e1", "female", "inferred"), ("e2", "male", "crowd"),
                   ("e3", "unknown", "kb")],
             rows=[("e1", "female", "kb"), ("e2", "male", "manual"), ("e3", "male", "kb")],
             relabel=["male", "female", "unknown", "male", "male", "male"])
    def test_the_fold_equals_the_two_dict_fold(self, base, rows, relabel):
        """``build`` then ``merged`` against the fold that kept a full
        provenance dict, also after ``dataclasses.replace`` gave the catalog
        new assignments over the same entities."""
        catalog = LabelCatalog.build(GENDER, base)
        reference = ingest_reference.TwoDictCatalog.build(GENDER, base)
        if relabel is not None:
            assignments = dict(zip(catalog.assignments, relabel))
            catalog = dataclasses.replace(catalog, assignments=assignments)
            reference = dataclasses.replace(reference, assignments=dict(assignments))
        assert dict(catalog.provenance) == reference.provenance
        merged, expected = catalog.merged(rows), reference.merged(rows)
        assert merged.assignments == expected.assignments
        assert dict(merged.provenance) == expected.provenance
        assert merged.conflicts == expected.conflicts


# ---------------------------------------------------------------------------
# The parsers against the readers they replaced
# ---------------------------------------------------------------------------

# Whitespace str.strip() removes but a text file does not break a line at.
PADS = ("", " ", "  ", "\x0b", "\x0c", "\xa0", "\u3000", "\x85", "\u2028", "\x1c")
RANK_TEXTS = ("+2", "02", "1_0", "\u0662", "x", "", "-1", "0")


def _arabic_indic(number):
    return "".join(chr(0x660 + int(digit)) for digit in str(number))


@st.composite
def tsv_texts(draw, kind):
    """TSV text for the ``kind`` parser: comment, blank and header lines
    around data rows that are most often well-formed, with padded fields,
    wrong widths, empty fields, odd and gapped ranks, interleaved topics,
    repeated entities, other features and competing provenances."""
    header = {"runs": ingest.RUNS_HEADER, "labels": ingest.LABELS_HEADER,
              "members": ingest.MEMBERS_HEADER, "targets": ingest.TARGETS_HEADER}[kind]
    ranks: dict[str, int] = {}

    def pad(text):
        return draw(st.sampled_from(PADS)) + text + draw(st.sampled_from(PADS))

    def rank_text(topic):
        ranks[topic] = expected = ranks.get(topic, 0) + 1
        choice = draw(st.integers(0, 19))
        if choice < 10:
            return str(expected)
        forms = (f"+{expected}", f"0{expected}", _arabic_indic(expected),
                 "_".join(str(expected)), str(expected + 1), *RANK_TEXTS)
        return forms[choice - 10] if choice - 10 < len(forms) else str(expected)

    def data_row():
        topic = draw(st.sampled_from(("t1", "t2", "T3")))
        entity = draw(st.sampled_from(("e1", "e2", "e3", "e4")))
        feature = draw(st.sampled_from(("gender",) * 4 + ("age", "Gender")))
        value = draw(st.sampled_from(("female", "male", "unknown") * 4 + ("dog",)))
        if kind == "runs":
            fields = [topic, rank_text(topic), entity]
        elif kind == "labels":
            fields = [entity, feature, value]
            fields += draw(st.sampled_from(
                ([], ["manual"], ["kb"], ["inferred"], ["guessed"], [""])))
        elif kind == "members":
            fields = [topic, entity]
        else:
            fields = [topic, feature, value,
                      draw(st.sampled_from(("1", "3", "0", "+2", "\u0662") * 3 + ("-2", "x")))]
            fields += draw(st.sampled_from(([],) * 6 + (["4"], ["7"], [""], ["y"])))
        if draw(st.integers(0, 14)) == 0:
            fields[draw(st.integers(0, len(fields) - 1))] = ""
        width = draw(st.integers(0, 19))
        if width == 0:
            fields.pop()
        elif width == 1:
            fields.append(draw(st.sampled_from(("", "extra"))))
        return "\t".join(pad(f) for f in fields)

    def header_line():
        names = header[:draw(st.integers(1, len(header)))]
        case = draw(st.sampled_from((str.lower, str.upper, str.title)))
        return "\t".join(pad(case(name)) for name in names)

    lines = []
    for _ in range(draw(st.integers(0, 10))):
        line_kind = draw(st.integers(0, 19))
        if line_kind == 0:
            lines.append("#" + draw(st.sampled_from(("", " note", "\tx\ty"))))
        elif line_kind == 1:
            lines.append(draw(st.sampled_from(("", " ", "\t", "\u3000", "\x85 "))))
        elif line_kind == 2:
            lines.append(header_line())
        else:
            lines.append(data_row())
    ends = st.sampled_from(("\n", "\n", "\r\n", "\r"))
    text = "".join(line + draw(ends) for line in lines)
    return text[:-1] if lines and draw(st.booleans()) else text


REFERENCE_PARSERS = {
    "runs": ingest_reference.parse_runs,
    "labels": lambda source: ingest_reference.parse_labels(source, GENDER),
    "members": ingest_reference.parse_members,
    "targets": lambda source: ingest_reference.parse_target_counts(source, GENDER),
}


def _outcome_of(parse, text):
    """``_outcome``, with a catalog's conflicts, which catalog equality
    leaves out."""
    result = _outcome(parse, text)
    return (result, result.conflicts) if isinstance(result, LabelCatalog) else result


class TestAgainstTheReplacedReaders:
    @pytest.mark.parametrize("kind", sorted(REFERENCE_PARSERS))
    @given(data=st.data())
    def test_same_result_or_same_error(self, kind, data):
        text = data.draw(tsv_texts(kind))
        assert (_outcome_of(TSV_PARSERS[kind], text)
                == _outcome_of(REFERENCE_PARSERS[kind], text))
