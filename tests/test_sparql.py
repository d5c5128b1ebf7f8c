from __future__ import annotations

import io
import json
import re
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from biaslens import (
    FeatureScheme,
    LabelCatalog,
    LabelConflict,
    MembershipTable,
    ParseError,
    SparqlExtraction,
    extraction_to_catalog,
    ingest,
    parse_sparql_results,
)
from biaslens import _jsonwalk


def json_export(rows, variables=("topic", "entity", "value")):
    bindings = []
    for row in rows:
        binding = {}
        for var, cell in zip(variables, row):
            if cell is not None:
                binding[var] = cell
        bindings.append(binding)
    return json.dumps({"head": {"vars": list(variables)},
                       "results": {"bindings": bindings}})


def label_rows(extraction):
    """An extraction's label rows as (entity, raw value) pairs, in file order."""
    return tuple(zip(extraction.label_entities, extraction.label_values))


def uri(value):
    return {"type": "uri", "value": value}


def literal(value):
    return {"type": "literal", "value": value}


TWO_ROWS_JSON = json_export([
    (literal("philosopher"), uri("http://www.wikidata.org/entity/Q123"),
     literal("female")),
    (literal("philosopher"), uri("http://www.wikidata.org/entity/Q456"),
     literal("male")),
])

TWO_ROWS_TSV = (
    "?topic\t?entity\t?value\n"
    '"philosopher"\t<http://www.wikidata.org/entity/Q123>\t"female"\n'
    '"philosopher"\t<http://www.wikidata.org/entity/Q456>\t"male"\n'
)


def test_json_two_rows():
    extraction = parse_sparql_results(TWO_ROWS_JSON)
    assert extraction.members.members == {"philosopher": ("Q123", "Q456")}
    assert label_rows(extraction) == (("Q123", "female"), ("Q456", "male"))
    assert extraction.label_rows == label_rows(extraction)  # kept for its old readers


def test_tsv_matches_json():
    assert parse_sparql_results(TWO_ROWS_TSV) == parse_sparql_results(TWO_ROWS_JSON)


def test_hash_fragment_iris_shorten():
    export = json_export([(literal("poet"), uri("http://example.org/ont#E42"),
                           literal("female"))])
    extraction = parse_sparql_results(export)
    assert extraction.members.members == {"poet": ("E42",)}


def test_iri_valued_feature_shortens_too():
    export = json_export([
        (literal("poet"), uri("http://www.wikidata.org/entity/Q1"),
         uri("http://www.wikidata.org/entity/Q6581072")),
    ])
    extraction = parse_sparql_results(export)
    assert label_rows(extraction) == (("Q1", "Q6581072"),)


def test_missing_binding_column():
    export = json.dumps({"head": {"vars": ["topic", "value"]},
                         "results": {"bindings": []}})
    with pytest.raises(ParseError, match="entity"):
        parse_sparql_results(export, path="export.json")


def malformed(head=None, results=None, **cells):
    """A one-binding export with ``head``, ``results`` or cells replaced."""
    binding = {"topic": literal("poet"), "entity": uri("http://x/Q1"), **cells}
    doc = {"head": {"vars": ["topic", "entity", "value"]},
           "results": {"bindings": [binding]}}
    doc["head"] = doc["head"] if head is None else head
    doc["results"] = doc["results"] if results is None else results
    return json.dumps(doc)


@pytest.mark.parametrize("export, located", [
    (malformed(results={"bindings": [1]}), ("export.json:1", None)),
    (malformed(topic="a"), ("export.json:1", "topic")),
    (malformed(results=[]), ("export.json", "results")),
    (malformed(results={"bindings": 5}), ("export.json", "results")),
    (malformed(head={"vars": [1]}), ("export.json", "head")),
    (malformed(head={"vars": "topic entity"}), ("export.json", "head")),
    (malformed(head=[]), ("export.json", "head")),
    (malformed(value={"type": "literal", "value": None}), ("export.json:1", "value")),
    (malformed(value={"type": "literal"}), ("export.json:1", "value")),
], ids=["binding-not-object", "cell-not-object", "results-not-object",
        "bindings-not-list", "vars-not-strings", "vars-a-string", "head-not-object",
        "value-null", "value-missing"])
def test_malformed_json_export_is_a_located_parse_error(export, located):
    where, field = located
    with pytest.raises(ParseError) as err:
        parse_sparql_results(export, path="export.json")
    assert str(err.value).startswith(f"{where}: ")
    assert err.value.field == field


def test_row_missing_topic_binding():
    export = json_export([(None, uri("http://x.org/Q1"), literal("female"))])
    with pytest.raises(ParseError) as err:
        parse_sparql_results(export, path="export.json")
    assert "export.json:1" in str(err.value)


def test_optional_value_binding_contributes_membership_only():
    export = json_export([
        (literal("poet"), uri("http://x.org/Q1"), None),
        (literal("poet"), uri("http://x.org/Q2"), literal("male")),
    ])
    extraction = parse_sparql_results(export)
    assert extraction.members.members["poet"] == ("Q1", "Q2")
    assert label_rows(extraction) == (("Q2", "male"),)


def test_strict_rejects_literal_entity():
    export = json_export([(literal("poet"), literal("plain-text"), literal("male"))])
    with pytest.raises(ParseError, match="IRI"):
        parse_sparql_results(export, strict=True)
    # Tolerated when strict is off.
    extraction = parse_sparql_results(export)
    assert extraction.members.members["poet"] == ("plain-text",)


def test_invalid_json_names_position():
    with pytest.raises(ParseError) as err:
        parse_sparql_results("{not json", path="export.json")
    assert "export.json" in str(err.value)


def test_tsv_wrong_field_count():
    text = "?topic\t?entity\t?value\n\"a\"\t<http://x/Q1>\n"
    for preamble, line in (("", 2), ("# exported\n\n", 4)):
        with pytest.raises(ParseError) as err:
            parse_sparql_results(preamble + text, path="export.tsv")
        assert f"export.tsv:{line}:" in str(err.value)


def test_tsv_literal_suffixes_stripped():
    text = ('?topic\t?entity\t?value\n'
            '"poet"@en\t<http://x/Q1>\t"female"^^<http://www.w3.org/2001/'
            'XMLSchema#string>\n')
    extraction = parse_sparql_results(text)
    assert extraction.members.members == {"poet": ("Q1",)}
    assert label_rows(extraction) == (("Q1", "female"),)


def test_custom_variable_names():
    export = json_export(
        [(literal("poet"), uri("http://x/Q1"), literal("male"))],
        variables=("occupation", "person", "genderValue"),
    )
    extraction = parse_sparql_results(export, topic_var="occupation",
                                      entity_var="person", value_var="genderValue")
    assert label_rows(extraction) == (("Q1", "male"),)


def test_extraction_to_catalog_with_value_map(gender):
    export = json_export([
        (literal("poet"), uri("http://x/Q1"), uri("http://x/Q6581072")),
        (literal("poet"), uri("http://x/Q2"), uri("http://x/Q6581097")),
    ])
    extraction = parse_sparql_results(export)
    catalog, dropped = extraction_to_catalog(
        extraction, LabelCatalog.build(gender, [("Q3", "male", "manual")]),
        value_map={"Q6581072": "female", "Q6581097": "male"})
    assert catalog.assignments == {"Q3": "male", "Q1": "female", "Q2": "male"}
    assert catalog.provenance == {"Q3": "manual", "Q1": "kb", "Q2": "kb"}
    assert dropped == 0


def test_extraction_to_catalog_drops_and_counts_unmapped(gender):
    export = json_export([
        (literal("poet"), uri("http://x/Q1"), literal("Q6581072")),
        (literal("poet"), uri("http://x/Q2"), literal("unknown")),
        (literal("poet"), uri("http://x/Q3"), literal("other")),
        (literal("poet"), uri("http://x/Q4"), literal("nonbinary")),
    ])
    catalog, dropped = extraction_to_catalog(
        parse_sparql_results(export), LabelCatalog.build(gender, []),
        value_map={"other": "female", "nonbinary": "other"})
    assert catalog.assignments == {"Q2": "unknown", "Q3": "female"}
    assert dropped == 2


def test_conflicting_export_rows_surface_in_catalog(gender):
    export = json_export([
        (literal("poet"), uri("http://x/Q1"), literal("female")),
        (literal("poet"), uri("http://x/Q1"), literal("male")),
        (literal("poet"), uri("http://x/Q2"), literal("male")),
    ])
    base = LabelCatalog.build(gender, [("Q2", "female", "manual"), ("Q2", "male", "kb")])
    catalog, _ = extraction_to_catalog(parse_sparql_results(export), base)
    assert catalog.assignments == {"Q1": "female", "Q2": "female"}  # first row wins at equal rank
    assert catalog.conflicts == (
        base.conflicts[0],
        LabelConflict("Q1", "female", "kb", "male", "kb"),
        LabelConflict("Q2", "female", "manual", "male", "kb"))


# ---------------------------------------------------------------------------
# The streamed JSON decoder against the whole-document one it replaced
# ---------------------------------------------------------------------------

def loads_with_offsets(text):
    """``json.loads`` of ``text`` through json's pure-Python scanner, and the
    offset where each element of each array starts, keyed by the array's id."""
    offsets = {}

    def parse_array(s_and_end, scan_once):
        starts = []

        def scan(string, idx):
            starts.append(idx)
            return scan_once(string, idx)
        values, end = json.decoder.JSONArray(s_and_end, scan)
        offsets[id(values)] = starts
        return values, end
    decoder = json.JSONDecoder()
    decoder.parse_array = parse_array
    decoder.scan_once = json.scanner.py_make_scanner(decoder)
    return decoder.decode(text), offsets


def whole_document_rows(text, topic_var, entity_var, value_var, strict, path):
    """The decoder the streaming reader replaced: ``json.loads`` of the whole
    export, then a walk of the tree that checks each binding's cells in turn,
    with each binding's offset found by a second decode that records where
    array elements start. Kept as the reference."""
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=path, line=exc.lineno) from None
    doc, offsets = loads_with_offsets(text)
    head, results = doc.get("head", {}), doc.get("results", {})
    declared = head.get("vars", []) if type(head) is dict else None
    if type(declared) is not list or not all(type(var) is str for var in declared):
        raise ParseError("head must be an object whose vars are a list of strings",
                         path=path, field="head")
    for var in (topic_var, entity_var):
        if var not in declared:
            raise ParseError(f"missing binding column {var!r} (declared: "
                             f"{', '.join(declared) or 'none'})", path=path, field=var)
    bindings = results.get("bindings", []) if type(results) is dict else None
    if type(bindings) is not list:
        raise ParseError("results must be an object whose bindings are a list",
                         path=path, field="results")
    for index, (at, binding) in enumerate(zip(offsets.get(id(bindings), ()), bindings),
                                          start=1):
        def error(message, field=None):
            return ParseError(f"binding {index}: {message}", path=path,
                              line=text.count("\n", 0, at) + 1, field=field)
        if type(binding) is not dict:
            raise error("not an object")
        terms = {}  # each variable's text, IRIs shortened; None or empty when unbound
        for var in (topic_var, entity_var, value_var):
            cell = binding.get(var)
            if cell is not None and (type(cell) is not dict or type(cell.get("value")) is not str):
                raise error(f"{var!r} must be an object with a string value", var)
            value = cell and cell["value"]
            if value and any("\ud800" <= char <= "\udfff" for char in value):
                raise error(f"{var!r} holds a lone surrogate", var)
            terms[var] = (ingest._terminal_segment(value) if value and cell.get("type") == "uri"
                          else value)
        for var in (topic_var, entity_var):
            if not terms[var]:
                raise error(f"row is missing the {var!r} binding", var)
        if strict and binding[entity_var].get("type") != "uri":
            raise error(f"entity binding {terms[entity_var]!r} is not an IRI", entity_var)
        yield terms[topic_var], terms[entity_var], terms[value_var]


def streamed(text, strict=False):
    """The extraction, or the ParseError's text."""
    try:
        return parse_sparql_results(text, strict=strict, path="export.json")
    except ParseError as exc:
        return str(exc)


def whole_document(text, strict=False):
    with mock.patch.object(ingest, "_sparql_json_rows", whole_document_rows):
        return streamed(text, strict)


def windowed(text, window, strict=False):
    """The outcome of reading ``text`` from a handle through a window of
    ``window`` characters."""
    with mock.patch.object(_jsonwalk, "_WINDOW", window):
        return streamed(io.StringIO(text), strict)


def through_handle(text, strict=False):
    """The outcome of reading ``text`` from a handle, the same through every
    window of 1 to 16 characters, so that every token, string and binding
    falls across a refill."""
    outcome = windowed(text, 1, strict)
    for window in range(2, 17):
        assert windowed(text, window, strict) == outcome, window
    return outcome


class Obj(tuple):
    """A JSON object as its (key, value) pairs, in the order they are written."""


def render(value, space):
    """JSON text of ``value``, with ``space()`` drawn around every token."""
    if isinstance(value, Obj):
        body = ",".join(f"{space()}{json.dumps(k)}{space()}:{space()}{render(v, space)}"
                        for k, v in value)
        return "{" + (body or space()) + space() + "}"
    if isinstance(value, list):
        body = ",".join(space() + render(v, space) for v in value)
        return "[" + (body or space()) + space() + "]"
    return json.dumps(value) + space()


TERM_VALUES = st.sampled_from(["poet", "Q1", "http://x/Q1", "http://x/Q2/",
                               "http://x.org/ont#E42", "female", "male", "é\u2028",
                               "t\ud800"])
GOOD_CELL = st.builds(
    lambda kind, value, extra: Obj([("type", kind), ("value", value), *extra]),
    st.sampled_from(["uri", "literal", "bnode", "typed-literal"]), TERM_VALUES,
    st.sampled_from([(), (("xml:lang", "en"),), (("datatype", "http://x/string"),)]))
BAD_CELL = st.one_of(
    st.sampled_from([None, "a", 1, [], Obj([("type", "uri")]), Obj([("value", None)]),
                     Obj([("type", "literal"), ("value", 7)]), Obj([("value", ["x"])])]))
VARIABLES = ("topic", "entity", "value", "other")


@st.composite
def bindings(draw):
    if draw(st.integers(0, 39)) == 0:
        return draw(st.sampled_from([1, "x", None, [], True]))
    cells = []
    for var in draw(st.permutations(VARIABLES)):
        kind = draw(st.integers(0, 39))
        if kind < 2 or (kind < 12 and var in ("value", "other")):
            continue  # unbound
        if kind == 38:
            cells.append((var, Obj([("type", "literal"), ("value", "")])))  # empty
        else:
            cells.append((var, draw(BAD_CELL if kind == 39 else GOOD_CELL)))
    return Obj(cells)


@st.composite
def plain_bindings(draw):
    """A binding of the shape the fast path reads, most often with plain
    strings: the topic, entity and optional value cells in that order, each
    with exactly a type and a value."""
    cell = st.builds(lambda kind, value: Obj([("type", kind), ("value", value)]),
                     st.sampled_from(["uri", "literal", ""]), TERM_VALUES | st.just(""))
    variables = ("topic", "entity", "value") if draw(st.booleans()) else ("topic", "entity")
    return Obj((var, draw(cell)) for var in variables)


@st.composite
def exports(draw, binding=bindings()):
    """A W3C SPARQL JSON results export, well-formed JSON with no repeated
    member, most often of the right shape, with bindings drawn from ``binding``."""
    members = []
    head_kind = draw(st.integers(0, 9))
    if head_kind == 0:
        pass  # no head
    elif head_kind == 1:
        members.append(("head", draw(st.sampled_from(
            [[], None, Obj([("vars", "topic entity")]), Obj([("vars", [1])]), Obj()]))))
    else:
        names = draw(st.lists(st.sampled_from(VARIABLES), unique=True))
        if head_kind > 2:
            names = list(dict.fromkeys(["topic", "entity", *names]))
        members.append(("head", Obj([("vars", names), *draw(
            st.sampled_from([(), (("link", ["http://x/about"]),)]))])))
    results_kind = draw(st.integers(0, 19))
    if results_kind == 0:
        members.append(("results", draw(st.sampled_from([[], None, "r", Obj([("bindings", 5)])]))))
    elif results_kind > 1:
        results = [("bindings", draw(st.lists(binding, max_size=6)))]
        results += draw(st.lists(st.sampled_from(
            [("distinct", False), ("ordered", True), ("link", [Obj()])]),
            unique_by=lambda member: member[0]))
        members.append(("results", Obj(draw(st.permutations(results)))))
    members += draw(st.lists(st.sampled_from(
        [("link", ["http://x/meta"]), ("boolean", None), ("extra", Obj([("head", 1)]))]),
        unique_by=lambda member: member[0]))
    spaces = st.text(alphabet=" \t\n\r", max_size=2)
    return render(Obj(draw(st.permutations(members))), lambda: draw(spaces))


class TestStreamedDecoder:
    @given(text=exports(), strict=st.booleans())
    def test_equals_the_whole_document_decoder(self, text, strict):
        assert streamed(text, strict) == whole_document(text, strict)

    @given(text=exports(), strict=st.booleans(), window=st.integers(1, 16),
           pattern=st.booleans())
    def test_a_handle_read_through_a_window_equals_the_whole_document_decoder(
            self, text, strict, window, pattern):
        """With ``pattern`` false, every binding goes through json's scanner."""
        with mock.patch.object(ingest, "_plain_binding", ingest._plain_binding if pattern
                               else lambda variables, strict: None):
            outcome = windowed(text, window, strict)
        assert outcome == whole_document(text, strict)

    @given(text=exports(), cut=st.floats(0, 1), edits=st.lists(st.tuples(
        st.floats(0, 1), st.sampled_from(["", *'{}[]:,"\\ \n0-1eflnrstu']))),
        strict=st.booleans())
    def test_broken_text_is_a_parse_error(self, text, cut, edits, strict):
        text = text.lstrip()[:max(1, round(cut * len(text)))]
        for at, char in edits:
            at = round(at * len(text))
            text = text[:at] + char + text[at + 1:]
        outcome = streamed("{" + text[1:], strict)
        assert isinstance(outcome, (SparqlExtraction, str))

    @given(text=st.text(), strict=st.booleans())
    def test_any_object_text_is_a_parse_error(self, text, strict):
        assert isinstance(streamed("{" + text, strict), (SparqlExtraction, str))

    def test_results_before_head_reads_as_head_first(self, read=streamed):
        head_last = json.dumps({"results": json.loads(TWO_ROWS_JSON)["results"],
                                "head": json.loads(TWO_ROWS_JSON)["head"]})
        assert read(head_last) == read(TWO_ROWS_JSON) == parse_sparql_results(TWO_ROWS_JSON)

    def test_results_before_head_reads_as_head_first_through_a_handle(self):
        self.test_results_before_head_reads_as_head_first(through_handle)

    ERRORS = pytest.mark.parametrize("text, message", [
        ('{"head": {"vars": ["topic", "entity"]}} x', "export.json:1: invalid JSON: Extra data"),
        ('{"head": {"vars": ["topic", "entity"]},\n "results": {"bindings": [{]}}',
         "export.json:2: invalid JSON: Expecting property name enclosed in double quotes"),
        ('{"results": {"bindings": [1]},\n "head": {"vars": ["topic"]}}',
         "export.json: missing binding column 'entity' (declared: topic) (field: entity)"),
        ('{"head": ' + "[" * 100_000 + "]" * 100_000 + "}",
         "export.json: invalid JSON: nested too deeply"),
    ], ids=["trailing-data", "syntax", "head-checked-before-held-bindings", "deep"])

    @ERRORS
    def test_errors(self, text, message, read=streamed):
        assert read(text) == message

    @ERRORS
    def test_errors_through_a_handle(self, text, message):
        self.test_errors(text, message, through_handle)

    def test_a_value_missing_inside_a_binding_reads_as_json_words_it(self):
        """json's scanner stops at the missing value, not at the binding."""
        text = ('{"head": {"vars": ["topic", "entity"]}, "results": {"bindings": [\n'
                '{"topic": {"type": "literal",\n"value": }}]}}')
        with pytest.raises(json.JSONDecodeError) as err:
            json.loads(text)
        assert (err.value.lineno, err.value.msg) == (3, "Expecting value")
        assert streamed(text) == through_handle(text) == (
            "export.json:3: invalid JSON: Expecting value")

    def test_a_syntax_error_in_head_is_raised_before_a_later_byte_is_read(self):
        """A member decoded whole is read no further than its syntax error:
        the byte that is not UTF-8, 500 kB on, is never decoded."""
        data = (b'{\n"head": {"vars": ]},\n"pad": "' + b"x" * 500_000
                + b'",\n"results": {"bindings": [{"topic": "\xff"}]}}')
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as handle:
            assert streamed(handle) == "export.json:2: invalid JSON: Expecting value"

    REPEATS = pytest.mark.parametrize("text, member", [
        ('{"head": {"vars": ["topic", "entity"]},\n "results": {"bindings": []},\n'
         ' "head": {"vars": ["topic", "entity"]}}', "head"),
        ('{"head": {"vars": ["topic", "entity"]},\n "results": {"bindings": []},\n'
         ' "results": {"bindings": []}}', "results"),
        ('{"head": {"vars": ["topic", "entity"]},\n "results": {"bindings": [],\n'
         ' "bindings": []}}', "bindings"),
    ], ids=["head", "results", "bindings"])

    @REPEATS
    def test_repeated_member_is_a_located_error(self, text, member, read=streamed):
        assert read(text) == (f"export.json:3: member {member!r} is repeated "
                              f"(field: {member})")

    @REPEATS
    def test_repeated_member_is_a_located_error_through_a_handle(self, text, member):
        self.test_repeated_member_is_a_located_error(text, member, through_handle)

    def test_peak_memory_stays_near_the_text_size(self):
        text = json.dumps({"head": {"vars": ["topic", "entity", "value"]}, "results": {
            "bindings": [{"topic": uri(f"http://x/topic/t{i % 20}"),
                          "entity": uri(f"http://x/entity/t{i % 20}-p{i:04d}"),
                          "value": literal(("female", "male")[i % 2])}
                         for i in range(2000)]}}, separators=(",", ":"))
        tracemalloc.start()
        try:
            parse_sparql_results(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(text)


# ---------------------------------------------------------------------------
# Bindings the inline cell checks take, and syntax errors inside the array
# ---------------------------------------------------------------------------

def both_decoders(text, read=streamed, strict=False):
    """The extraction or error text, which both decoders must agree on."""
    outcome = read(text, strict)
    assert outcome == whole_document(text, strict)
    return outcome


def test_one_iri_typed_uri_in_one_binding_and_literal_in_another():
    extraction = both_decoders(json_export([
        (uri("http://x/poet"), uri("http://x/Q1"), literal("female")),
        (literal("http://x/poet"), uri("http://x/Q2"), literal("http://x/poet")),
        (uri("http://x/poet"), uri("http://x/Q3"), uri("http://x/poet")),
    ]))
    assert extraction.members.members == {"poet": ("Q1", "Q3"),
                                          "http://x/poet": ("Q2",)}
    assert label_rows(extraction) == (("Q1", "female"), ("Q2", "http://x/poet"), ("Q3", "poet"))


def test_distinct_iris_sharing_a_terminal_segment_are_one_topic():
    extraction = both_decoders(json_export(
        (uri(topic), uri(f"http://x/E{i}"), literal("male"))
        for i, topic in enumerate(("http://a/Q1", "http://b/Q1/", "http://c/x#Q1"))))
    assert extraction.members.members == {"Q1": ("E0", "E1", "E2")}


def test_cells_with_a_language_or_a_datatype():
    extraction = both_decoders(json_export([(
        {"type": "literal", "value": "poet", "xml:lang": "en"},
        {"type": "uri", "value": "http://x/Q1"},
        {"type": "literal", "value": "female",
         "datatype": "http://www.w3.org/2001/XMLSchema#string"},
    )]))
    assert extraction.members.members == {"poet": ("Q1",)}
    assert label_rows(extraction) == (("Q1", "female"),)


GOOD_BINDING = json.dumps({"topic": literal("poet"), "entity": uri("http://x/Q1")})


@pytest.mark.parametrize("head_first", [True, False], ids=["head-first", "results-first"])
@pytest.mark.parametrize("bindings", [
    f"[{GOOD_BINDING},]", f"[\n{GOOD_BINDING},\n ]", f"[{GOOD_BINDING} {GOOD_BINDING}]",
    f"[{GOOD_BINDING}", f"[{GOOD_BINDING},", f"[{GOOD_BINDING} x]", f"[{GOOD_BINDING}}}",
    f"[,{GOOD_BINDING}]", "[\n", f"[{GOOD_BINDING}\n,\n{GOOD_BINDING}\n,x]",
    f"[{GOOD_BINDING}[{GOOD_BINDING}]]",
], ids=["trailing-comma", "trailing-comma-lines", "missing-comma", "unclosed",
        "unclosed-after-comma", "junk-after-value", "brace-for-bracket", "leading-comma",
        "empty-unclosed", "junk-after-comma", "bracket-after-value"])
def test_syntax_error_in_bindings_is_worded_as_json_loads(bindings, head_first):
    members = ['"head": {"vars": ["topic", "entity"]}', f'"results": {{"bindings": {bindings}}}']
    text = "{" + ",\n".join(members if head_first else members[::-1]) + "}"
    with pytest.raises(json.JSONDecodeError) as err:
        json.loads(text)
    assert both_decoders(text) == (f"export.json:{err.value.lineno}: "
                                   f"invalid JSON: {err.value.msg}")


def test_binding_errors_name_the_binding_at_its_first_line(read=streamed):
    text = ('{"head": {"vars": ["topic", "entity"]},\n"results": {"bindings": [\n'
            f'{GOOD_BINDING},\n{GOOD_BINDING}, 7,\n{{\n"topic": 1}}]}}}}')
    assert both_decoders(text, read) == "export.json:4: binding 3: not an object"
    text = text.replace(" 7,", "")
    assert both_decoders(text, read) == ("export.json:5: binding 3: 'topic' must be an "
                                         "object with a string value (field: topic)")
    text = text.replace('"topic": 1', '"entity": {"type": "uri", "value": "http://x/Q2"}')
    assert both_decoders(text, read) == ("export.json:5: binding 3: row is missing the "
                                         "'topic' binding (field: topic)")
    text = text.replace('"entity": {"type": "uri", "value": "http://x/Q2"}',
                        '"topic": {"type": "literal", "value": "poet"}, '
                        '"entity": {"type": "literal", "value": "http://x/Q2"}')
    assert both_decoders(text, read, strict=True) == (
        "export.json:5: binding 3: entity binding 'http://x/Q2' is not an IRI (field: entity)")


def test_binding_errors_name_the_binding_at_its_first_line_through_a_handle():
    test_binding_errors_name_the_binding_at_its_first_line(through_handle)


@pytest.mark.parametrize("escaped", [True, False], ids=["escaped", "raw"])
@pytest.mark.parametrize("var", ["topic", "entity", "value"])
def test_a_lone_surrogate_is_a_located_binding_error(var, escaped, read=streamed):
    cells = {"topic": literal("poet"), "entity": uri("http://x/Q1"), "value": literal("male")}
    cells[var] = literal("x\udc00")
    binding = json.dumps(cells, ensure_ascii=escaped)
    text = export_of(f"{GOOD_BINDING},\n{binding}")
    assert both_decoders(text, read) == (f"export.json:4: binding 2: {var!r} holds a lone "
                                         f"surrogate (field: {var})")
    # A cell of the wrong type before it is the error named first.
    if var != "topic":
        cells["topic"] = 1
        assert both_decoders(export_of(json.dumps(cells)), read) == (
            "export.json:3: binding 1: 'topic' must be an object with a string value "
            "(field: topic)")


@pytest.mark.parametrize("escaped", [True, False], ids=["escaped", "raw"])
@pytest.mark.parametrize("var", ["topic", "entity", "value"])
def test_a_lone_surrogate_is_a_located_binding_error_through_a_handle(var, escaped):
    test_a_lone_surrogate_is_a_located_binding_error(var, escaped, through_handle)


def test_results_before_head_builds_only_its_first_binding_error():
    bindings = ",\n".join([GOOD_BINDING] + ['{"topic": 1}'] * 500 + [GOOD_BINDING])
    text = (f'{{"results": {{"bindings": [\n{bindings}]}},\n'
            f'"head": {{"vars": ["topic", "entity"]}}}}')
    binding_error = mock.Mock(wraps=ingest._binding_error)
    with mock.patch.object(ingest, "_binding_error", binding_error):
        assert streamed(text) == ("export.json:3: binding 2: 'topic' must be an object "
                                  "with a string value (field: topic)")
    assert binding_error.call_count == 1
    assert whole_document(text) == streamed(text)


HEAD = '"head": {"vars": ["topic", "entity"]}'
RESULTS = f'"results": {{"bindings": [{GOOD_BINDING}]}}'


@pytest.mark.parametrize("head_first", [True, False], ids=["head-first", "results-first"])
@pytest.mark.parametrize("template, results", [
    ("{{{0},\n{1},\n}}", RESULTS),
    ("{{{0},\n{1}}}", RESULTS.replace('"results":', '"results"\n')),
    ("{{{0}\n{1}}}", RESULTS),
    ("{{{0},\njunk: 1,\n{1}}}", RESULTS),
    ("{{\njunk,\n{0},\n{1}}}", RESULTS),
    ("{{{0},\n{1}\n", RESULTS),
    ("{{,{0},\n{1}}}", RESULTS),
    ("{{{0},\n{1}}}", f'"results": {{"bindings": [{GOOD_BINDING}],\n}}'),
    ("{{{0},\n{1}}}", f'"results": {{"bindings"\n[{GOOD_BINDING}]}}'),
    ("{{{0},\n{1}}}", f'"results": {{"distinct": false\n"bindings": [{GOOD_BINDING}]}}'),
    ("{{{0},\n{1}}}", f'"results": {{"bindings": [{GOOD_BINDING}],\nordered: true}}'),
    ("{{{0},\n{1}}}", f'"results": {{\n"bindings": [{GOOD_BINDING}]'),
    ("{{{0},\n{1}}}", f'"results": {{,"bindings": [{GOOD_BINDING}]}}'),
], ids=["trailing-comma", "missing-colon", "missing-comma", "junk-key", "junk-first-key",
        "unclosed", "leading-comma", "results-trailing-comma", "results-missing-colon",
        "results-missing-comma", "results-junk-key", "results-unclosed",
        "results-leading-comma"])
def test_syntax_error_in_an_object_is_worded_as_json_loads(template, results, head_first):
    text = template.format(*([HEAD, results] if head_first else [results, HEAD]))
    with pytest.raises(json.JSONDecodeError) as err:
        json.loads(text)
    assert both_decoders(text) == (f"export.json:{err.value.lineno}: "
                                   f"invalid JSON: {err.value.msg}")


EDGE_BINDING = {"topic": literal("poet"), "entity": uri("http://x/Q1")}


@pytest.mark.parametrize("head_first", [True, False], ids=["head-first", "results-first"])
@pytest.mark.parametrize("head, cells, expected", [
    (None, {}, "export.json: head must be an object whose vars are a list of strings "
               "(field: head)"),
    ({"vars": ["topic", "entity"]}, {"value": None},
     SparqlExtraction(MembershipTable({"poet": ("Q1",)}), (), ())),
    *(({"vars": ["topic", "entity"]}, {"value": value},
       "export.json:1: binding 1: 'value' must be an object with a string value "
       "(field: value)") for value in ([], "", {})),
    ({"vars": ["topic", "entity"]}, {"topic": None},
     "export.json:1: binding 1: row is missing the 'topic' binding (field: topic)"),
], ids=["head-null", "value-null", "value-empty-list", "value-empty-string",
        "value-empty-object", "topic-null"])
def test_null_and_empty_members_match_the_whole_document_decoder(head, cells, expected,
                                                                 head_first):
    members = [("head", head), ("results", {"bindings": [{**EDGE_BINDING, **cells}]})]
    assert both_decoders(json.dumps(dict(members if head_first else members[::-1]))) == expected


def test_export_text_read_from_a_handle_is_freed_with_its_decoder(tmp_path):
    """Read through a file handle, as the CLI reads it, the export's text is
    never held whole: when the member tables are built, no traced block is as
    large as the text, and the peak stays near its size."""
    text = json.dumps({"head": {"vars": ["topic", "entity", "value"]}, "results": {
        "bindings": [{"topic": uri(f"http://x/topic/t{i % 20}"),
                      "entity": uri(f"http://x/entity/t{i % 20}-p{i:04d}"),
                      "value": literal(("female", "male")[i % 2])}
                     for i in range(2000)]}}, separators=(",", ":"))
    (tmp_path / "export.json").write_text(text, encoding="utf-8")
    largest = []

    def tables(members):
        largest.append(max(trace.size for trace in tracemalloc.take_snapshot().traces))
        return MembershipTable(members)
    with open(tmp_path / "export.json", encoding="utf-8") as handle, \
            mock.patch.object(ingest, "MembershipTable", tables):
        tracemalloc.start()
        try:
            parse_sparql_results(handle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert largest[0] < len(text)
    assert peak < 3 * len(text)


def test_a_handle_is_read_through_a_window_and_values_are_shared(tmp_path):
    """Read through a file handle, the parse holds a window of the export, not
    its text: at its peak it allocates less than a quarter of the text's size
    beyond what the extraction it returns keeps. Each label value is kept once."""
    text = json.dumps({"head": {"vars": ["topic", "entity", "value"]}, "results": {
        "bindings": [{"topic": uri(f"http://x/topic/t{i % 20}"),
                      "entity": uri(f"http://x/entity/t{i % 20}-p{i:05d}"),
                      "value": literal(("female", "male")[i % 2])}
                     for i in range(20_000)]}}, separators=(",", ":"))
    (tmp_path / "export.json").write_text(text, encoding="utf-8")
    with open(tmp_path / "export.json", encoding="utf-8") as handle:
        tracemalloc.start()
        try:
            extraction = parse_sparql_results(handle)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak - kept < len(text) / 4
    assert len(extraction.label_entities) == len(extraction.label_values) == 20_000
    assert len({id(value) for value in extraction.label_values}) == 2


def test_an_extraction_keeps_no_object_per_row():
    """Beyond its entity strings, what an extraction keeps is under 40 bytes
    per binding: a slot in its topic's member tuple and one in each label
    tuple, with no pair or set entry made per row."""
    bindings = 20_000
    text = json.dumps({"head": {"vars": ["topic", "entity", "value"]}, "results": {
        "bindings": [{"topic": uri(f"http://x/topic/t{i % 20}"),
                      "entity": uri(f"http://x/entity/t{i % 20}-p{i:05d}"),
                      "value": literal(("female", "male")[i % 2])}
                     for i in range(bindings)]}}, separators=(",", ":"))
    parse_sparql_results(TWO_ROWS_JSON)  # first-call allocations are not the extraction's
    tracemalloc.start()
    try:
        extraction = parse_sparql_results(text)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    entities = {id(entity): entity for members in extraction.members.members.values()
                for entity in members}
    assert len(entities) == bindings
    assert (kept - sum(map(sys.getsizeof, entities.values()))) / bindings < 40


MEMBER_TOPICS = st.sampled_from(["t1", "t2", "t3"])
MEMBER_ENTITIES = st.sampled_from(["Q1", "Q2", "Q3", "Q4"])


@given(rows=st.lists(st.tuples(MEMBER_TOPICS, MEMBER_ENTITIES,
                               st.none() | st.sampled_from(["female", "male"])),
                     max_size=24))
def test_every_reader_keeps_members_once_in_first_seen_order(rows):
    """A SPARQL JSON export, a SPARQL TSV export and a members TSV of the same
    rows, duplicates included, give the same member tuples: each topic's
    distinct entities in the order of the rows that first name them."""
    exported = json_export((uri(f"http://x/{topic}"), uri(f"http://x/{entity}"),
                            value and literal(value)) for topic, entity, value in rows)
    tsv = "?topic\t?entity\t?value\n" + "".join(
        f"<http://x/{topic}>\t<http://x/{entity}>\t{value or ''}\n"
        for topic, entity, value in rows)
    members = "".join(f"{topic}\t{entity}\n" for topic, entity, _ in rows)
    tables = [parse_sparql_results(exported).members, parse_sparql_results(tsv).members,
              ingest.parse_members(members)]
    in_order: dict[str, list[str]] = {}
    as_sets: dict[str, set[str]] = {}
    for topic, entity, _ in rows:
        in_order.setdefault(topic, []).append(entity)
        as_sets.setdefault(topic, set()).add(entity)
    for table in tables:
        assert table.members == {t: tuple(dict.fromkeys(e)) for t, e in in_order.items()}
        assert {t: set(e) for t, e in table.members.items()} == as_sets
    assert tables[0] == tables[1] == tables[2]


@pytest.mark.parametrize("head_first", [True, False], ids=["head-first", "results-first"])
def test_a_file_with_a_byte_order_mark_reads_through_any_window(tmp_path, head_first):
    """A UTF-8 file that starts with a byte order mark, opened as the CLI opens
    it, reads as its text through every window of 1 to 16 characters, also
    when its results come first."""
    members = [("head", {"vars": ["topic", "entity", "value"]}),
               ("results", json.loads(TWO_ROWS_JSON)["results"])]
    text = json.dumps(dict(members if head_first else members[::-1]), indent=1)
    (tmp_path / "export.json").write_text(text, encoding="utf-8-sig")
    for window in range(1, 17):
        with open(tmp_path / "export.json", encoding="utf-8-sig") as handle, \
                mock.patch.object(_jsonwalk, "_WINDOW", window):
            assert parse_sparql_results(handle) == parse_sparql_results(TWO_ROWS_JSON)


class CountingHandle(io.StringIO):
    """A text handle that counts the characters read from it and its seeks."""

    def __init__(self, text):
        super().__init__(text)
        self.chars = self.seeks = 0

    def read(self, size=-1):
        piece = super().read(size)
        self.chars += len(piece)
        return piece

    def seek(self, *args):
        self.seeks += 1
        return super().seek(*args)


@pytest.mark.parametrize("head_first", [True, False], ids=["head-first", "results-first"])
def test_a_handle_is_read_once_whatever_the_member_order(head_first):
    """An export is read once, in either member order: beyond its text, only
    the format check's first 4,096 characters, and the one seek back after
    that check."""
    rows = [(uri(f"http://x/t{i % 7}"), uri(f"http://x/Q{i}"), literal("female"))
            for i in range(2_000)]
    members = list(json.loads(json_export(rows)).items())
    text = json.dumps(dict(members if head_first else members[::-1]), indent=1)
    handle = CountingHandle(text)
    assert parse_sparql_results(handle) == parse_sparql_results(json_export(rows))
    assert handle.chars <= len(text) + 4096
    assert handle.seeks == 1


# ---------------------------------------------------------------------------
# Plain bindings read by one pattern match, all others by json's scanner
# ---------------------------------------------------------------------------

def without_pattern(text, strict=False):
    """The outcome with every binding read by json's scanner."""
    with mock.patch.object(ingest, "_plain_binding", lambda variables, strict: None):
        return streamed(text, strict)


def scanned(text, strict=False):
    """The outcome, and how many bindings json's scanner read."""
    scan = mock.Mock(wraps=_jsonwalk._scan)
    with mock.patch.object(_jsonwalk, "_scan", scan):
        return streamed(text, strict), scan.call_count


@given(text=exports(st.one_of(plain_bindings(), plain_bindings(), bindings())),
       strict=st.booleans())
def test_the_pattern_reads_as_the_scanner_reads(text, strict):
    assert streamed(text, strict) == without_pattern(text, strict)


@given(text=exports(st.one_of(plain_bindings(), plain_bindings(), bindings())),
       edit=st.none() | st.tuples(st.floats(0, 1), st.sampled_from([*'{}[]:,"\\ \nx'])),
       strict=st.booleans(), batch=st.integers(1, 400), window=st.integers(1, 16))
def test_batches_ending_at_any_offset_read_as_the_whole_document_decoder(text, edit, strict,
                                                                         batch, window):
    """With a batch of 1 to 400 characters, so that a batch ends at every
    offset of a binding and of the separator after it, the outcome from a
    text and from a handle read through any window is the whole-document
    decoder's; with one character of the text changed, it is the outcome with
    every binding read by json's scanner, syntax errors included."""
    if edit is None:
        expected = whole_document(text, strict)
    else:
        at = 1 + round(edit[0] * (len(text) - 1))  # the text stays an object's
        text = text[:at] + edit[1] + text[at + 1:]
        expected = without_pattern(text, strict)
    with mock.patch.object(_jsonwalk, "_BATCH", batch):
        assert streamed(text, strict) == expected
        assert windowed(text, window, strict) == expected


def export_of(binding):
    return ('{"head": {"vars": ["topic", "entity", "value"]},\n"results": {"bindings": [\n'
            f'{binding}]}}}}')


COMPACT = ('{"topic":{"type":"uri","value":"http://x/poet"},'
           '"entity":{"type":"uri","value":"http://x/Q2"},'
           '"value":{"type":"literal","value":"female"}}')


@pytest.mark.parametrize("binding, plain", [
    (COMPACT, True),
    ('{\n  "topic" : {"type" : "uri", "value" : "http://x/poet"} ,\n'
     '  "entity" : { "type" : "uri" , "value" : "http://x/Q2" },\r\n'
     '\t"value" : {"type" : "literal", "value" : "female"}\n}', True),
    (COMPACT.replace("female", "fem\\u0061le"), False),
    (COMPACT.replace('"literal",', '"literal","xml:lang":"en",'), False),
    ('{"entity":{"type":"uri","value":"http://x/Q2"},'
     '"topic":{"type":"uri","value":"http://x/poet"},'
     '"value":{"type":"literal","value":"female"}}', False),
    (COMPACT.replace('"value":"female"', '"value":"male","value":"female"'), False),
], ids=["compact", "pretty", "escaped", "language", "reordered", "repeated-value"])
def test_plain_bindings_take_the_pattern_and_others_the_scanner(binding, plain):
    text = export_of(binding)
    outcome, scans = scanned(text)
    assert scans == (0 if plain else 1)
    assert outcome == without_pattern(text) == whole_document(text)
    assert outcome.members.members == {"poet": ("Q2",)}
    assert label_rows(outcome) == (("Q2", "female"),)


@pytest.mark.parametrize("binding, strict, message", [
    (COMPACT.replace("http://x/poet", ""), False, "row is missing the 'topic' binding"),
    (COMPACT.replace("http://x/Q2", ""), False, "row is missing the 'entity' binding"),
    (COMPACT.replace('"uri","value":"http://x/Q2"', '"literal","value":"http://x/Q2"'),
     True, "entity binding 'http://x/Q2' is not an IRI"),
], ids=["empty-topic", "empty-entity", "strict-literal-entity"])
def test_plain_bindings_with_an_error_go_to_the_scanner(binding, strict, message):
    text = export_of(binding)
    outcome, scans = scanned(text, strict)
    assert scans == 1
    assert outcome == without_pattern(text, strict) == whole_document(text, strict)
    assert outcome.startswith(f"export.json:3: binding 1: {message}")


def test_after_one_miss_the_scanner_reads_every_later_binding():
    """An export of another shape pays one failed batch, not one per binding:
    the batch that ends at the first binding the pattern does not take, one
    batch at that binding, which takes nothing, and then json's scanner reads
    that binding and every later one."""
    language = COMPACT.replace('"literal",', '"literal","xml:lang":"en",')
    last = COMPACT.replace("Q2", "Q3")
    text = export_of(",\n".join([COMPACT, language, last]))
    batch = mock.Mock(wraps=_jsonwalk._batch)
    scan = mock.Mock(wraps=_jsonwalk._scan)
    with mock.patch.object(_jsonwalk, "_batch", batch), \
            mock.patch.object(_jsonwalk, "_scan", scan):
        outcome = streamed(text)
    assert [pos for (_, _, pos), _ in batch.call_args_list] == [text.index(COMPACT),
                                                                text.index(language)]
    assert [pos for (_, pos), _ in scan.call_args_list] == [text.index(language),
                                                             text.index(last)]
    assert outcome == without_pattern(text) == whole_document(text)
    assert outcome.members.members == {"poet": ("Q2", "Q3")}


def test_a_failed_batch_is_one_scan_and_one_uncapped_match():
    pattern = mock.Mock(wraps=re.compile(r"\{\},?"))
    assert _jsonwalk._batch(pattern, "[]", 0) == ()
    assert (pattern.scanner.call_count, pattern.match.call_count) == (1, 1)


def test_entries_append_the_separator_to_an_entry_pattern():
    """A pattern with an alternation at its top still takes each entry whole,
    with the separator after it."""
    cursor = _jsonwalk._JsonCursor('[{"a":1}, {"b":2} ,{"a":3}]')
    pattern = r'\{"a":(\d)\}|\{"b":(\d)\}'
    batches = list(_jsonwalk._entries(cursor, pattern=pattern))
    assert [[m.groups() for m in batch] for batch in batches] == [
        [("1", None), (None, "2"), ("3", None)]]
    assert cursor.pos == len(cursor.text)


def test_the_pattern_reads_bindings_as_the_benchmark_writes_them():
    """Bindings shaped and written as ``perfbench/corpus.py`` writes them
    are read without json's scanner, so the fast path cannot be lost silently."""
    assert ingest._plain_binding(("topic", "entity", "value"), False) is not None
    text = json.dumps({"head": {"vars": ["topic", "entity", "value"]}, "results": {
        "bindings": [{"topic": uri("http://example.org/topic/t000001"),
                      "entity": uri(f"http://example.org/entity/t000001-p{i:04d}"),
                      "value": literal(("female", "male")[i % 2])} for i in range(1, 4)]}},
        separators=(",", ":"))
    outcome, scans = scanned(text)
    assert scans == 0
    assert outcome.members.members == {"t000001": ("t000001-p0001", "t000001-p0002",
                                                   "t000001-p0003")}


def test_a_binding_longer_than_a_batch_is_read_by_the_pattern():
    """A binding that does not fit in a batch is matched on its own, not
    counted as a miss that would send every later binding to the scanner."""
    text = export_of(",\n".join([COMPACT, COMPACT.replace("Q2", "Q3")]))
    with mock.patch.object(_jsonwalk, "_BATCH", 8):
        outcome, scans = scanned(text)
    assert scans == 0
    assert outcome == whole_document(text)
    assert outcome.members.members == {"poet": ("Q2", "Q3")}


@pytest.mark.parametrize("variables", [
    ("topic", "topic", "value"), ("topic", "entity", "topic"), ("topic", "entity", "entity"),
])
def test_equal_variable_names_are_a_value_error(variables):
    topic_var, entity_var, value_var = variables
    with pytest.raises(ValueError, match="variables must differ"):
        parse_sparql_results(TWO_ROWS_JSON, topic_var=topic_var, entity_var=entity_var,
                             value_var=value_var)


def test_member_lists_are_freed_as_they_are_copied():
    """With the export's text held by the caller, the parse allocates little
    more at its peak than the extraction it returns keeps: each topic's member
    list is freed as it is copied into its tuple, and the entity list of the
    label rows before their values are copied."""
    text = json.dumps({"head": {"vars": ["topic", "entity", "value"]}, "results": {
        "bindings": [{"topic": uri(f"http://x/topic/t{i % 40}"),
                      "entity": uri(f"http://x/entity/t{i % 40}-p{i:04d}"),
                      "value": literal(("female", "male")[i % 2])}
                     for i in range(8000)]}}, separators=(",", ":"))
    tracemalloc.start()
    try:
        extraction = parse_sparql_results(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tuples = sum(map(sys.getsizeof, (*extraction.members.members.values(),
                                     extraction.label_entities, extraction.label_values)))
    assert peak - kept < tuples / 2


# ---------------------------------------------------------------------------
# extraction_to_catalog's one pass against the two it replaced
# ---------------------------------------------------------------------------

GENDER = FeatureScheme("gender", ("female", "male"))
ENTITIES = st.sampled_from(["Q1", "Q2", "Q3", "Q4", "Q5"])
RAW_VALUES = st.sampled_from(["female", "male", "unknown", "Q6581072", "other", ""])


def two_pass_catalog(extraction, catalog, value_map=None):
    """``extraction_to_catalog`` as it was: a count of the drops, then the fold."""
    allowed, mapping = catalog.scheme.admissible, value_map or {}
    rows = label_rows(extraction)
    dropped = sum(mapping.get(raw, raw) not in allowed for _, raw in rows)
    merged = catalog.merged((entity, value, "kb") for entity, raw in rows
                            if (value := mapping.get(raw, raw)) in allowed)
    return merged, dropped


@given(rows=st.lists(st.tuples(ENTITIES, RAW_VALUES), max_size=12),
       base=st.lists(st.tuples(ENTITIES, st.sampled_from(["female", "male", "unknown"]),
                               st.sampled_from(["manual", "kb", "inferred"])), max_size=5),
       value_map=st.none() | st.dictionaries(RAW_VALUES, st.sampled_from(
           ["female", "male", "unknown", "other"])))
def test_extraction_to_catalog_equals_the_two_pass_fold(rows, base, value_map):
    extraction = SparqlExtraction(MembershipTable({}), tuple(entity for entity, _ in rows),
                                  tuple(raw for _, raw in rows))
    catalog = LabelCatalog.build(GENDER, base)
    outcomes = [fold(extraction, catalog, value_map=value_map)
                for fold in (extraction_to_catalog, two_pass_catalog)]
    assert [(merged, merged.conflicts, dropped) for merged, dropped in outcomes[:1]] == [
        (merged, merged.conflicts, dropped) for merged, dropped in outcomes[1:]]
