from __future__ import annotations

import json

import pytest

from biaslens import (
    ParseError,
    SchemeViolationError,
    extraction_to_catalog,
    parse_sparql_results,
)


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
    assert extraction.members.members == {"philosopher": frozenset({"Q123", "Q456"})}
    assert extraction.label_rows == (("Q123", "female"), ("Q456", "male"))


def test_tsv_matches_json():
    assert parse_sparql_results(TWO_ROWS_TSV) == parse_sparql_results(TWO_ROWS_JSON)


def test_hash_fragment_iris_shorten():
    export = json_export([(literal("poet"), uri("http://example.org/ont#E42"),
                           literal("female"))])
    extraction = parse_sparql_results(export)
    assert extraction.members.members == {"poet": frozenset({"E42"})}


def test_iri_valued_feature_shortens_too():
    export = json_export([
        (literal("poet"), uri("http://www.wikidata.org/entity/Q1"),
         uri("http://www.wikidata.org/entity/Q6581072")),
    ])
    extraction = parse_sparql_results(export)
    assert extraction.label_rows == (("Q1", "Q6581072"),)


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
    assert extraction.members.members["poet"] == frozenset({"Q1", "Q2"})
    assert extraction.label_rows == (("Q2", "male"),)


def test_strict_rejects_literal_entity():
    export = json_export([(literal("poet"), literal("plain-text"), literal("male"))])
    with pytest.raises(ParseError, match="IRI"):
        parse_sparql_results(export, strict=True)
    # Tolerated when strict is off.
    extraction = parse_sparql_results(export)
    assert extraction.members.members["poet"] == frozenset({"plain-text"})


def test_invalid_json_names_position():
    with pytest.raises(ParseError) as err:
        parse_sparql_results("{not json", path="export.json")
    assert "export.json" in str(err.value)


def test_tsv_wrong_field_count():
    text = "?topic\t?entity\t?value\n\"a\"\t<http://x/Q1>\n"
    with pytest.raises(ParseError) as err:
        parse_sparql_results(text, path="export.tsv")
    assert "export.tsv:2" in str(err.value)


def test_tsv_literal_suffixes_stripped():
    text = ('?topic\t?entity\t?value\n'
            '"poet"@en\t<http://x/Q1>\t"female"^^<http://www.w3.org/2001/'
            'XMLSchema#string>\n')
    extraction = parse_sparql_results(text)
    assert extraction.members.members == {"poet": frozenset({"Q1"})}
    assert extraction.label_rows == (("Q1", "female"),)


def test_custom_variable_names():
    export = json_export(
        [(literal("poet"), uri("http://x/Q1"), literal("male"))],
        variables=("occupation", "person", "genderValue"),
    )
    extraction = parse_sparql_results(export, topic_var="occupation",
                                      entity_var="person", value_var="genderValue")
    assert extraction.label_rows == (("Q1", "male"),)


def test_extraction_to_catalog_with_value_map(gender):
    export = json_export([
        (literal("poet"), uri("http://x/Q1"), uri("http://x/Q6581072")),
        (literal("poet"), uri("http://x/Q2"), uri("http://x/Q6581097")),
    ])
    extraction = parse_sparql_results(export)
    catalog = extraction_to_catalog(
        extraction, gender,
        value_map={"Q6581072": "female", "Q6581097": "male"})
    assert catalog.assignments == {"Q1": "female", "Q2": "male"}
    assert catalog.provenance == {"Q1": "kb", "Q2": "kb"}


def test_extraction_to_catalog_rejects_unmapped(gender):
    export = json_export([(literal("poet"), uri("http://x/Q1"),
                           literal("Q6581072"))])
    extraction = parse_sparql_results(export)
    with pytest.raises(SchemeViolationError, match="Q6581072"):
        extraction_to_catalog(extraction, gender)


def test_conflicting_export_rows_surface_in_catalog(gender):
    export = json_export([
        (literal("poet"), uri("http://x/Q1"), literal("female")),
        (literal("poet"), uri("http://x/Q1"), literal("male")),
    ])
    catalog = extraction_to_catalog(parse_sparql_results(export), gender)
    assert catalog.assignments == {"Q1": "female"}  # first row wins at equal rank
    assert len(catalog.conflicts) == 1
