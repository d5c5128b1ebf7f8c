"""Parsing, validation and joining of audit inputs.

Four tab-separated formats plus SPARQL result exports feed the pipeline:

    runs.tsv     topic_id <TAB> rank <TAB> entity_id          (rank 1-based)
    labels.tsv   entity_id <TAB> feature_name <TAB> value [<TAB> provenance]
    members.tsv  topic_id <TAB> entity_id
    targets.tsv  topic_id <TAB> feature_name <TAB> value <TAB> count [<TAB> total]

All files are UTF-8, and a line ends at '\\n', '\\r\\n' or '\\r' only. Lines
starting with '#' are comments; one optional header line using the
canonical column names is tolerated. Fields may not contain tabs or
newlines (there is no quoting dialect), which keeps the parsers bit-exact.
Every parse failure names the file, the line and the offending field.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain, dropwhile, repeat
from typing import IO, Iterable, Iterator

from .errors import EmptyPopulationError, ParseError, SchemeViolationError
from ._jsonwalk import _JsonCursor, _entries, located
from .metrics import FeatureScheme, RankedRun, TargetCounts, label_tally
from ._util import lone_surrogate

# Higher provenance wins a conflicting assignment; unlisted tags rank lowest.
PROVENANCE_PRIORITY = {"manual": 3, "kb": 2, "inferred": 1}
DEFAULT_PROVENANCE = "kb"

RUNS_HEADER = ("topic_id", "rank", "entity_id")
LABELS_HEADER = ("entity_id", "feature_name", "value", "provenance")
MEMBERS_HEADER = ("topic_id", "entity_id")
TARGETS_HEADER = ("topic_id", "feature_name", "value", "count", "total")


@dataclass(frozen=True)
class LabelConflict:
    """Two sources disagreed about one entity; the kept side won on provenance."""

    entity_id: str
    kept_value: str
    kept_provenance: str
    dropped_value: str
    dropped_provenance: str


class _ProvenanceView(Mapping[str, str]):
    """Read-only provenance of each assigned entity: its tag in ``tags``,
    which holds only tags other than DEFAULT_PROVENANCE, else that default."""

    __slots__ = ("assignments", "tags")

    def __init__(self, assignments: dict[str, str], tags: dict[str, str]) -> None:
        self.assignments, self.tags = assignments, tags

    def __getitem__(self, entity: str) -> str:
        if entity not in self.assignments:
            raise KeyError(entity)
        return self.tags.get(entity, DEFAULT_PROVENANCE)

    def __iter__(self) -> Iterator[str]:
        return iter(self.assignments)

    def __len__(self) -> int:
        return len(self.assignments)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True)
class LabelCatalog:
    """Entity-to-value assignments for one feature, with provenance.

    Assignments may carry the scheme's unknown token to record an explicit
    unknown. ``label_of`` collapses explicit unknowns and missing entities
    to None, which is how the metrics treat both. ``provenance`` is given as
    any mapping over the assigned entities and held as a read-only view.
    """

    scheme: FeatureScheme
    assignments: dict[str, str]
    provenance: Mapping[str, str]
    conflicts: tuple[LabelConflict, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        allowed = self.scheme.admissible
        if not allowed.issuperset(self.assignments.values()):
            entity, value = next(i for i in self.assignments.items() if i[1] not in allowed)
            raise SchemeViolationError(
                f"entity {entity!r} labeled {value!r}, which is not declared for "
                f"feature {self.scheme.feature_name!r}")
        given = self.provenance
        if isinstance(given, _ProvenanceView) and given.assignments is self.assignments:
            return
        if given.keys() != self.assignments.keys():
            raise SchemeViolationError("provenance must cover exactly the assigned entities")
        tags = {e: t for e, t in given.items() if t != DEFAULT_PROVENANCE}
        object.__setattr__(self, "provenance", _ProvenanceView(self.assignments, tags))

    @property
    def feature_name(self) -> str:
        return self.scheme.feature_name

    def label_of(self, entity_id: str) -> str | None:
        value = self.assignments.get(entity_id)
        if value is None or value == self.scheme.unknown_token:
            return None
        return value

    @classmethod
    def build(cls, scheme: FeatureScheme,
              rows: Iterable[tuple[str, str, str]]) -> "LabelCatalog":
        """Fold (entity, value, provenance) rows into a catalog.

        At most one assignment survives per entity: a higher-priority
        provenance overrides a lower one, equal priorities keep the first
        assignment seen. Every disagreement is recorded.
        """
        return cls._fold(scheme, rows, {}, {}, [])

    def merged(self, rows: Iterable[tuple[str, str, str]]) -> "LabelCatalog":
        """New catalog with extra rows folded in under the same priority rules.
        Its conflicts are this catalog's, then those the rows add."""
        return self._fold(self.scheme, rows, dict(self.assignments),
                          dict(self.provenance.tags), list(self.conflicts))

    @classmethod
    def _fold(cls, scheme: FeatureScheme, rows: Iterable[tuple[str, str, str]],
              assignments: dict[str, str], tags: dict[str, str],
              conflicts: list[LabelConflict]) -> "LabelCatalog":
        # ``tags`` holds exactly the assigned entities whose tag is not the default.
        for entity, value, prov in rows:
            held_value = assignments.get(entity)
            if held_value is None:
                assignments[entity] = value
                if prov != DEFAULT_PROVENANCE:
                    tags[entity] = prov
                continue
            held_prov = tags.get(entity, DEFAULT_PROVENANCE)
            if _priority(prov) > _priority(held_prov):
                if value != held_value:
                    conflicts.append(LabelConflict(entity, value, prov,
                                                   held_value, held_prov))
                    assignments[entity] = value
                if prov == DEFAULT_PROVENANCE:
                    del tags[entity]
                else:
                    tags[entity] = prov
            elif value != held_value:
                conflicts.append(LabelConflict(entity, held_value, held_prov, value, prov))
        return cls(scheme=scheme, assignments=assignments,
                   provenance=_ProvenanceView(assignments, tags), conflicts=tuple(conflicts))


@dataclass(frozen=True)
class MembershipTable:
    """Reference-population membership: topic_id to a tuple of its distinct
    entities, in the order each was first seen. Equality is order-sensitive."""

    members: dict[str, tuple[str, ...]]


def _membership_table(members: dict[str, list[str]]) -> MembershipTable:
    """The table of one list of entities per topic, each list deduplicated in
    first-seen order and freed as its tuple is made."""
    return MembershipTable({t: tuple(dict.fromkeys(members.pop(t))) for t in list(members)})


def _priority(provenance: str) -> int:
    return PROVENANCE_PRIORITY.get(provenance, 0)


# A line and its end, '\n', '\r\n' or '\r' only, as a text file is read.
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def _source_lines(source: str | Iterable[str]) -> Iterable[str]:
    """The lines of ``source``, each with its end (so none is empty); callers
    strip. A string is split lazily, without a copy of the whole text."""
    return map(re.Match.group, _LINE.finditer(source)) if isinstance(source, str) else source


def _rows(source: str | Iterable[str], path: str, header: tuple[str, ...],
          widths: tuple[int, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields split at tabs) of each data line, skipping
    comments, blanks and the header; each parser strips the fields it reads.
    A data line whose field count is not one of ``widths`` is a ParseError."""
    lines = enumerate(_source_lines(source), start=1)
    for line_no, line in lines:  # only the first data line may be the header
        if not (line[0] == "#" or line.isspace()):
            lowered = tuple(f.strip().lower() for f in line.split("\t"))
            if len(lowered) < 2 or lowered != header[:len(lowered)]:
                lines = chain(((line_no, line),), lines)
            break
    for line_no, line in lines:
        if line[0] == "#" or line.isspace():
            continue
        fields = line.split("\t")
        if len(fields) not in widths:
            raise ParseError(f"expected {' or '.join(map(str, widths))} tab-separated "
                             f"fields, got {len(fields)}", path=path, line=line_no)
        yield line_no, fields


def _tsv_text(header: tuple[str, ...], rows: Iterable[tuple[str, ...]]) -> str:
    """TSV text of ``header`` and ``rows``. A field holding a tab or a line
    break is a ValueError naming its column."""
    lines = ["\t".join(header)]
    for row in rows:
        line = "\t".join(row)
        if line.count("\t") != len(row) - 1 or "\n" in line or "\r" in line:
            column, value = next((c, v) for c, v in zip(header, row)
                                 if "\t" in v or "\n" in v or "\r" in v)
            raise ValueError(f"{column} value {value!r} contains a tab or newline")
        lines.append(line)
    return "\n".join(lines) + "\n"


def _named(source: str | IO[str], path: str | None, fallback: str) -> str:
    return path if path is not None else getattr(source, "name", fallback)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def parse_runs(source: str | IO[str], path: str | None = None) -> list[RankedRun]:
    """Parse ranked runs, validating 1-based contiguous ranks per topic."""
    path = _named(source, path, "<runs>")
    ordered: defaultdict[str, dict[str, None]] = defaultdict(dict)  # in rank order
    for line_no, (topic_id, rank_text, entity_id) in _rows(source, path, RUNS_HEADER, (3,)):
        topic_id, rank_text, entity_id = topic_id.strip(), rank_text.strip(), entity_id.strip()
        if not topic_id or not entity_id:
            raise ParseError("empty topic_id or entity_id", path=path, line=line_no,
                             field="topic_id" if not topic_id else "entity_id")
        try:
            rank = int(rank_text)
        except ValueError:
            raise ParseError(f"rank {rank_text!r} is not an integer", path=path,
                             line=line_no, field="rank") from None
        entries = ordered[topic_id]
        expected = len(entries) + 1
        if rank != expected:
            if rank == 1:
                raise ParseError(f"topic {topic_id!r} is listed again: rank 1 comes after "
                                 f"its rank {len(entries)}", path=path, line=line_no,
                                 field="rank")
            raise ParseError(
                f"topic {topic_id!r}: expected rank {expected}, got {rank} "
                f"(ranks must be contiguous from 1)",
                path=path, line=line_no, field="rank")
        if entity_id in entries:
            raise ParseError(f"topic {topic_id!r} lists entity {entity_id!r} twice",
                             path=path, line=line_no, field="entity_id")
        entries[entity_id] = None
    return [RankedRun(topic_id=t, entries=tuple(ordered[t])) for t in sorted(ordered)]


def serialize_runs(runs: Iterable[RankedRun]) -> str:
    return _tsv_text(RUNS_HEADER, ((run.topic_id, str(rank), entity)
                                   for run in sorted(runs, key=lambda r: r.topic_id)
                                   for rank, entity in enumerate(run.entries, start=1)))


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

def parse_labels(source: str | IO[str], scheme: FeatureScheme,
                 path: str | None = None) -> LabelCatalog:
    """Parse a label catalog for ``scheme``'s feature.

    Rows for other features are ignored so one file can serve several audits.
    Conflicting assignments resolve by provenance priority
    (manual > kb > inferred > anything else); every override is recorded on
    the returned catalog.
    """
    path = _named(source, path, "<labels>")
    allowed = scheme.admissible
    # Each row's value and provenance is a fresh string cut from its line;
    # the catalog keeps one object per distinct text instead.
    shared = {text: text for text in (*allowed, *PROVENANCE_PRIORITY, DEFAULT_PROVENANCE)}

    def rows() -> Iterator[tuple[str, str, str]]:
        for line_no, fields in _rows(source, path, LABELS_HEADER, (3, 4)):
            entity_id, feature_name, value, prov = fields if len(fields) == 4 else (*fields, "")
            entity_id = entity_id.strip()
            if not entity_id:
                raise ParseError("empty entity_id", path=path, line=line_no, field="entity_id")
            if feature_name.strip() != scheme.feature_name:
                continue
            value = value.strip()
            if value not in allowed:
                raise ParseError(
                    f"value {value!r} is not declared for feature {scheme.feature_name!r} "
                    f"(declared: {', '.join(scheme.values)}; "
                    f"unknown: {scheme.unknown_token!r})",
                    path=path, line=line_no, field="value")
            prov = prov.strip() or DEFAULT_PROVENANCE
            yield entity_id, shared[value], shared.setdefault(prov, prov)
    return LabelCatalog.build(scheme, rows())


def serialize_labels(catalog: LabelCatalog) -> str:
    assignments, tags = catalog.assignments, catalog.provenance.tags
    return _tsv_text(LABELS_HEADER, ((entity, catalog.feature_name, assignments[entity],
                                      tags.get(entity, DEFAULT_PROVENANCE))
                                     for entity in sorted(assignments)))


# ---------------------------------------------------------------------------
# members and target counts
# ---------------------------------------------------------------------------

def parse_members(source: str | IO[str], path: str | None = None) -> MembershipTable:
    """Parse topic membership rows. Each topic's entities are kept once, in
    the order of the line that first names them."""
    path = _named(source, path, "<members>")
    members: defaultdict[str, list[str]] = defaultdict(list)
    for line_no, (topic_id, entity_id) in _rows(source, path, MEMBERS_HEADER, (2,)):
        topic_id, entity_id = topic_id.strip(), entity_id.strip()
        if not topic_id or not entity_id:
            raise ParseError("empty topic_id or entity_id", path=path, line=line_no,
                             field="topic_id" if not topic_id else "entity_id")
        members[topic_id].append(entity_id)
    return _membership_table(members)


def serialize_members(table: MembershipTable) -> str:
    """Topics in sorted order, each topic's entities in the table's order, so
    that ``parse_members`` reads the table back equal."""
    return _tsv_text(MEMBERS_HEADER, ((topic, entity) for topic in sorted(table.members)
                                      for entity in table.members[topic]))


def counts_for_topic(topic_id: str, entity_ids: Iterable[str],
                     labels: LabelCatalog) -> TargetCounts:
    """Tally one topic's members by feature value.

    Members without a usable label are tallied separately and excluded from
    the total: the target ratio is a ratio over the labeled population.
    Raises EmptyPopulationError when no member is labeled.
    """
    counts, unknown = label_tally(entity_ids, labels)
    if sum(counts.values()) == 0:
        raise EmptyPopulationError(
            f"topic {topic_id!r} has no labeled members for feature "
            f"{labels.feature_name!r} ({unknown} unknown)")
    return TargetCounts(topic_id=topic_id, feature_name=labels.feature_name,
                        counts={v: c for v, c in counts.items() if c > 0},
                        unknown_count=unknown)


def parse_target_counts(source: str | IO[str], scheme: FeatureScheme,
                        path: str | None = None) -> list[TargetCounts]:
    """Parse pre-aggregated target counts.

    Rows may carry an optional trailing total column; when present it is
    cross-checked against the recomputed sum of the topic's labeled counts.
    Rows whose value is the scheme's unknown token feed the separate unknown
    tally instead of the labeled total.
    """
    path = _named(source, path, "<targets>")
    allowed = scheme.admissible
    counts: dict[str, dict[str, int]] = {}
    unknowns: dict[str, int] = {}
    declared_totals: dict[str, tuple[int, int]] = {}  # topic -> (total, line)
    first_lines: dict[str, int] = {}
    for line_no, (topic_id, feature_name, value, count_text, *rest) in _rows(
            source, path, TARGETS_HEADER, (4, 5)):
        topic_id = topic_id.strip()
        if not topic_id:
            raise ParseError("empty topic_id", path=path, line=line_no, field="topic_id")
        if feature_name.strip() != scheme.feature_name:
            continue
        value = value.strip()
        if value not in allowed:
            raise ParseError(
                f"value {value!r} is not declared for feature {scheme.feature_name!r}",
                path=path, line=line_no, field="value")
        count_text = count_text.strip()
        try:
            count = int(count_text)
        except ValueError:
            raise ParseError(f"count {count_text!r} is not an integer",
                             path=path, line=line_no, field="count") from None
        if count < 0:
            raise ParseError(f"negative count {count}", path=path, line=line_no,
                             field="count")
        if rest and (total_text := rest[0].strip()):
            try:
                declared = int(total_text)
            except ValueError:
                raise ParseError(f"total {total_text!r} is not an integer",
                                 path=path, line=line_no, field="total") from None
            held, _ = declared_totals.setdefault(topic_id, (declared, line_no))
            if held != declared:
                raise ParseError(
                    f"topic {topic_id!r} declares conflicting totals {held} and {declared}",
                    path=path, line=line_no, field="total")
        first_lines.setdefault(topic_id, line_no)
        if value == scheme.unknown_token:
            if topic_id in unknowns:
                raise ParseError(f"topic {topic_id!r} repeats its unknown row",
                                 path=path, line=line_no, field="value")
            unknowns[topic_id] = count
            continue
        per_topic = counts.setdefault(topic_id, {})
        if value in per_topic:
            raise ParseError(f"topic {topic_id!r} repeats value {value!r}",
                             path=path, line=line_no, field="value")
        per_topic[value] = count

    result = []
    for topic_id in sorted(set(counts) | set(unknowns)):
        labeled = counts.get(topic_id, {})
        total = sum(labeled.values())
        declared, decl_line = declared_totals.get(topic_id, (total, None))
        if declared != total:
            raise ParseError(
                f"topic {topic_id!r}: declared total {declared} does not match "
                f"recomputed labeled total {total}",
                path=path, line=decl_line, field="total")
        if total < 1:
            raise ParseError(
                f"topic {topic_id!r} has no labeled counts (empty population)",
                path=path, line=first_lines[topic_id], field="count")
        result.append(TargetCounts(topic_id=topic_id, feature_name=scheme.feature_name,
                                   counts=labeled,
                                   unknown_count=unknowns.get(topic_id, 0)))
    return result


def serialize_target_counts(counts: Iterable[TargetCounts],
                            scheme: FeatureScheme) -> str:
    def rows() -> Iterator[tuple[str, str, str, str]]:
        for tc in sorted(counts, key=lambda c: c.topic_id):
            for value in sorted(tc.counts):
                yield tc.topic_id, tc.feature_name, value, str(tc.counts[value])
            if tc.unknown_count:
                yield tc.topic_id, tc.feature_name, scheme.unknown_token, str(tc.unknown_count)
    return _tsv_text(TARGETS_HEADER[:4], rows())


# ---------------------------------------------------------------------------
# SPARQL result exports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SparqlExtraction:
    """Membership plus raw label rows pulled from a SPARQL result export.

    Label row i, in file order, is entity ``label_entities[i]`` with raw
    value ``label_values[i]``: two parallel tuples of the strings the parse
    holds, with no object per row. ``label_rows`` builds the same rows as a
    tuple of (entity_id, raw value) pairs on each access."""

    members: MembershipTable
    label_entities: tuple[str, ...]
    label_values: tuple[str, ...]

    @property
    def label_rows(self) -> tuple[tuple[str, str], ...]:
        return tuple(zip(self.label_entities, self.label_values))


def _terminal_segment(iri: str) -> str:
    return iri.rstrip("/#").rpartition("#")[2].rpartition("/")[2] or iri


# The blank and '#' lines before a file's first text, and the whitespace that
# leads that text. A comment may be cut off by the end of the text read so far.
_PREAMBLE = re.compile(r"(?:[^\S\r\n]*(?:\r\n?|\n)|#[^\r\n]*(?:\r\n?|\n|\Z))*[^\S\r\n]*")


def _members_format(source: str | IO[str]) -> str:
    """What a members source holds, told by its first text outside blank and
    '#' lines: '{' opens a SPARQL JSON export ("json"), '?' a SPARQL TSV
    export's variable header ("tsv"), and anything else is a members TSV
    ("members"). A handle is read in bounded pieces, so that a one-line JSON
    export is not read whole, and sought back to where it was. Each piece is
    matched after the first character of the last line before it: the '#'
    of a cut-off comment, a blank's first space, or nothing, which is all
    the match needs of that line. So each character is scanned about once."""
    if isinstance(source, str):
        text = source
    else:
        start, text = source.tell(), ""
        while _PREAMBLE.match(text).end() == len(text) and (piece := source.read(4096)):
            line = max(text.rfind("\n"), text.rfind("\r")) + 1
            text = text[line:line + 1] + piece
        source.seek(start)
    first = _PREAMBLE.match(text).end()
    return {"{": "json", "?": "tsv"}.get(text[first:first + 1], "members")


def parse_sparql_results(source: str | IO[str], *, topic_var: str = "topic",
                         entity_var: str = "entity", value_var: str = "value",
                         strict: bool = False, path: str | None = None) -> SparqlExtraction:
    """Parse a W3C SPARQL result export (JSON or TSV) into audit fragments.

    A source that ``_members_format`` does not tell as JSON is read as TSV;
    a handle must be seekable, since the format is read before the rows.
    A handle is read in bounded pieces, so memory follows the rows kept, not
    the size of the file, and bytes that are not UTF-8 raise where the read
    meets them. The three variables name the bindings acting as topic, entity
    and feature value. IRI-typed bindings are shortened to their terminal
    segment, so Wikidata-style exports key by Q-identifier.
    Each row adds its entity to its topic's members, kept once per topic in
    first-seen order as ``parse_members`` keeps them. A row with a value
    binding also adds a label row: its entity and value are appended to the
    extraction's two parallel tuples, with no object made per row, and each
    value string is kept once, however many rows carry it. In strict mode a
    non-IRI entity binding is an error. Each decoder yields checked (topic,
    entity, value) rows and raises its own errors: one in a TSV row names its
    line, one in a JSON binding the binding's 1-based index and the line where
    it starts. Two variables of the same name are a ValueError.
    """
    if len({topic_var, entity_var, value_var}) < 3:
        raise ValueError(f"variables must differ: {topic_var!r}, {entity_var!r}, {value_var!r}")
    path = _named(source, path, "<sparql>")
    decode = _sparql_json_rows if _members_format(source) == "json" else _sparql_tsv_rows
    members: defaultdict[str, list[str]] = defaultdict(list)
    entities: list[str] = []
    labels: list[str] = []
    values: dict[str, str] = {}  # each value string to the one kept
    for topic, entity, value in decode(source, topic_var, entity_var, value_var, strict, path):
        members[topic].append(entity)
        if value:
            entities.append(entity)
            labels.append(values.setdefault(value, value))
    table = _membership_table(members)
    label_entities = tuple(entities)
    entities.clear()  # freed before the values are copied
    return SparqlExtraction(members=table, label_entities=label_entities,
                            label_values=tuple(labels))


def _sparql_json_rows(source: str | IO[str], topic_var: str, entity_var: str,
                      value_var: str, strict: bool,
                      path: str) -> Iterator[tuple[str, str, str | None]]:
    """Stream the rows of a W3C SPARQL JSON results object, read through a
    ``_JsonCursor``'s window in one pass.

    ``head`` and any other top-level member are decoded whole and ``results``
    is walked by ``_results_rows``. Members may come in any order: the first
    error of a ``results`` read before ``head`` is held, and raised once the
    whole document has been read and ``head`` checked. So in a document that
    parses as JSON, errors come in the order of a whole-document walk:
    ``head`` and its variables, ``results``, then each binding in turn. A
    syntax error is raised where the walk meets it, worded by json, at its
    line (``located``). A repeated ``head`` or ``results`` member is an
    error, located at its key.
    """
    cursor = _JsonCursor(source)
    variables = (topic_var, entity_var, value_var)
    head: object = {}  # an absent head declares no variables
    checked = False  # head was read and checked before any results
    held: list[ParseError] | None = None  # the first error of results read before head
    with located(cursor, path):
        if not cursor.at("{"):
            raise json.JSONDecodeError("Expecting value", cursor.text, cursor.pos)
        for key in cursor.members(("head", "results"), path):
            if key == "results":
                held = None if checked else []
                yield from _results_rows(cursor, variables, strict, path, held)
            elif key == "head":
                head = cursor.value()
                if held is None:
                    _check_head(head, topic_var, entity_var, path)
                    checked = True
            else:
                cursor.value()
    if not checked:
        _check_head(head, topic_var, entity_var, path)
    if held:
        raise held[0]


def _results_rows(cursor: _JsonCursor, variables: tuple[str, str, str], strict: bool,
                  path: str, held: list[ParseError] | None
                  ) -> Iterator[tuple[str, str, str | None]]:
    """Walk the ``results`` value at the cursor member by member, and its
    ``bindings`` through ``_entries``, which reads each run of bindings that
    ``_plain_binding``'s pattern takes as one batch of matches, whose rows
    are made in one loop, and else each binding by one call of json's C
    scanner, which reads every binding after the first miss. Yield each
    binding's row until the first error, which is raised, or with ``held`` a
    list, appended to it, and the rest read for syntax only. The pattern takes
    no binding with an error. The scanner's inline checks take a binding
    whose topic and entity are objects with non-empty string values, whose
    value is absent or an object with a string value, whose strings hold no
    lone surrogate and (strict) whose entity is an IRI. Each topic IRI is
    shortened once; a repeated ``bindings`` member is an error."""
    topic_var, entity_var, value_var = variables
    iris: dict[str, str] = {}  # each topic IRI to its terminal segment
    fast = _plain_binding(variables, strict)
    for member in cursor.members(("bindings",), path) if cursor.at("{") else [None]:
        if member not in ("bindings", None):
            cursor.value()
            continue
        if member is None or not cursor.at("["):
            cursor.value()
            if not held:
                _raise_or_hold(ParseError("results must be an object whose bindings are "
                                          "a list", path=path, field="results"), held)
            continue
        index = 0  # of the last binding read
        for binding in _entries(cursor, pattern=fast):
            if held:
                continue  # read for syntax only
            if type(binding) is tuple:  # a batch of matches
                index += len(binding)
                cells = map(re.Match.groups, binding)
            elif (type(binding) is dict
                    and type(topic_cell := binding.get(topic_var)) is dict
                    and type(topic := topic_cell.get("value")) is str and topic
                    and type(entity_cell := binding.get(entity_var)) is dict
                    and type(entity := entity_cell.get("value")) is str and entity
                    and ((value_cell := binding.get(value_var)) is None
                         or type(value_cell) is dict
                         and type(value := value_cell.get("value")) is str
                         and not lone_surrogate(value))
                    and not lone_surrogate(topic) and not lone_surrogate(entity)
                    and (not strict or entity_cell.get("type") == "uri")):
                index += 1
                cells = ((topic_cell.get("type"), topic, entity_cell.get("type"), entity,
                          value_cell and value_cell.get("type"),
                          value_cell and value),)  # None when unbound
            else:
                index += 1
                _raise_or_hold(_binding_error(binding, variables, path,
                                              cursor.line(cursor.pos), index), held)
                continue
            for topic_type, topic, entity_type, entity, value_type, value in cells:
                if topic_type == "uri":
                    topic = iris.get(topic) or iris.setdefault(topic, _terminal_segment(topic))
                if entity_type == "uri":
                    entity = _terminal_segment(entity)
                if value_type == "uri":
                    value = _terminal_segment(value)
                yield topic, entity, value


def _raise_or_hold(error: ParseError, held: list[ParseError] | None) -> None:
    """Raise ``error``, or with ``held`` a list append it there."""
    if held is None:
        raise error
    held.append(error)


def _plain_binding(variables: tuple[str, str, str], strict: bool) -> str | None:
    """The text of a pattern for a binding of exactly the topic, entity and
    optional value cells, in that order, each exactly ``{"type": T, "value":
    V}`` of plain strings, with a non-empty topic and entity and (strict) a
    ``uri`` entity; its groups are the cells' types and values, and
    ``_entries`` compiles it and scans a run of such bindings with it. None
    for names that are not plain."""
    plain = r'[^"\\\x00-\x1f\ud800-\udfff]'  # held as written in a JSON string; no surrogate
    if not re.fullmatch(f"{plain}*", "".join(variables)):
        return None
    cell = r'"{}" : \{{ "type" : "({})" , "value" : "({})" \}}'  # each ' ' is JSON space
    template = r"\{{ " + cell + " , " + cell + "(?: , " + cell + r")?+ \}}"
    chars, some = plain + "*+", plain + "++"
    topic, entity, value = map(re.escape, variables)
    return template.replace(" ", r"[ \t\n\r]*+").format(
        topic, chars, some, entity, "uri" if strict else chars, some, value, chars, chars)


def _binding_error(binding: object, variables: tuple[str, str, str], path: str,
                   line: int, index: int) -> ParseError:
    """The first error of binding ``index``, which starts on ``line`` and
    which the inline checks did not take: not an object, then a cell that is
    not an object with a string value or whose value holds a lone surrogate,
    in topic, entity and value order, then a missing topic or entity, then
    (strict) a non-IRI entity."""
    def error(message: str, field: str | None = None) -> ParseError:
        return ParseError(f"binding {index}: {message}", path=path, line=line, field=field)
    if type(binding) is not dict:
        return error("not an object")
    for var in variables:
        cell = binding.get(var)
        if cell is not None and (type(cell) is not dict or type(cell.get("value")) is not str):
            return error(f"{var!r} must be an object with a string value", var)
        if cell is not None and lone_surrogate(cell["value"]):
            return error(f"{var!r} holds a lone surrogate", var)
    for var in variables[:2]:
        if binding.get(var) is None or not binding[var]["value"]:
            return error(f"row is missing the {var!r} binding", var)
    return error(f"entity binding {binding[variables[1]]['value']!r} is not an IRI",
                 variables[1])


def _check_head(head: object, topic_var: str, entity_var: str, path: str) -> None:
    declared = head.get("vars", []) if type(head) is dict else None
    if type(declared) is not list or not all(type(var) is str for var in declared):
        raise ParseError("head must be an object whose vars are a list of strings",
                         path=path, field="head")
    for var in (topic_var, entity_var):
        if var not in declared:
            raise ParseError(f"missing binding column {var!r} (declared: "
                             f"{', '.join(declared) or 'none'})", path=path, field=var)


def _sparql_tsv_rows(source: str | IO[str], topic_var: str, entity_var: str,
                     value_var: str, strict: bool, path: str) -> Iterator[tuple]:
    lines = _source_lines(source)
    header_no, header = next(dropwhile(lambda item: item[1][0] == "#" or item[1].isspace(),
                                       enumerate(lines, start=1)), (1, None))
    if header is None:
        raise ParseError("no header line with variable names", path=path, line=1)
    names = [c.strip().lstrip("?") for c in header.split("\t")]
    for var in (topic_var, entity_var):
        if var not in names:
            raise ParseError(f"missing binding column {var!r} (header: "
                             f"{', '.join(names)})", path=path, line=header_no, field=var)
    topic_col, entity_col = names.index(topic_var), names.index(entity_var)
    # The value column may be absent; rows then carry no labels.
    value_col = names.index(value_var) if value_var in names else None
    # The header and the lines before it stand in as blanks, which _rows skips,
    # so that its line numbers are those of the file.
    for line_no, fields in _rows(chain(repeat("\n", header_no), lines), path, (),
                                 (len(names),)):
        raw_entity = fields[entity_col].strip()
        topic, entity = _tsv_term(fields[topic_col]), _tsv_term(raw_entity)
        if not topic or not entity:
            missing = topic_var if not topic else entity_var
            raise ParseError(f"row is missing the {missing!r} binding", path=path,
                             line=line_no, field=missing)
        if strict and not raw_entity.startswith("<"):
            raise ParseError(f"entity binding {entity!r} is not an IRI", path=path,
                             line=line_no, field=entity_var)
        yield topic, entity, None if value_col is None else _tsv_term(fields[value_col])


def _tsv_term(raw: str) -> str:
    """Decode one SPARQL TSV term: <iri>, "literal"(@lang|^^type) or plain."""
    term = raw.strip()
    if term.startswith("<") and term.endswith(">"):
        return _terminal_segment(term[1:-1])
    if term.startswith('"'):
        end = term.rfind('"')
        if end > 0:
            body = term[1:end]
            return body.replace('\\"', '"').replace("\\\\", "\\")
    if term.startswith(("http://", "https://", "urn:")):
        return _terminal_segment(term)
    return term


def extraction_to_catalog(extraction: SparqlExtraction, catalog: LabelCatalog, *,
                          value_map: dict[str, str] | None = None
                          ) -> tuple[LabelCatalog, int]:
    """Fold an export's label rows, ``zip(label_entities, label_values)`` in
    file order, into ``catalog`` at ``kb`` provenance.

    ``value_map`` translates raw export values (for example Q-identifiers)
    into declared values or the unknown token; unmapped raw values are taken
    as they are. A row whose value is then neither is dropped. Returns the
    merged catalog and the number of rows dropped.
    """
    allowed, mapping = catalog.scheme.admissible, value_map or {}
    dropped = 0
    def rows() -> Iterator[tuple[str, str, str]]:
        nonlocal dropped
        for entity, raw in zip(extraction.label_entities, extraction.label_values):
            if (value := mapping.get(raw, raw)) in allowed:
                yield entity, value, DEFAULT_PROVENANCE
            else:
                dropped += 1
    merged = catalog.merged(rows())  # counts the drops as it folds
    return merged, dropped
