"""The TSV readers as they were before each parser did its own stripping,
and the label fold as it was while the catalog kept a full provenance dict,
kept verbatim as the reference the rewritten code in ``biaslens.ingest``
must agree with, result for result and error message for error message."""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from biaslens.errors import ParseError
from biaslens.ingest import (
    DEFAULT_PROVENANCE,
    LABELS_HEADER,
    MEMBERS_HEADER,
    RUNS_HEADER,
    TARGETS_HEADER,
    LabelCatalog,
    LabelConflict,
    MembershipTable,
    _named,
    _priority,
    _source_lines,
)
from biaslens.metrics import FeatureScheme, RankedRun, TargetCounts


def _rows(source: str | IO[str], path: str, header: tuple[str, ...],
          widths: tuple[int, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, stripped fields) of each data line, skipping
    comments, blanks and the header. A data line whose field count is not
    one of ``widths`` is a ParseError."""
    first_data_seen = False
    for line_no, line in enumerate(_source_lines(source), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("\t")]
        if not first_data_seen:
            first_data_seen = True
            lowered = tuple(f.lower() for f in fields)
            if lowered == header[:len(lowered)] and len(lowered) >= 2:
                continue
        if len(fields) not in widths:
            counts = " or ".join(str(w) for w in widths)
            raise ParseError(f"expected {counts} tab-separated fields, got {len(fields)}",
                             path=path, line=line_no)
        yield line_no, fields


def parse_runs(source: str | IO[str], path: str | None = None) -> list[RankedRun]:
    """Parse ranked runs, validating 1-based contiguous ranks per topic."""
    path = _named(source, path, "<runs>")
    ordered: dict[str, list[str]] = {}
    seen: dict[str, set[str]] = {}
    for line_no, (topic_id, rank_text, entity_id) in _rows(source, path, RUNS_HEADER, (3,)):
        if not topic_id or not entity_id:
            raise ParseError("empty topic_id or entity_id", path=path, line=line_no,
                             field="topic_id" if not topic_id else "entity_id")
        try:
            rank = int(rank_text)
        except ValueError:
            raise ParseError(f"rank {rank_text!r} is not an integer", path=path,
                             line=line_no, field="rank") from None
        entries = ordered.setdefault(topic_id, [])
        expected = len(entries) + 1
        if rank != expected:
            raise ParseError(
                f"topic {topic_id!r}: expected rank {expected}, got {rank} "
                f"(ranks must be contiguous from 1)",
                path=path, line=line_no, field="rank")
        if entity_id in seen.setdefault(topic_id, set()):
            raise ParseError(f"topic {topic_id!r} lists entity {entity_id!r} twice",
                             path=path, line=line_no, field="entity_id")
        entries.append(entity_id)
        seen[topic_id].add(entity_id)
    return [RankedRun(topic_id=t, entries=tuple(ordered[t])) for t in sorted(ordered)]


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
    rows: list[tuple[str, str, str]] = []
    for line_no, fields in _rows(source, path, LABELS_HEADER, (3, 4)):
        entity_id, feature_name, value = fields[:3]
        prov = fields[3] if len(fields) == 4 and fields[3] else DEFAULT_PROVENANCE
        if not entity_id:
            raise ParseError("empty entity_id", path=path, line=line_no, field="entity_id")
        if feature_name != scheme.feature_name:
            continue
        if value not in allowed:
            raise ParseError(
                f"value {value!r} is not declared for feature {scheme.feature_name!r} "
                f"(declared: {', '.join(scheme.values)}; unknown: {scheme.unknown_token!r})",
                path=path, line=line_no, field="value")
        rows.append((entity_id, value, prov))
    return LabelCatalog.build(scheme, rows)


def parse_members(source: str | IO[str], path: str | None = None) -> MembershipTable:
    """Parse topic membership rows; duplicate pairs are deduplicated, and each
    topic's entities are kept in first-seen order, as ``MembershipTable``
    now holds them (the one change to this reader)."""
    path = _named(source, path, "<members>")
    members: dict[str, dict[str, None]] = {}
    for line_no, (topic_id, entity_id) in _rows(source, path, MEMBERS_HEADER, (2,)):
        if not topic_id or not entity_id:
            raise ParseError("empty topic_id or entity_id", path=path, line=line_no,
                             field="topic_id" if not topic_id else "entity_id")
        members.setdefault(topic_id, {})[entity_id] = None
    return MembershipTable({t: tuple(s) for t, s in members.items()})


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
    for line_no, fields in _rows(source, path, TARGETS_HEADER, (4, 5)):
        topic_id, feature_name, value, count_text = fields[:4]
        if not topic_id:
            raise ParseError("empty topic_id", path=path, line=line_no, field="topic_id")
        if feature_name != scheme.feature_name:
            continue
        if value not in allowed:
            raise ParseError(
                f"value {value!r} is not declared for feature {scheme.feature_name!r}",
                path=path, line=line_no, field="value")
        try:
            count = int(count_text)
        except ValueError:
            raise ParseError(f"count {count_text!r} is not an integer",
                             path=path, line=line_no, field="count") from None
        if count < 0:
            raise ParseError(f"negative count {count}", path=path, line=line_no,
                             field="count")
        if len(fields) == 5 and fields[4]:
            try:
                declared = int(fields[4])
            except ValueError:
                raise ParseError(f"total {fields[4]!r} is not an integer",
                                 path=path, line=line_no, field="total") from None
            held = declared_totals.get(topic_id)
            if held is not None and held[0] != declared:
                raise ParseError(
                    f"topic {topic_id!r} declares conflicting totals {held[0]} and {declared}",
                    path=path, line=line_no, field="total")
            if held is None:
                declared_totals[topic_id] = (declared, line_no)
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
        if topic_id in declared_totals:
            declared, decl_line = declared_totals[topic_id]
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


@dataclass(frozen=True)
class TwoDictCatalog:
    """The fold of ``LabelCatalog`` with ``provenance`` a second dict over
    the same keys as ``assignments``, one entry per entity."""

    scheme: FeatureScheme
    assignments: dict[str, str]
    provenance: dict[str, str]
    conflicts: tuple[LabelConflict, ...] = ()

    @classmethod
    def build(cls, scheme: FeatureScheme,
              rows: Iterable[tuple[str, str, str]]) -> "TwoDictCatalog":
        return cls._fold(scheme, rows, {}, {}, [])

    def merged(self, rows: Iterable[tuple[str, str, str]]) -> "TwoDictCatalog":
        return self._fold(self.scheme, rows, dict(self.assignments),
                          dict(self.provenance), list(self.conflicts))

    @classmethod
    def _fold(cls, scheme: FeatureScheme, rows: Iterable[tuple[str, str, str]],
              assignments: dict[str, str], provenance: dict[str, str],
              conflicts: list[LabelConflict]) -> "TwoDictCatalog":
        for entity, value, prov in rows:
            if entity in assignments:
                held_value, held_prov = assignments[entity], provenance[entity]
                if value == held_value:
                    if _priority(prov) > _priority(held_prov):
                        provenance[entity] = prov
                    continue
                if _priority(prov) > _priority(held_prov):
                    conflicts.append(LabelConflict(entity, value, prov,
                                                   held_value, held_prov))
                    assignments[entity] = value
                    provenance[entity] = prov
                else:
                    conflicts.append(LabelConflict(entity, held_value, held_prov,
                                                   value, prov))
            else:
                assignments[entity] = value
                provenance[entity] = prov
        return cls(scheme=scheme, assignments=assignments, provenance=provenance,
                   conflicts=tuple(conflicts))
