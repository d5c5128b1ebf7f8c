"""Command-line audit pipeline: evaluate, simulate, report.

`evaluate` joins ranked runs, a label catalog and one or more target
sources, measures per-topic bias for every declared feature value at the
configured cutoff, and writes a deterministic report. `simulate` builds
synthetic fixture files with planted biases that `evaluate` measures back
exactly. `report` re-derives tables from an existing report document
without re-evaluating.

Exit codes: 0 success, 1 input error, 2 strict-mode violation.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Iterator, Sequence, TextIO

from . import ingest
from .errors import (
    BiasLensError,
    EmptyPopulationError,
    InfeasibleSimulationError,
    ParseError,
    UnlabeledEntityError,
)
from .metrics import FeatureScheme, RankedRun, TargetCounts, measure_topic, simulate_run
from .report import (
    EvaluatedTopic,
    Report,
    ReportMeta,
    SkippedTopic,
    build_report,
    emit_report,
    parse_report,
    rebuild_report,
)
from ._util import atomic_write, lone_surrogate

# Fixed default so repeated audits are comparable without a flag.
DEFAULT_SEED = 20191201
SEED_ENV_VAR = "BIASLENS_SEED"
# Rows per ranked table when unset; `report` keeps the stored size instead.
DEFAULT_TABLE_SIZE = 11

SIMULATE_HEADER = ("topic_id", "target_ratio", "bias", "length", "population")
# Input limits on numbers that size an allocation: `simulate` builds `length`
# entities per plan row, and `report` writes `grid + 1` exemplar buckets per block.
# The plan total is twice that of the largest bench corpus (20,000 rows of 50).
MAX_PLAN_LENGTH = 100_000
MAX_PLAN_TOTAL = 2_000_000
MAX_EXEMPLAR_GRID = 1_000


@dataclass
class AuditConfig:
    """Resolved settings: command-line flags > config file > environment > defaults."""

    cutoff: int = 10
    feature: str | None = None
    values: tuple[str, ...] = ()
    unknown_token: str = "unknown"
    strict: bool = False
    seed: int = DEFAULT_SEED
    format: str = "json"
    out: Path = Path("out")
    table_size: int | None = None
    population_sd: bool = False
    runs: Path | None = None
    labels: Path | None = None
    targets: dict[str, Path] = field(default_factory=dict)
    members: dict[str, Path] = field(default_factory=dict)
    topic_var: str = "topic"
    entity_var: str = "entity"
    value_var: str = "value"

    def scheme(self) -> FeatureScheme:
        if not self.feature or not self.values:
            raise BiasLensError(
                "a feature and its values are required (--feature/--values or config)")
        return FeatureScheme(feature_name=self.feature, values=self.values,
                             unknown_token=self.unknown_token)


@contextmanager
def _open_input(path: Path) -> Iterator[TextIO]:
    """Open an input file as UTF-8 text; a leading byte order mark is dropped.

    Bytes that are not UTF-8, met anywhere while the file is read, raise a
    ParseError naming the file and the line of the first such byte.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        # The streamed error knows only its offset in one chunk; decoding the
        # whole file again finds the line.
        reason, line = exc.reason, None
        data = path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as whole:
            reason, line = whole.reason, data.count(b"\n", 0, whole.start) + 1
        raise ParseError(f"not UTF-8 text: {reason}", path=str(path), line=line) from None


def parse_config_file(path: Path) -> dict[str, str]:
    """Read the flat key=value config format; '#' starts a comment line. A key
    must be one of ``_CONFIG_KEYS`` or ``target.LABEL`` / ``members.LABEL``
    with a non-empty label and file."""
    settings: dict[str, str] = {}
    try:
        with _open_input(path) as handle:
            lines = list(handle)
    except OSError as exc:
        raise ParseError(f"cannot read config: {exc.strerror}", path=str(path)) from None
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError("expected key = value", path=str(path), line=line_no)
        key, _, value = (part.strip() for part in stripped.partition("="))
        prefix, dot, label = key.partition(".")
        if dot and prefix in ("target", "members"):
            label = label.strip()
            key = f"{prefix}.{label}"
            if not label or not value:
                raise ParseError(f"source key {key!r} needs a label and a file",
                                 path=str(path), line=line_no, field=key)
        elif key not in _CONFIG_KEYS:
            raise ParseError(f"unknown config key {key!r}", path=str(path), line=line_no,
                             field=key)
        if key in settings:
            raise ParseError(f"config key {key!r} is repeated", path=str(path),
                             line=line_no, field=key)
        settings[key] = value
    return settings


def _parse_source_flags(entries: Sequence[str] | None, flag: str) -> dict[str, Path]:
    sources: dict[str, Path] = {}
    for entry in entries or ():
        label, sep, file_name = entry.partition("=")
        label = label.strip()
        if not sep or not label or not file_name.strip():
            raise BiasLensError(f"{flag} expects LABEL=FILE, got {entry!r}")
        if label in sources:
            raise BiasLensError(f"{flag} label {label!r} is repeated")
        sources[label] = Path(file_name.strip())
    return sources


def _config_sources(settings: dict[str, str], prefix: str,
                    base: Path) -> dict[str, Path]:
    return {key[len(prefix) + 1:]: base / value for key, value in settings.items()
            if key.startswith(prefix + ".")}


_BOOLS = {**dict.fromkeys(("true", "yes", "1", "on"), True),
          **dict.fromkeys(("false", "no", "0", "off"), False)}


def _as_bool(text: str) -> bool:
    return _BOOLS[text.lower()]


def _split_values(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",")) if text else ()


# Each config-file key and how its text becomes the AuditConfig field of the
# same name, which is also the dest of the flag that overrides it. Path keys
# resolve against the config file's directory.
_CONFIG_KEYS = {
    "cutoff": int, "feature": str, "values": _split_values, "unknown_token": str,
    "strict": _as_bool, "seed": int, "format": str, "out": Path, "table_size": int,
    "population_sd": _as_bool, "runs": Path, "labels": Path,
    "topic_var": str, "entity_var": str, "value_var": str,
}


def resolve_config(args: argparse.Namespace) -> AuditConfig:
    """Merge flags, the optional config file, the seed env var, and defaults."""
    config = AuditConfig()
    settings: dict[str, str] = {}
    base = Path(".")
    if getattr(args, "config", None):
        config_path = Path(args.config)
        settings = parse_config_file(config_path)
        base = config_path.parent

    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            config.seed = int(env_seed)
        except ValueError:
            raise BiasLensError(
                f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from None

    for key, convert in _CONFIG_KEYS.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            setattr(config, key, flag_value)
        elif key in settings:
            text = settings[key]
            try:
                setattr(config, key, base / text if convert is Path else convert(text))
            except (KeyError, ValueError):
                raise BiasLensError(
                    f"config key {key!r} has invalid value {text!r}") from None
    if config.cutoff < 1:
        raise BiasLensError(f"cutoff must be >= 1, got {config.cutoff}")
    if config.format not in ("json", "csv"):
        raise BiasLensError(f"format must be json or csv, got {config.format!r}")
    if config.table_size is not None and config.table_size < 1:
        raise BiasLensError(f"table size must be >= 1, got {config.table_size}")
    for first, second in combinations(("topic_var", "entity_var", "value_var"), 2):
        if getattr(config, first) == getattr(config, second):
            raise BiasLensError(f"config keys {first!r} and {second!r} must differ, "
                                f"both are {getattr(config, first)!r}")

    flag_targets = _parse_source_flags(getattr(args, "target", None), "--target")
    flag_members = _parse_source_flags(getattr(args, "members", None), "--members")
    config.targets = flag_targets or _config_sources(settings, "target", base)
    config.members = flag_members or _config_sources(settings, "members", base)
    overlap = sorted(set(config.targets) & set(config.members))
    if overlap:
        raise BiasLensError(
            f"source labels used for both --target and --members: {', '.join(overlap)}")
    # A config file is strict UTF-8, but on POSIX argv bytes that are not UTF-8
    # decode to lone surrogates, which no report or digest can hold.
    for text in (config.feature or "", *config.values, config.unknown_token,
                 *config.targets, *config.members):
        if lone_surrogate(text):
            raise BiasLensError(f"argument {text!r} holds a lone surrogate")
    return config


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _load_sources(config: AuditConfig, scheme: FeatureScheme,
                  catalog: ingest.LabelCatalog
                  ) -> tuple[dict[str, dict[str, TargetCounts] | ingest.MembershipTable],
                             ingest.LabelCatalog, int]:
    """Load every target source: counts files as per-topic counts, members
    files as membership tables. A members file that is a SPARQL result export
    (JSON or TSV, as ``ingest._members_format`` tells) also folds its label
    rows into the catalog through ``ingest.extraction_to_catalog``; the rows
    it drops are counted, and the count is the last element returned."""
    sources: dict[str, dict[str, TargetCounts] | ingest.MembershipTable] = {}
    dropped = 0

    for label, path in sorted(config.targets.items()):
        with _open_input(path) as handle:
            counts = ingest.parse_target_counts(handle, scheme, path=str(path))
        sources[label] = {c.topic_id: c for c in counts}

    for label, path in sorted(config.members.items()):
        with _open_input(path) as handle:
            if ingest._members_format(handle) == "members":
                sources[label] = ingest.parse_members(handle, path=str(path))
                continue
            extraction = ingest.parse_sparql_results(
                handle, topic_var=config.topic_var, entity_var=config.entity_var,
                value_var=config.value_var, strict=config.strict, path=str(path))
        catalog, label_drops = ingest.extraction_to_catalog(extraction, catalog)
        dropped += label_drops
        sources[label] = extraction.members
    return sources, catalog, dropped


def _evaluate_corpus(runs: list[RankedRun], catalog: ingest.LabelCatalog,
                     sources: dict[str, dict[str, TargetCounts] | ingest.MembershipTable],
                     config: AuditConfig
                     ) -> tuple[list[EvaluatedTopic], list[SkippedTopic]]:
    """Measure or skip every (source, topic) pair, sources and topics in
    sorted order. Membership topics are tallied against the complete catalog
    here, and only those with a ranked run."""
    evaluated: list[EvaluatedTopic] = []
    skipped: list[SkippedTopic] = []
    runs_by_topic = {run.topic_id: run for run in runs}
    for source in sorted(sources):
        table = sources[source]
        membership = isinstance(table, ingest.MembershipTable)
        per_topic = table.members if membership else table
        for topic in sorted(runs_by_topic.keys() | per_topic.keys()):
            run = runs_by_topic.get(topic)
            if run is None:
                kind = "membership" if membership else "target"
                skipped.append(SkippedTopic(topic, source, "missing-run",
                                            f"{kind} topic has no ranked run"))
                continue
            if topic not in per_topic:
                skipped.append(SkippedTopic(topic, source, "missing-target",
                                            "no target counts for this topic"))
                continue
            target = per_topic[topic]
            if membership:
                try:
                    target = ingest.counts_for_topic(topic, target, catalog)
                except EmptyPopulationError as exc:
                    skipped.append(SkippedTopic(topic, source, "empty-population",
                                                str(exc)))
                    continue
            evaluated.extend(
                EvaluatedTopic(source, target.total, record)
                for record in measure_topic(run, catalog, target, config.cutoff,
                                            strict=config.strict))
    return evaluated, skipped


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    scheme = config.scheme()
    if config.runs is None or config.labels is None:
        raise BiasLensError("evaluate needs --runs and --labels (or config keys)")
    if not config.targets and not config.members:
        raise BiasLensError(
            "evaluate needs at least one target source (--target/--members LABEL=FILE)")

    with _open_input(config.runs) as handle:
        runs = ingest.parse_runs(handle, path=str(config.runs))
    if not runs:
        raise BiasLensError(f"{config.runs}: no runs found")
    if config.cutoff > (longest := max(map(len, runs))):
        raise BiasLensError(f"{config.runs}: cutoff {config.cutoff} exceeds the longest "
                            f"ranked run ({longest} entries)")
    with _open_input(config.labels) as handle:
        catalog = ingest.parse_labels(handle, scheme, path=str(config.labels))

    sources, catalog, dropped = _load_sources(config, scheme, catalog)
    evaluated, skipped = _evaluate_corpus(runs, catalog, sources, config)
    if not evaluated:
        raise BiasLensError("zero joinable topics: no (run, target) pair shares a topic")

    meta = ReportMeta(
        seed=config.seed, cutoff=config.cutoff, feature_name=scheme.feature_name,
        values=scheme.values, unknown_token=scheme.unknown_token,
        sources=tuple(sorted(sources)), strict=config.strict,
        table_size=config.table_size or DEFAULT_TABLE_SIZE,
        sd_divisor="population" if config.population_sd else "sample",
    )
    conflicts = len(catalog.conflicts)
    # Emission needs none of the parsed inputs; releasing them first lets the
    # report and its JSON or CSV text reuse their memory, which lowers the peak.
    del runs, catalog, sources
    report = build_report(meta, evaluated, skipped)
    written = emit_report(report, config.format, config.out,
                          keep=(config.runs, config.labels, *config.targets.values(),
                                *config.members.values()))
    _print_evaluate_summary(report, conflicts, dropped, written)
    return 0


def _print_evaluate_summary(report: Report, conflicts: int, dropped: int,
                            written: list[Path]) -> None:
    topics = sorted({e.record.topic_id for e in report.records})
    print(f"evaluated {len(topics)} topics at cutoff {report.meta.cutoff} "
          f"({len(report.records)} records, "
          f"{len(report.meta.sources)} target sources, "
          f"{len(report.meta.values)} values)")
    if conflicts:
        print(f"label conflicts resolved by provenance: {conflicts}")
    if dropped:
        print(f"dropped {dropped} SPARQL label rows with values outside the scheme")
    for block in report.blocks:
        s = block.summary
        print(f"  {block.source}/{block.feature_value}: topics={s.topic_count} "
              f"MB={float(s.mean_bias):.6g} SB={s.stdev_bias:.6g} "
              f"MAB={float(s.mean_abs_bias):.6g} "
              f"min={float(s.min_bias):.6g} max={float(s.max_bias):.6g}")
    if report.skipped:
        print(f"skipped {len(report.skipped)} topic-source pairs:")
        for skip in report.skipped[:10]:
            print(f"  {skip.source}/{skip.topic_id}: {skip.reason}")
        if len(report.skipped) > 10:
            print(f"  ... and {len(report.skipped) - 10} more (see report)")
    for path in written:
        print(f"wrote {path}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    scheme = config.scheme()
    value = scheme.values[0]
    spec_path = Path(args.plan)
    # Every row is read and checked before any row is simulated.
    with _open_input(spec_path) as handle:
        rows = list(ingest._rows(handle, str(spec_path), SIMULATE_HEADER, (4, 5)))

    plan = []
    failures = []
    first_lines = {}
    total = 0
    for line_no, (topic_id, target, bias, length, *rest) in rows:
        topic_id, population = topic_id.strip(), rest[0].strip() if rest else ""
        if not topic_id:
            failures.append(f"{spec_path}:{line_no}: empty topic_id")
            continue
        first = first_lines.setdefault(topic_id, line_no)
        if first != line_no:
            failures.append(f"{spec_path}:{line_no}: topic {topic_id!r} is repeated "
                            f"(first on line {first})")
            continue
        try:
            target = Fraction(target.strip())
            bias = Fraction(bias.strip())
            length = int(length.strip())
            population = int(population) if population else None
        except (ValueError, ZeroDivisionError) as exc:
            failures.append(f"{spec_path}:{line_no}: unparseable row: {exc}")
            continue
        if length > MAX_PLAN_LENGTH:
            failures.append(f"{spec_path}:{line_no}: length {length} exceeds the "
                            f"per-row limit of {MAX_PLAN_LENGTH}")
            continue
        total += max(length, 0)
        if total > MAX_PLAN_TOTAL >= total - length:
            failures.append(f"{spec_path}:{line_no}: total length {total} exceeds "
                            f"the plan limit of {MAX_PLAN_TOTAL}")
        plan.append((line_no, topic_id, target, bias, length, population))
    topics = []
    for line_no, topic_id, target, bias, length, population in () if failures else plan:
        try:
            topics.append(simulate_run(topic_id, target, bias, length, scheme, value,
                                       seed=config.seed, population=population))
        except InfeasibleSimulationError as exc:
            failures.append(f"{spec_path}:{line_no}: {exc}")
    if failures:
        for failure in failures:
            print(f"error: {failure}", file=sys.stderr)
        return 1
    if not topics:
        raise BiasLensError(f"{spec_path}: no simulation rows found")

    label_rows = []
    for topic in topics:  # serialize_labels sorts the entities
        tags = topic.labels.provenance.tags
        label_rows.extend((entity, value, tags.get(entity, ingest.DEFAULT_PROVENANCE))
                          for entity, value in topic.labels.assignments.items())
    catalog = ingest.LabelCatalog.build(scheme, label_rows)

    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    atomic_write({
        out / "runs.tsv": (ingest.serialize_runs(t.run for t in topics),),
        out / "labels.tsv": (ingest.serialize_labels(catalog),),
        out / "targets.tsv": (ingest.serialize_target_counts((t.target for t in topics),
                                                             scheme),),
    })
    print(f"simulated {len(topics)} topics for value {value!r} "
          f"(runs.tsv, labels.tsv, targets.tsv in {out})")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def cmd_report(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    if args.exemplar_grid is not None and not 1 <= args.exemplar_grid <= MAX_EXEMPLAR_GRID:
        raise BiasLensError(f"exemplar grid must be between 1 and {MAX_EXEMPLAR_GRID}, "
                            f"got {args.exemplar_grid}")
    report_path = Path(args.report)
    with _open_input(report_path) as handle:
        report = parse_report(handle, path=str(report_path))
    report = rebuild_report(report, table_size=config.table_size,
                            exemplar_grid=args.exemplar_grid)
    for path in emit_report(report, config.format, config.out, keep=(report_path,)):
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

# Every option of a subcommand; each parser gets only those its command reads.
_FLAGS = {
    "--config": dict(metavar="FILE", help="flat key=value config file (flags win)"),
    "--cutoff": dict(type=int, metavar="N",
                     help=f"evaluation window size (default {AuditConfig.cutoff})"),
    "--feature": dict(metavar="NAME", help="feature to audit, e.g. gender"),
    "--values": dict(type=_split_values, metavar="A,B[,...]",
                     help="comma-separated declared feature values"),
    "--unknown-token": dict(metavar="TOKEN", help=f"label marking an explicit unknown "
                                                  f"(default: {AuditConfig.unknown_token})"),
    "--strict": dict(action="store_true", default=None,
                     help="treat unlabeled entities in a window (exit 2) and "
                          "non-IRI SPARQL entities (exit 1) as errors"),
    "--seed": dict(type=int, metavar="N", help=f"jitter/simulation seed (default "
                   f"{AuditConfig.seed}; env {SEED_ENV_VAR})"),
    "--format": dict(choices=("json", "csv"),
                     help=f"report output format (default {AuditConfig.format})"),
    "--out": dict(type=Path, metavar="DIR",
                  help=f"output directory (default {AuditConfig.out})"),
    "--table-size": dict(type=int, metavar="K", help=f"rows per ranked bias table (default "
                         f"{DEFAULT_TABLE_SIZE}; report: the stored size)"),
    "--population-sd": dict(action="store_true", default=None,
                            help="use the population standard-deviation divisor N"),
}


def _add_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biaslens",
        description="Measure representation bias of ranked results for a "
                    "categorical feature.")
    commands = parser.add_subparsers(dest="command", required=True)

    evaluate = commands.add_parser(
        "evaluate", help="measure bias for runs against one or more target sources")
    _add_flags(evaluate, *_FLAGS)
    evaluate.add_argument("--runs", type=Path, metavar="FILE", help="ranked runs TSV")
    evaluate.add_argument("--labels", type=Path, metavar="FILE", help="entity label TSV")
    evaluate.add_argument("--target", action="append", metavar="LABEL=FILE",
                          help="pre-aggregated target counts TSV (repeatable)")
    evaluate.add_argument("--members", action="append", metavar="LABEL=FILE",
                          help="membership TSV, or a SPARQL JSON or TSV export, told "
                               "apart by content (repeatable)")
    evaluate.set_defaults(handler=cmd_evaluate)

    simulate = commands.add_parser(
        "simulate", help="write synthetic fixture files with planted biases")
    _add_flags(simulate, "--config", "--feature", "--values", "--unknown-token", "--seed",
               "--out")
    simulate.add_argument("plan", metavar="PLAN_TSV",
                          help="rows: topic_id, target_ratio, bias, length"
                               f"[, population]; length at most {MAX_PLAN_LENGTH:,} "
                               f"per row and {MAX_PLAN_TOTAL:,} in all")
    simulate.set_defaults(handler=cmd_simulate)

    report = commands.add_parser(
        "report", help="re-derive tables from an existing report.json")
    _add_flags(report, "--config", "--format", "--out", "--table-size")
    report.add_argument("report", metavar="REPORT_JSON", help="input report document")
    report.add_argument("--exemplar-grid", dest="exemplar_grid", type=int, metavar="G",
                        help=f"bucket count for the unbiased exemplar table, 1 to "
                             f"{MAX_EXEMPLAR_GRID:,} (default: the stored grid)")
    report.set_defaults(handler=cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; exit 2 is reserved for strict-mode
        # violations, so usage problems map to the input-error code.
        return 0 if not exc.code else 1
    try:
        return args.handler(args)
    except UnlabeledEntityError as exc:
        print(f"error: strict mode: {exc}", file=sys.stderr)
        return 2
    except BiasLensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
