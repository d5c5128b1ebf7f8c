"""Core representation-bias measurement over ranked results.

The measurement compares, for one categorical feature value, the share of
results carrying that value inside the top-n window of a ranked list (the
model ratio) against the share expected from a reference population (the
target ratio). Because a length-m window can only realize ratios on the
1/m grid, the raw target ratio is first rounded to that grid; when it sits
exactly halfway between two attainable counts, the count shown by the
system is accepted as correct. Bias is the exact difference between the
model ratio and that rounded target ratio, so it always lies on the 1/m
grid with values in [-1, 1].

Window quantities are carried as integer counts on that grid, and the raw
target ratio as an integer numerator and denominator; the public ratios are
exact rationals (fractions.Fraction) derived from those counts. Floating
point appears only when results are rendered.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import (
    EmptyAggregateError,
    EmptyPopulationError,
    EmptyRunError,
    InfeasibleSimulationError,
    SchemeViolationError,
    TopicMismatchError,
    UnlabeledEntityError,
)
from ._util import derive_seed, grid_count

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from .ingest import LabelCatalog

Ratio = Fraction


@dataclass(frozen=True)
class FeatureScheme:
    """A categorical feature with its admissible values.

    ``values`` is an ordered set of at least two distinct value identifiers.
    ``unknown_token`` marks entities whose value is not known; it is reserved
    and must not collide with any declared value. Binary schemes get exact
    symmetry guarantees; larger schemes are evaluated one-vs-rest per value.
    """

    feature_name: str
    values: tuple[str, ...]
    unknown_token: str = "unknown"

    def __post_init__(self) -> None:
        if not self.feature_name:
            raise SchemeViolationError("feature_name must be non-empty")
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if len(values) < 2:
            raise SchemeViolationError(
                f"scheme {self.feature_name!r} needs at least 2 values, got {len(values)}")
        if len(set(values)) != len(values):
            raise SchemeViolationError(f"scheme {self.feature_name!r} has duplicate values")
        if any(not v for v in values):
            raise SchemeViolationError(f"scheme {self.feature_name!r} has an empty value")
        if self.unknown_token in values:
            raise SchemeViolationError(
                f"unknown token {self.unknown_token!r} collides with a declared value")

    @property
    def admissible(self) -> frozenset[str]:
        """Every label an input may carry: the declared values and the unknown token."""
        return frozenset(self.values) | {self.unknown_token}

    def require_value(self, value: str) -> None:
        if value not in self.values:
            raise SchemeViolationError(
                f"value {value!r} is not declared for feature {self.feature_name!r}; "
                f"declared: {', '.join(self.values)}")


@dataclass(frozen=True)
class RankedRun:
    """One topic's ranked list of entity identifiers, ranks 1..m."""

    topic_id: str
    entries: tuple[str, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not self.topic_id:
            raise EmptyRunError("run has an empty topic_id")
        if not entries:
            raise EmptyRunError(f"run for topic {self.topic_id!r} has no entries")
        if len(set(entries)) != len(entries):
            dupes = sorted(e for e, n in Counter(entries).items() if n > 1)
            raise SchemeViolationError(
                f"run for topic {self.topic_id!r} lists duplicate entities: {', '.join(dupes)}")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class TargetCounts:
    """Per-topic feature-value counts over a reference population.

    ``counts`` covers labeled members only; ``unknown_count`` reports members
    without a usable label, which are excluded from the total (the target
    ratio is a ratio over the labeled population).
    """

    topic_id: str
    feature_name: str
    counts: dict[str, int]
    unknown_count: int = 0

    def __post_init__(self) -> None:
        for value, count in self.counts.items():
            if count < 0:
                raise EmptyPopulationError(
                    f"topic {self.topic_id!r}: negative count {count} for value {value!r}")
        if self.unknown_count < 0:
            raise EmptyPopulationError(f"topic {self.topic_id!r}: negative unknown count")
        if self.total < 1:
            raise EmptyPopulationError(
                f"topic {self.topic_id!r} has no labeled members for feature "
                f"{self.feature_name!r}")

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def count_of(self, value: str) -> int:
        return self.counts.get(value, 0)


@dataclass(frozen=True, init=False)
class BiasRecord:
    """Full per-topic measurement for one feature value at one cutoff.

    ``cutoff_effective`` m is min(requested cutoff, run length). The record
    stores integer counts on the 1/m grid (``model_count`` window hits,
    ``ideal_count`` the attainable target count) and the raw target ratio in
    lowest terms; its ratios are Fraction properties over those counts.
    The ``model_ratio`` and ``bias`` keywords let ``dataclasses.replace`` work
    in ratio terms: a given model ratio replaces the window hits, and a given
    bias must agree with the counts.
    """

    topic_id: str
    feature_value: str
    cutoff_requested: int
    cutoff_effective: int
    model_count: int
    ideal_count: int
    target_numerator: int
    target_denominator: int
    unknown_in_window: int

    def __init__(self, topic_id: str, feature_value: str, cutoff_requested: int,
                 cutoff_effective: int, model_count: int, ideal_count: int,
                 target_numerator: int, target_denominator: int,
                 unknown_in_window: int = 0, *, model_ratio: Ratio | None = None,
                 bias: Ratio | None = None) -> None:
        m = cutoff_effective
        if not 1 <= m <= cutoff_requested:
            raise ValueError(f"effective cutoff {m} outside [1, {cutoff_requested}]")
        if model_ratio is not None:
            model_count = grid_count(model_ratio, m)
        if not (0 <= model_count <= m and 0 <= ideal_count <= m
                and 0 <= unknown_in_window <= m):
            raise ValueError(f"window counts {model_count}, {ideal_count}, "
                             f"{unknown_in_window} outside [0, {m}]")
        if target_denominator < 1 or not 0 <= target_numerator <= target_denominator:
            raise ValueError(
                f"raw target ratio {target_numerator}/{target_denominator} outside [0, 1]")
        common = math.gcd(target_numerator, target_denominator)
        # Frozen: fill the instance dict directly, in field declaration order.
        vars(self).update(zip(self.__dataclass_fields__, (
            topic_id, feature_value, cutoff_requested, m, model_count, ideal_count,
            target_numerator // common, target_denominator // common, unknown_in_window)))
        if bias is not None and bias != self.bias:
            raise ValueError(f"bias {bias} does not match the record's counts")

    @property
    def bias_count(self) -> int:
        return self.model_count - self.ideal_count

    @property
    def model_ratio(self) -> Ratio:
        return Fraction(self.model_count, self.cutoff_effective)

    @property
    def target_ratio_at_cutoff(self) -> Ratio:
        return Fraction(self.ideal_count, self.cutoff_effective)

    @property
    def bias(self) -> Ratio:
        return Fraction(self.model_count - self.ideal_count, self.cutoff_effective)

    @property
    def target_ratio_raw(self) -> Ratio:
        return Fraction(self.target_numerator, self.target_denominator)

    @property
    def rounding_remainder(self) -> Ratio:
        """Fractional part of raw target ratio times m: it decides whether the
        attainable target rounds down or up."""
        return Fraction(self.target_numerator * self.cutoff_effective
                        % self.target_denominator, self.target_denominator)


@dataclass(frozen=True)
class BiasSummary:
    """Corpus-level aggregates of per-topic bias for one (source, value) pair."""

    feature_value: str
    target_source: str
    topic_count: int
    mean_bias: Ratio
    stdev_bias: float
    mean_abs_bias: Ratio
    min_bias: Ratio
    max_bias: Ratio
    single_sample: bool = False
    population_sd: bool = False

    def __post_init__(self) -> None:
        if self.topic_count < 1:
            raise EmptyAggregateError("summary requires at least one record")
        if self.mean_abs_bias < abs(self.mean_bias):
            raise ValueError("mean absolute bias cannot be below |mean bias|")
        if not self.min_bias <= self.mean_bias <= self.max_bias:
            raise ValueError("mean bias must lie within [min, max]")
        if self.stdev_bias < 0:
            raise ValueError("standard deviation cannot be negative")


def _labeled_total(counts: TargetCounts, scheme: FeatureScheme) -> int:
    for counted in counts.counts:
        if counted not in scheme.values:
            raise SchemeViolationError(
                f"topic {counts.topic_id!r}: counted value {counted!r} is not declared "
                f"for feature {scheme.feature_name!r}")
    return counts.total  # at least 1: TargetCounts rejects empty populations


def label_tally(entities: Iterable[str],
                labels: "LabelCatalog") -> tuple[dict[str, int], int]:
    """Entities per scheme value (in scheme order) and entities with no usable
    label, missing or the explicit unknown token, in one pass. A window and a
    reference population are both counted so."""
    counts = dict.fromkeys(labels.scheme.values, 0)
    assignments, unknown = labels.assignments, 0
    for entity in entities:
        label = assignments.get(entity)
        if label in counts:
            counts[label] += 1
        else:
            unknown += 1
    return counts, unknown


def attainable_count(count: int, total: int, m: int, shown: int) -> int:
    """Round the raw target count/total onto the 1/m grid, as a count.

    The fractional part of count/total * m decides: below one half the count
    rounds down, above one half it rounds up, and at exactly one half the
    candidate closer to the ``shown`` model count is taken, i.e. the count
    the system shows is accepted as correct. The two candidates differ by
    one, so that comparison never ties.
    """
    floor_count, remainder = divmod(count * m, total)
    twice = 2 * remainder
    if twice < total or (twice == total and shown <= floor_count):
        return floor_count
    return floor_count + 1


def ideal_target_ratio_at_n(target: Ratio, model: Ratio, m: int) -> tuple[Ratio, Ratio]:
    """Round the raw target ratio onto the attainable 1/m grid.

    Returns (rounded ratio, rounding remainder), where the remainder is the
    fractional part of target * m; see ``attainable_count`` for the rule.
    The model ratio must lie on the 1/m grid.
    """
    if m < 1:
        raise ValueError(f"window length must be >= 1, got {m}")
    target = Fraction(target)
    model = Fraction(model)
    if not 0 <= target <= 1:
        raise ValueError(f"target ratio {target} outside [0, 1]")
    if not 0 <= model <= 1:
        raise ValueError(f"model ratio {model} outside [0, 1]")
    shown = grid_count(model, m)
    count = attainable_count(target.numerator, target.denominator, m, shown)
    remainder = Fraction(target.numerator * m % target.denominator, target.denominator)
    return Fraction(count, m), remainder


def measure_topic(run: RankedRun, labels: "LabelCatalog", target: TargetCounts,
                  n: int, *, strict: bool = False) -> list[BiasRecord]:
    """Bias records of one topic for every scheme value, in scheme order,
    from one pass over the top-m window, m = min(n, run length).

    Positive bias means the window over-represents a value relative to the
    attainable target share; negative means under-representation. Run and
    target must describe the same topic, and the label catalog must carry the
    target's feature. In strict mode an unlabeled entity inside the window is
    an error.
    """
    if run.topic_id != target.topic_id:
        raise TopicMismatchError(
            f"run topic {run.topic_id!r} does not match target topic {target.topic_id!r}")
    if labels.feature_name != target.feature_name:
        raise SchemeViolationError(
            f"label catalog is for feature {labels.feature_name!r} but target counts "
            f"are for {target.feature_name!r}")
    if n < 1:
        raise ValueError(f"cutoff must be >= 1, got {n}")
    m = min(n, len(run.entries))
    window = run.entries[:m]
    hits, unknown = label_tally(window, labels)
    if strict and unknown:
        missing = [e for e in window if labels.label_of(e) is None]
        raise UnlabeledEntityError(
            f"topic {run.topic_id!r}: {unknown} unlabeled entities in the top-{m} window: "
            f"{', '.join(missing)}")
    total = _labeled_total(target, labels.scheme)
    records = []
    for value, shown in hits.items():
        count = target.count_of(value)
        records.append(BiasRecord(run.topic_id, value, n, m, shown,
                                  attainable_count(count, total, m, shown),
                                  count, total, unknown))
    return records


def bias_at_n(run: RankedRun, labels: "LabelCatalog", target: TargetCounts,
              value: str, n: int, *, strict: bool = False) -> BiasRecord:
    """Measure the representation bias of one topic for one feature value;
    see ``measure_topic``."""
    labels.scheme.require_value(value)
    records = measure_topic(run, labels, target, n, strict=strict)
    return records[labels.scheme.values.index(value)]


def aggregate(records: Sequence[BiasRecord], value: str, source_label: str,
              *, population_sd: bool = False) -> BiasSummary:
    """Aggregate per-topic biases into mean, spread and absolute-mean figures.

    Topics weigh equally regardless of window length. The standard deviation
    uses the sample divisor (N-1) by default since the audited topics are a
    sample of the query population; ``population_sd`` switches to N. With a
    single record the deviation is reported as 0 and flagged. Biases are
    summed as integers on the least common grid of the window lengths, and
    the variance is one exact rational, rounded to float once.
    """
    if not records:
        raise EmptyAggregateError(f"no records to aggregate for value {value!r}")
    off = sorted({r.feature_value for r in records} - {value})
    if off:
        raise ValueError(
            f"aggregate over value {value!r} received records for: {', '.join(off)}")
    grid = math.lcm(*{r.cutoff_effective for r in records})
    biases = [(r.model_count - r.ideal_count) * (grid // r.cutoff_effective)
              for r in records]
    count = len(biases)
    total = sum(biases)
    single = count == 1
    if single:
        stdev = 0.0
    else:
        divisor = count if population_sd else count - 1
        # sum((b / grid - mean)^2) times count * grid^2, with mean = total / (count * grid)
        spread = count * sum(b * b for b in biases) - total * total
        stdev = math.sqrt(spread / (count * grid * grid * divisor))
    return BiasSummary(
        feature_value=value,
        target_source=source_label,
        topic_count=count,
        mean_bias=Fraction(total, count * grid),
        stdev_bias=stdev,
        mean_abs_bias=Fraction(sum(map(abs, biases)), count * grid),
        min_bias=Fraction(min(biases), grid),
        max_bias=Fraction(max(biases), grid),
        single_sample=single,
        population_sd=population_sd,
    )


@dataclass(frozen=True)
class SimulatedTopic:
    """Synthetic (run, labels, target counts) triple with a planted bias."""

    run: RankedRun
    labels: "LabelCatalog"
    target: TargetCounts


def simulate_run(topic_id: str, target: Ratio, bias: Ratio, m: int,
                 scheme: FeatureScheme, value: str, *, seed: int = 0,
                 population: int | None = None) -> SimulatedTopic:
    """Build a deterministic synthetic topic whose measured bias is exact.

    ``target`` is realized exactly by the emitted target counts (optionally
    scaled to ``population`` members) and ``bias`` must lie on the 1/m grid.
    The returned labels are complete over the run, so measuring the triple
    at cutoff m (or any larger cutoff) returns ``bias`` exactly.
    """
    from .ingest import LabelCatalog  # deferred: ingest imports this module

    scheme.require_value(value)
    target = Fraction(target)
    bias = Fraction(bias)
    if m < 1:
        raise InfeasibleSimulationError(f"topic {topic_id!r}: window length {m} < 1")
    if not 0 <= target <= 1:
        raise InfeasibleSimulationError(
            f"topic {topic_id!r}: target ratio {target} outside [0, 1]")
    bias_scaled = bias * m
    if bias_scaled.denominator != 1:
        raise InfeasibleSimulationError(
            f"topic {topic_id!r}: bias {bias} is not on the 1/{m} grid")
    bias_count = bias_scaled.numerator
    # At an exact half the measured ideal follows the shown count: asking the
    # rule with the count a downward rounding would need keeps the bias exact.
    low = attainable_count(target.numerator, target.denominator, m, 0)
    model_count = attainable_count(target.numerator, target.denominator, m,
                                   low + bias_count) + bias_count
    if model_count < 0:
        raise InfeasibleSimulationError(
            f"topic {topic_id!r}: bias {bias} would need a negative count "
            f"({model_count}) of {value!r} in a window of {m}")
    if model_count > m:
        raise InfeasibleSimulationError(
            f"topic {topic_id!r}: bias {bias} would need {model_count} entities "
            f"labeled {value!r} in a window of only {m}")

    pop = target.denominator if population is None else population
    if pop < 1:
        raise InfeasibleSimulationError(f"topic {topic_id!r}: population {pop} < 1")
    in_group = target * pop
    if in_group.denominator != 1:
        raise InfeasibleSimulationError(
            f"topic {topic_id!r}: population {pop} cannot realize target ratio "
            f"{target} exactly")
    other = next(v for v in scheme.values if v != value)
    counts = {value: in_group.numerator, other: pop - in_group.numerator}

    entities = tuple(f"{topic_id}:e{i + 1:04d}" for i in range(m))
    rng = random.Random(derive_seed(seed, topic_id, value))
    hit_positions = set(rng.sample(range(m), model_count))
    assignments = [
        (entity, value if i in hit_positions else other, "kb")
        for i, entity in enumerate(entities)
    ]
    labels = LabelCatalog.build(scheme, assignments)
    return SimulatedTopic(
        run=RankedRun(topic_id=topic_id, entries=entities),
        labels=labels,
        target=TargetCounts(topic_id=topic_id, feature_name=scheme.feature_name,
                            counts=counts),
    )
