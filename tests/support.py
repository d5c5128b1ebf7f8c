"""Shared fixture builders and independent oracles used across test modules.

The oracles here deliberately re-derive results through different mechanics
than the library (literal candidate comparison, single-pass sums) so the
tests do not just re-run the code under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

from biaslens import (
    BiasRecord,
    FeatureScheme,
    LabelCatalog,
    RankedRun,
    TargetCounts,
)

HALF = Fraction(1, 2)

# Immutable default scheme, safe to share across property-test examples.
GENDER = FeatureScheme("gender", ("female", "male"))


def catalog_of(scheme: FeatureScheme, mapping: dict[str, str],
               provenance: str = "kb") -> LabelCatalog:
    return LabelCatalog.build(scheme, [(e, v, provenance) for e, v in mapping.items()])


def run_of(topic: str, *entities: str) -> RankedRun:
    return RankedRun(topic_id=topic, entries=tuple(entities))


def window_fixture(scheme: FeatureScheme, topic: str, value: str, hits: int,
                   length: int) -> tuple[RankedRun, LabelCatalog]:
    """A run of ``length`` entities whose first ``hits`` carry ``value``."""
    other = next(v for v in scheme.values if v != value)
    entities = tuple(f"{topic}:d{i}" for i in range(length))
    mapping = {e: (value if i < hits else other) for i, e in enumerate(entities)}
    return run_of(topic, *entities), catalog_of(scheme, mapping)


def grid_record(topic: str, value: str, m: int, model_count: int,
                ideal_count: int, *, n: int | None = None,
                raw: Fraction | None = None,
                remainder: Fraction = Fraction(0)) -> BiasRecord:
    """Assemble a consistent record directly from grid counts.

    ``remainder`` must be the fractional part of ``raw`` times ``m``; the
    record derives it from the raw ratio and this checks they agree.
    """
    raw = raw if raw is not None else Fraction(ideal_count, m)
    record = BiasRecord(
        topic_id=topic,
        feature_value=value,
        cutoff_requested=n if n is not None else m,
        cutoff_effective=m,
        model_count=model_count,
        ideal_count=ideal_count,
        target_numerator=raw.numerator,
        target_denominator=raw.denominator,
        unknown_in_window=0,
    )
    assert record.rounding_remainder == remainder, (raw, m, remainder)
    assert record.bias == Fraction(model_count - ideal_count, m)
    return record


def oracle_ideal(target: Fraction, model: Fraction, m: int) -> Fraction:
    """Literal three-case rounding rule, evaluating both candidates.

    Kept independent of the library implementation: candidates are built
    with math.floor/math.ceil and the half-way case compares the two
    normalized candidates against the model ratio by absolute distance.
    """
    scaled = target * m
    low = math.floor(scaled)
    high = math.ceil(scaled)
    remainder = scaled - low
    if remainder < HALF:
        chosen = low
    elif remainder > HALF:
        chosen = high
    else:
        candidates = sorted((low, high), key=lambda c: abs(Fraction(c, m) - model))
        chosen = candidates[0]
    return Fraction(chosen, m)


def oracle_aggregate(biases: list[Fraction], *, population_sd: bool = False):
    """Single-pass exact tally of mean, spread, absolute mean and extremes.

    Uses the sum-of-squares variance identity rather than the two-pass
    centered form, so it shares no code path with the library.
    """
    count = 0
    total = Fraction(0)
    total_sq = Fraction(0)
    total_abs = Fraction(0)
    smallest = None
    largest = None
    for b in biases:
        count += 1
        total += b
        total_sq += b * b
        total_abs += abs(b)
        smallest = b if smallest is None or b < smallest else smallest
        largest = b if largest is None or b > largest else largest
    mean = total / count
    mean_abs = total_abs / count
    if count == 1:
        stdev = 0.0
    else:
        divisor = count if population_sd else count - 1
        stdev = math.sqrt((total_sq - count * mean * mean) / divisor)
    return mean, stdev, mean_abs, smallest, largest


def feasible_bias_range(target: Fraction, m: int) -> tuple[int, int]:
    """Inclusive bias-count range realizable for (target, m), re-derived."""
    scaled = target * m
    low = math.floor(scaled)
    remainder = scaled - low
    if remainder < HALF:
        ideal = low
        return -ideal, m - ideal
    if remainder > HALF:
        ideal = low + 1
        return -ideal, m - ideal
    # Half-way: negative-or-zero biases sit on the floor candidate, positive
    # ones on the ceiling candidate; together they form one contiguous range.
    return -low, m - low - 1


def make_target(scheme: FeatureScheme, topic: str, value: str, in_count: int,
                total: int, unknown: int = 0) -> TargetCounts:
    other = next(v for v in scheme.values if v != value)
    return TargetCounts(topic_id=topic, feature_name=scheme.feature_name,
                        counts={value: in_count, other: total - in_count},
                        unknown_count=unknown)
