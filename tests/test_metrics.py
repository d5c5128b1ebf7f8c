from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import support
from biaslens import (
    BiasRecord,
    BiasSummary,
    EmptyAggregateError,
    EmptyPopulationError,
    EmptyRunError,
    FeatureScheme,
    ParseError,
    RankedRun,
    SchemeViolationError,
    TargetCounts,
    TopicMismatchError,
    UnlabeledEntityError,
    aggregate,
    attainable_count,
    bias_at_n,
    build_report,
    ideal_target_ratio_at_n,
    measure_topic,
    parse_report,
    report_to_json,
)
from biaslens.report import EvaluatedTopic
from test_report import make_meta

F = Fraction
HALF = F(1, 2)


class TestFeatureScheme:
    def test_rejects_single_value(self):
        with pytest.raises(SchemeViolationError):
            FeatureScheme("gender", ("female",))

    def test_rejects_duplicate_values(self):
        with pytest.raises(SchemeViolationError):
            FeatureScheme("gender", ("female", "female"))

    def test_rejects_unknown_collision(self):
        with pytest.raises(SchemeViolationError):
            FeatureScheme("gender", ("female", "male"), unknown_token="male")


class TestRankedRun:
    def test_rejects_empty(self):
        with pytest.raises(EmptyRunError):
            RankedRun(topic_id="t", entries=())

    def test_rejects_duplicates(self):
        with pytest.raises(SchemeViolationError):
            RankedRun(topic_id="t", entries=("a", "b", "a"))

    def test_finds_duplicates_in_one_pass(self):
        comparisons = 0

        class Counted(str):
            __hash__ = str.__hash__

            def __eq__(self, other):
                nonlocal comparisons
                comparisons += 1
                return str.__eq__(self, other)

        # Each entry a distinct object, so no comparison is skipped by identity.
        entries = [Counted(f"e{i:04d}") for i in range(2_000)] + [Counted("e0007"),
                                                                   Counted("e0003")]
        with pytest.raises(SchemeViolationError) as err:
            RankedRun(topic_id="t", entries=entries)
        assert str(err.value) == "run for topic 't' lists duplicate entities: e0003, e0007"
        assert comparisons <= 4 * len(entries)


class TestTargetRatio:
    def test_symmetric_population(self, gender):
        counts = support.make_target(gender, "t", "female", 5, 10)
        assert F(counts.count_of("female"), counts.total) == HALF

    def test_zero_numerator(self, gender):
        counts = support.make_target(gender, "t", "female", 0, 7)
        assert F(counts.count_of("female"), counts.total) == 0

    def test_three_of_ten_matches_enumeration(self, gender):
        # Independent oracle: enumerate a concrete 10-member population.
        population = ["female"] * 3 + ["male"] * 7
        hits = sum(1 for member in population if member == "female")
        expected = F(hits, len(population))
        counts = support.make_target(gender, "t", "female", 3, 10)
        assert F(counts.count_of("female"), counts.total) == expected == F(3, 10)

    def test_undeclared_value_rejected(self, gender):
        run, labels = support.window_fixture(gender, "t", "female", 3, 10)
        counts = support.make_target(gender, "t", "female", 3, 10)
        with pytest.raises(SchemeViolationError):
            bias_at_n(run, labels, counts, "nonbinary", 10)

    def test_empty_population_rejected_at_construction(self, gender):
        with pytest.raises(EmptyPopulationError):
            TargetCounts(topic_id="t", feature_name="gender",
                         counts={"female": 0, "male": 0})

    def test_negative_count_rejected(self, gender):
        with pytest.raises(EmptyPopulationError):
            TargetCounts(topic_id="t", feature_name="gender",
                         counts={"female": -1, "male": 2})


def window_record(run, labels, n, *, strict=False):
    """The female record of ``run`` at cutoff ``n`` against a 1-in-2 target."""
    target = support.make_target(labels.scheme, run.topic_id, "female", 1, 2)
    return bias_at_n(run, labels, target, "female", n, strict=strict)


class TestWindowRatios:
    # The plain share of the window carrying a value is the record's model ratio.
    def test_naive_direct_count(self, gender):
        run, labels = support.window_fixture(gender, "t", "female", 6, 10)
        assert window_record(run, labels, 10).model_ratio == F(6, 10)

    def test_naive_saturated_window(self, gender):
        run, labels = support.window_fixture(gender, "t", "female", 7, 7)
        assert window_record(run, labels, 10).model_ratio == 1

    def test_naive_odd_ranks(self, gender):
        entities = tuple(f"d{i}" for i in range(10))
        mapping = {e: ("female" if i % 2 == 0 else "male")
                   for i, e in enumerate(entities)}
        run = support.run_of("t", *entities)
        labels = support.catalog_of(gender, mapping)
        record = window_record(run, labels, 5)
        assert (record.model_ratio, record.cutoff_effective) == (F(3, 5), 5)

    def test_model_zero_hits(self, gender):
        run, labels = support.window_fixture(gender, "announcer", "female", 0, 10)
        record = window_record(run, labels, 10)
        assert (record.model_ratio, record.cutoff_effective,
                record.unknown_in_window) == (0, 10, 0)

    def test_model_nine_of_ten(self, gender):
        run, labels = support.window_fixture(gender, "archivist", "female", 9, 10)
        assert window_record(run, labels, 10).model_ratio == F(9, 10)

    def test_model_short_run(self, gender):
        run, labels = support.window_fixture(gender, "t", "female", 4, 8)
        record = window_record(run, labels, 10)
        assert (record.model_ratio, record.cutoff_effective) == (HALF, 8)

    def test_unknowns_stay_in_denominator(self, gender):
        run = support.run_of("t", "a", "b", "c", "d")
        labels = support.catalog_of(gender, {"a": "female", "b": "male"})
        records = measure_topic(run, labels, support.make_target(gender, "t", "female", 1, 2), 4)
        assert [(r.model_ratio, r.cutoff_effective, r.unknown_in_window)
                for r in records] == [(F(1, 4), 4, 2), (F(1, 4), 4, 2)]

    def test_strict_mode_raises_on_unknown(self, gender):
        run = support.run_of("t", "a", "b")
        labels = support.catalog_of(gender, {"a": "female"})
        with pytest.raises(UnlabeledEntityError, match="b"):
            window_record(run, labels, 2, strict=True)

    def test_bad_cutoff(self, gender):
        run, labels = support.window_fixture(gender, "t", "female", 1, 2)
        with pytest.raises(ValueError):
            window_record(run, labels, 0)


class TestIdealTargetRatio:
    def test_halfway_accepts_shown_count_low(self):
        ideal, remainder = ideal_target_ratio_at_n(HALF, F(5, 11), 11)
        assert (ideal, remainder) == (F(5, 11), HALF)

    def test_halfway_accepts_shown_count_high(self):
        ideal, remainder = ideal_target_ratio_at_n(HALF, F(6, 11), 11)
        assert (ideal, remainder) == (F(6, 11), HALF)

    @pytest.mark.parametrize("model_count", range(11))
    def test_floor_case_ignores_model(self, model_count):
        ideal, remainder = ideal_target_ratio_at_n(F(33, 100), F(model_count, 10), 10)
        assert ideal == F(3, 10)
        assert remainder == F(3, 10)

    def test_degenerate_full_population(self):
        ideal, remainder = ideal_target_ratio_at_n(F(1), F(4, 10), 10)
        assert (ideal, remainder) == (F(1), 0)

    def test_ceiling_case(self):
        ideal, _ = ideal_target_ratio_at_n(F(57, 100), F(0, 10), 10)
        assert ideal == F(6, 10)

    def test_model_off_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            ideal_target_ratio_at_n(HALF, F(1, 3), 10)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ideal_target_ratio_at_n(F(3, 2), F(0), 10)
        with pytest.raises(ValueError):
            ideal_target_ratio_at_n(HALF, F(-1, 10), 10)

    @given(
        num=st.integers(min_value=0, max_value=400),
        m=st.integers(min_value=1, max_value=25),
        data=st.data(),
    )
    def test_matches_literal_oracle(self, num, m, data):
        target = F(num, 400)
        model_count = data.draw(st.integers(min_value=0, max_value=m))
        model = F(model_count, m)
        ideal, _ = ideal_target_ratio_at_n(target, model, m)
        assert ideal == support.oracle_ideal(target, model, m)

    @given(
        total=st.integers(min_value=1, max_value=60),
        m=st.integers(min_value=1, max_value=30),
        data=st.data(),
    )
    def test_attainable_count_matches_literal_oracle(self, total, m, data):
        count = data.draw(st.integers(min_value=0, max_value=total))
        shown = data.draw(st.integers(min_value=0, max_value=m))
        expected = support.oracle_ideal(F(count, total), F(shown, m), m)
        assert F(attainable_count(count, total, m, shown), m) == expected

    @given(
        num=st.integers(min_value=0, max_value=300),
        m=st.integers(min_value=1, max_value=20),
        data=st.data(),
    )
    def test_rounding_bound(self, num, m, data):
        # Nearest-grid rounding never strays more than half a grid step,
        # and reaches exactly half a step only in the half-way case.
        target = F(num, 300)
        model_count = data.draw(st.integers(min_value=0, max_value=m))
        ideal, remainder = ideal_target_ratio_at_n(target, F(model_count, m), m)
        gap = abs(ideal - target)
        if remainder == HALF:
            assert gap == F(1, 2 * m)
        else:
            assert gap < F(1, 2 * m)


class TestBiasAtN:
    def test_under_representation(self, gender):
        run, labels = support.window_fixture(gender, "announcer", "female", 0, 10)
        target = support.make_target(gender, "announcer", "female", 5, 10)
        record = bias_at_n(run, labels, target, "female", 10)
        assert record.bias == F(-5, 10)
        assert record.model_ratio == 0
        assert record.target_ratio_at_cutoff == HALF

    def test_over_representation(self, gender):
        run, labels = support.window_fixture(gender, "archivist", "female", 9, 10)
        target = support.make_target(gender, "archivist", "female", 1, 10)
        record = bias_at_n(run, labels, target, "female", 10)
        assert record.bias == F(8, 10)

    def test_full_results_style_row(self, gender):
        run, labels = support.window_fixture(gender, "librarian", "female", 2, 10)
        target = support.make_target(gender, "librarian", "female", 6, 10)
        assert bias_at_n(run, labels, target, "female", 10).bias == F(-4, 10)

    def test_bias_free(self, gender):
        run, labels = support.window_fixture(gender, "t", "female", 5, 10)
        target = support.make_target(gender, "t", "female", 1, 2)
        assert bias_at_n(run, labels, target, "female", 10).bias == 0

    def test_topic_mismatch(self, gender):
        run, labels = support.window_fixture(gender, "t1", "female", 5, 10)
        target = support.make_target(gender, "t2", "female", 1, 2)
        with pytest.raises(TopicMismatchError):
            bias_at_n(run, labels, target, "female", 10)

    def test_feature_mismatch(self, gender):
        run, labels = support.window_fixture(gender, "t", "female", 5, 10)
        target = TargetCounts(topic_id="t", feature_name="age",
                              counts={"young": 1, "old": 1})
        with pytest.raises(SchemeViolationError):
            bias_at_n(run, labels, target, "female", 10)

    def test_short_run_uses_effective_cutoff(self, gender):
        run, labels = support.window_fixture(gender, "t", "female", 3, 7)
        target = support.make_target(gender, "t", "female", 1, 2)
        record = bias_at_n(run, labels, target, "female", 10)
        assert record.cutoff_requested == 10
        assert record.cutoff_effective == 7
        # 0.5 * 7 = 3.5: half-way, so the shown count of 3 is accepted.
        assert record.rounding_remainder == HALF
        assert record.target_ratio_at_cutoff == F(3, 7)
        assert record.bias == 0

    @given(
        m=st.integers(min_value=1, max_value=14),
        total=st.integers(min_value=1, max_value=14),
        data=st.data(),
    )
    def test_grid_property(self, m, total, data):
        # Bias always lands on the 1/m grid with |numerator| bounded by m.
        scheme = support.GENDER
        hits = data.draw(st.integers(min_value=0, max_value=m))
        in_group = data.draw(st.integers(min_value=0, max_value=total))
        run, labels = support.window_fixture(scheme, "t", "female", hits, m)
        target = support.make_target(scheme, "t", "female", in_group, total)
        record = bias_at_n(run, labels, target, "female", m)
        scaled = record.bias * record.cutoff_effective
        assert scaled.denominator == 1
        assert abs(scaled.numerator) <= record.cutoff_effective

    @given(
        m=st.integers(min_value=1, max_value=12),
        total=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    def test_binary_symmetry(self, m, total, data):
        scheme = support.GENDER
        hits = data.draw(st.integers(min_value=0, max_value=m))
        in_group = data.draw(st.integers(min_value=0, max_value=total))
        run, labels = support.window_fixture(scheme, "t", "female", hits, m)
        target = support.make_target(scheme, "t", "female", in_group, total)
        female = bias_at_n(run, labels, target, "female", m)
        male = bias_at_n(run, labels, target, "male", m)
        assert female.bias == -male.bias

    def test_monotone_in_model_count(self, gender):
        # Strictly increasing in the shown count, except that the half-way
        # rounding makes both counts astride the target equally bias-free.
        for total, in_group, m in ((10, 3, 10), (4, 1, 6), (2, 1, 11), (8, 3, 4)):
            target = support.make_target(gender, "t", "female", in_group, total)
            biases = []
            for hits in range(m + 1):
                run, labels = support.window_fixture(gender, "t", "female", hits, m)
                record = bias_at_n(run, labels, target, "female", m)
                biases.append((record.bias, record.rounding_remainder))
            for (prev, _), (cur, remainder) in zip(biases, biases[1:]):
                if remainder == HALF and cur == 0 and prev == 0:
                    continue  # the two half-way counts are both accepted
                assert cur > prev


class TestAggregate:
    def _records(self, gender, biases, m=10):
        records = []
        for i, bias in enumerate(biases):
            hits = int((bias + HALF) * m)
            records.append(support.grid_record(f"t{i:03d}", "female", m, hits,
                                               m // 2))
        return records

    def test_symmetric_cancellation(self, gender):
        records = self._records(gender, [F(1, 10), F(-1, 10)])
        summary = aggregate(records, "female", "kb")
        assert summary.mean_bias == 0
        assert summary.mean_abs_bias == F(1, 10)

    def test_singleton_flagged(self, gender):
        records = self._records(gender, [HALF])
        summary = aggregate(records, "female", "kb")
        assert summary.single_sample
        assert summary.stdev_bias == 0.0
        assert summary.mean_bias == summary.min_bias == summary.max_bias == HALF
        assert summary.mean_abs_bias == HALF

    def test_matches_single_pass_oracle(self, gender):
        import random

        rng = random.Random(90125)
        biases = [F(rng.randint(-5, 5), 10) for _ in range(454)]
        records = self._records(gender, biases)
        summary = aggregate(records, "female", "kb")
        mean, stdev, mean_abs, smallest, largest = support.oracle_aggregate(biases)
        assert summary.mean_bias == mean
        assert summary.mean_abs_bias == mean_abs
        assert summary.min_bias == smallest
        assert summary.max_bias == largest
        assert abs(summary.stdev_bias - stdev) <= 1e-12

    def test_population_divisor_flag(self, gender):
        records = self._records(gender, [F(1, 10), F(-1, 10), F(3, 10)])
        sample = aggregate(records, "female", "kb")
        population = aggregate(records, "female", "kb", population_sd=True)
        assert population.population_sd
        assert population.stdev_bias < sample.stdev_bias

    def test_empty_rejected(self):
        with pytest.raises(EmptyAggregateError):
            aggregate([], "female", "kb")

    def test_mixed_values_rejected(self, gender):
        records = [support.grid_record("t1", "female", 10, 5, 5),
                   support.grid_record("t2", "male", 10, 5, 5)]
        with pytest.raises(ValueError, match="male"):
            aggregate(records, "female", "kb")

    def test_summary_invariants_enforced(self):
        with pytest.raises(ValueError):
            BiasSummary(feature_value="female", target_source="kb", topic_count=2,
                        mean_bias=F(1, 2), stdev_bias=0.1, mean_abs_bias=F(1, 4),
                        min_bias=F(0), max_bias=F(1))


class TestMultiValueSchemes:
    """Schemes with more than two values evaluate one-vs-rest per value."""

    def setup_method(self):
        self.scheme = FeatureScheme("ethnicity", ("a", "b", "c"))

    def _measure(self, counts, window):
        entities = tuple(f"d{i}" for i in range(len(window)))
        run = RankedRun(topic_id="t", entries=entities)
        labels = support.catalog_of(self.scheme, dict(zip(entities, window)))
        target = TargetCounts(topic_id="t", feature_name="ethnicity",
                              counts=counts)
        return {value: bias_at_n(run, labels, target, value, len(window))
                for value in self.scheme.values}

    def test_one_vs_rest_measurement(self):
        records = self._measure({"a": 30, "b": 50, "c": 20},
                                ["a"] * 5 + ["b"] * 3 + ["c"] * 2)
        assert records["a"].bias == F(2, 10)
        assert records["b"].bias == F(-2, 10)
        assert records["c"].bias == F(0)

    def test_rounded_ideals_need_not_sum_to_window(self):
        # Equal thirds at window 10 all round down: the per-value ideals
        # cover only 9 of 10 slots, the documented one-vs-rest limitation.
        records = self._measure({"a": 1, "b": 1, "c": 1},
                                ["a"] * 4 + ["b"] * 3 + ["c"] * 3)
        ideals = [records[v].target_ratio_at_cutoff for v in self.scheme.values]
        assert sum(ideals) == F(9, 10)
        assert records["a"].bias == F(1, 10)
        assert records["b"].bias == F(0)
        assert records["c"].bias == F(0)


class TestBiasRecordInvariants:
    """A record's ratios must lie on its grid and agree with each other.

    Records are built from counts, which satisfy that by construction, so
    the checks bite where ratios come in from outside: a report document.
    """

    @staticmethod
    def _document(**record_changes):
        record = support.grid_record("t", "female", 10, 3, 5, raw=HALF)
        report = build_report(make_meta(), [EvaluatedTopic("kb", 2, record)])
        payload = json.loads(report_to_json(report))
        for key, ratio in record_changes.items():
            payload["records"][0][key]["ratio"] = ratio
        return json.dumps(payload)

    def test_rejects_off_grid_model(self):
        with pytest.raises(ParseError) as err:
            parse_report(self._document(model_ratio="1/3", bias="-1/6"),
                         path="report.json")
        assert "not on the 1/10 grid" in str(err.value)
        assert err.value.path == "report.json" and err.value.field == "records[0]"

    def test_rejects_inconsistent_bias(self):
        with pytest.raises(ParseError) as err:
            parse_report(self._document(bias="1/10"), path="report.json")
        assert "bias must equal" in str(err.value)
        assert err.value.field == "records[0]"

    def test_rejects_inconsistent_remainder(self):
        with pytest.raises(ParseError) as err:
            parse_report(self._document(rounding_remainder="1/3"))
        assert "rounding_remainder" in str(err.value)

    def test_counts_must_fit_the_window(self):
        with pytest.raises(ValueError):
            BiasRecord("t", "v", 10, 10, model_count=11, ideal_count=5,
                       target_numerator=1, target_denominator=2)
        with pytest.raises(ValueError):
            BiasRecord("t", "v", 10, 10, 5, 5, target_numerator=3, target_denominator=2)

    def test_replace_in_ratio_terms(self):
        record = support.grid_record("t", "female", 10, 3, 5, raw=HALF)
        moved = dataclasses.replace(record, model_ratio=F(4, 10), bias=F(-1, 10))
        assert (moved.model_count, moved.ideal_count, moved.bias) == (4, 5, F(-1, 10))
        with pytest.raises(ValueError):
            dataclasses.replace(record, model_ratio=F(1, 3))
        with pytest.raises(ValueError):
            dataclasses.replace(record, bias=F(1, 10))

    def test_raw_ratio_is_stored_in_lowest_terms(self):
        record = BiasRecord("t", "v", 10, 10, 5, 5, target_numerator=6, target_denominator=12)
        assert (record.target_numerator, record.target_denominator) == (1, 2)
        assert record == support.grid_record("t", "v", 10, 5, 5, raw=HALF)
