"""Seeded inputs for the benchmark workloads, and their expected results.

Every input is a pure function of (workload, seed, size). The benchmark
writes only the files a user would bring to the tool: the `simulate` plan
and, for `audit-sparql`, a W3C SPARQL 1.1 JSON results export. The corpus
files themselves (`runs.tsv`, `labels.tsv`, `targets.tsv`) come from the
program's own `simulate`, whose run time is the set-up metric.

The expected bias of every (topic, value) pair is computed here from the
integer counts the benchmark generated, with its own implementation of the
grid-rounding rule; nothing in this module imports biaslens.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

FEATURE = "gender"
VALUES = ("female", "male")
SOURCE = "kb"

# Windows of the ROADMAP baseline corpus. Every `audit-kb` window is at most
# the cutoff, so every record is measured on its whole run.
KB_WINDOWS = (10, 20, 50)
KB_CUTOFF = 50
# `audit-sparql` audits the top 10 of runs that are 10 long, so the window
# counts are the planted ones.
SPARQL_WINDOW = 10
SPARQL_CUTOFF = 10
SPARQL_MEMBERS = (50, 400)
KB_POPULATION = (20, 500)
# Planted biases are drawn from -3/m .. 3/m, clipped to what the window allows.
MAX_BIAS_STEPS = 3

# Topics per workload and size. `full` is the ROADMAP reference. `bench` is
# scaled down so that a 30-second run holds 20 to 40 invocations, enough for
# a steady median, while the program's work, not interpreter start-up, still
# dominates each one. `smoke` runs in a second.
TOPICS = {
    "audit-kb": {"smoke": 40, "bench": 2000, "full": 20000},
    "audit-sparql": {"smoke": 12, "bench": 400, "full": 3000},
    "rereport": {"smoke": 40, "bench": 2000, "full": 20000},
}
SIZES = ("smoke", "bench", "full")


def attainable(count: int, total: int, m: int, shown: int) -> int:
    """Count on the 1/m grid that a population share count/total justifies.

    The share is rounded to the nearest count; exactly halfway, the count
    the window shows decides, so a window that shows either neighbour is
    unbiased.
    """
    floor, remainder = divmod(count * m, total)
    if 2 * remainder < total:
        return floor
    if 2 * remainder > total:
        return floor + 1
    return floor if shown <= floor else floor + 1


def planted_count(count: int, total: int, m: int, bias: int) -> int | None:
    """Window count whose bias is bias/m, or None when no count in [0, m] has it."""
    floor = count * m // total
    for shown in (floor + bias, floor + 1 + bias):
        if 0 <= shown <= m and shown - attainable(count, total, m, shown) == bias:
            return shown
    return None


@dataclass(frozen=True)
class Topic:
    """One planned topic: window length, reference counts and planted bias.

    ``population`` counts the reference population per value; ``shown``
    counts the window per value. ``bias`` is the planted bias of VALUES[0]
    on the 1/window grid.
    """

    topic_id: str
    window: int
    population: tuple[int, int]
    shown: tuple[int, int]
    bias: int

    def expected_biases(self) -> dict[str, Fraction]:
        total = sum(self.population)
        return {
            value: Fraction(shown - attainable(count, total, self.window, shown),
                            self.window)
            for value, count, shown in zip(VALUES, self.population, self.shown)
        }


def _plan_topic(rng: random.Random, topic_id: str, window: int,
                population: tuple[int, int]) -> Topic:
    count, total = population[0], sum(population)
    choices = []
    for bias in range(-MAX_BIAS_STEPS, MAX_BIAS_STEPS + 1):
        shown = planted_count(count, total, window, bias)
        if shown is not None:
            choices.append((bias, shown))
    bias, shown = rng.choice(choices)
    return Topic(topic_id, window, population, (shown, window - shown), bias)


@dataclass(frozen=True)
class Corpus:
    """Inputs of one workload run: the plan, and SPARQL members if any."""

    seed: int
    topics: tuple[Topic, ...]
    # Per topic, the value of each population member, in member order.
    members: dict[str, tuple[str, ...]] | None = None

    @property
    def cutoff(self) -> int:
        return SPARQL_CUTOFF if self.members is not None else KB_CUTOFF

    @property
    def bindings(self) -> int:
        return sum(len(v) for v in self.members.values()) if self.members else 0

    def expected_records(self) -> dict[tuple[str, str, str], Fraction]:
        """(source, value, topic) -> exact bias."""
        expected = {}
        for topic in self.topics:
            for value, bias in topic.expected_biases().items():
                expected[(SOURCE, value, topic.topic_id)] = bias
        return expected

    def expected_summaries(self) -> dict[tuple[str, str], tuple[int, Fraction, Fraction]]:
        """(source, value) -> (topics, mean bias, mean absolute bias)."""
        per_value: dict[str, list[Fraction]] = {v: [] for v in VALUES}
        for (_, value, _), bias in self.expected_records().items():
            per_value[value].append(bias)
        return {
            (SOURCE, value): (len(b), sum(b, Fraction(0)) / len(b),
                              sum((abs(x) for x in b), Fraction(0)) / len(b))
            for value, b in per_value.items()
        }

    def write_plan(self, path: Path) -> None:
        lines = ["topic_id\ttarget_ratio\tbias\tlength\tpopulation"]
        for t in self.topics:
            lines.append(f"{t.topic_id}\t{t.population[0]}/{sum(t.population)}\t"
                         f"{t.bias}/{t.window}\t{t.window}\t{sum(t.population)}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def write_sparql_export(self, path: Path) -> None:
        """W3C SPARQL 1.1 JSON results: one binding per population member."""
        bindings = []
        for topic_id, values in self.members.items():
            topic = {"type": "uri", "value": f"http://example.org/topic/{topic_id}"}
            for index, value in enumerate(values, start=1):
                bindings.append({
                    "topic": topic,
                    "entity": {"type": "uri",
                               "value": f"http://example.org/entity/{topic_id}-p{index:04d}"},
                    "value": {"type": "literal", "value": value},
                })
        document = {"head": {"vars": ["topic", "entity", "value"]},
                    "results": {"bindings": bindings}}
        path.write_text(json.dumps(document, separators=(",", ":")), encoding="utf-8")


def _spread(choices, count: int, rng: random.Random) -> list:
    """``count`` items cycling through ``choices``, shuffled.

    Every seed then gets a corpus of the same size: the same runs lines and
    the same SPARQL bindings, so only the arrangement changes.
    """
    items = [choices[i % len(choices)] for i in range(count)]
    rng.shuffle(items)
    return items


def build_corpus(workload: str, seed: int, size: str = "bench") -> Corpus:
    """Generate a workload's inputs from its seed; same seed, same corpus."""
    count = TOPICS[workload][size]
    # `rereport` re-derives the `audit-kb` report, so both draw the same corpus.
    stream = "audit-sparql" if workload == "audit-sparql" else "audit-kb"
    rng = random.Random(f"{stream}:{seed}")
    topics = []
    if workload != "audit-sparql":
        windows = _spread(KB_WINDOWS, count, rng)
        for i, window in enumerate(windows):
            total = rng.randint(*KB_POPULATION)
            female = rng.randint(0, total)
            topics.append(_plan_topic(rng, f"t{i:06d}", window, (female, total - female)))
        return Corpus(seed, tuple(topics))
    low, high = SPARQL_MEMBERS
    sizes = _spread([low + (high - low) * i // max(1, count - 1) for i in range(count)],
                    count, rng)
    members = {}
    for i, size in enumerate(sizes):
        topic_id = f"s{i:05d}"
        share = rng.random()
        values = tuple(VALUES[0] if rng.random() < share else VALUES[1]
                       for _ in range(size))
        female = values.count(VALUES[0])
        members[topic_id] = values
        topics.append(_plan_topic(rng, topic_id, SPARQL_WINDOW,
                                  (female, len(values) - female)))
    return Corpus(seed, tuple(topics), members)
