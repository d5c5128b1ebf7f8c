"""Golden digests of the report files for one fixed simulate plan and seed.

The plan mixes window lengths below and above the cutoff, so the report
covers off-grid topics, several grids in one aggregate and half-way
targets. A second run measures the same corpus against `--members`
sources of all three formats. A deliberate change to the report layout
updates these digests and says so in CHANGES.md; any other change to them
is a regression.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import support
from biaslens import cli

SCHEME = ["--feature", "gender", "--values", "female,male"]

GOLDEN = {
    "histogram.csv": "f1d700ba071847088b614629dd25a73687a4ceaa41be3f53543e8e87313371de",
    "records.csv": "373db45494bba207d0a4d279d56c9837cf831ba4a6cdc46921e37e61467573ea",
    "report.json": "7374ebc2faab0f2374794036ad2ea22f2b1cc31b6cc7890b1fee565eec81c9d3",
    "scatter.csv": "a34858183d003861de108dac5d18deba11bcbc6312252fd27869009f05040954",
    "summaries.csv": "0581ef1201de8edc4927989ff43ae327375569f8f49e5cc1b0d25b1161f8cc91",
    "table_against.csv": "675129b7cade2ec0eb012e88c08c50549326acabcea277847b0b0f22775182ec",
    "table_towards.csv": "f40374b4bf2139239682409f1f9009bf93c562d8b70bb0ffa12a649c575ae0f3",
    "table_unbiased.csv": "dc3f6c27510fcbb16083a48e7872883775b6fe6436322c0266ba29f40fce0821",
}


def plan_rows() -> list[str]:
    rng = random.Random(7)
    rows = []
    for i in range(30):
        target = Fraction(rng.randint(0, 12), 12)
        length = rng.choice((4, 7, 10, 13))
        low, high = support.feasible_bias_range(target, length)
        bias = Fraction(rng.randint(low, high), length)
        rows.append(f"g{i:02d}\t{target}\t{bias}\t{length}\t{12 * rng.randint(1, 5)}")
    return rows


def simulated(tmp_path):
    plan = tmp_path / "plan.tsv"
    plan.write_text("\n".join(plan_rows()) + "\n", encoding="utf-8")
    fixtures = tmp_path / "in"
    assert cli.main(["simulate", str(plan), *SCHEME, "--seed", "3",
                     "--out", str(fixtures)]) == 0
    return fixtures


def test_report_files_match_golden_digests(tmp_path):
    fixtures = simulated(tmp_path)
    out = tmp_path / "out"
    digests = {}  # of each run's files, read before the next run replaces them
    for fmt in ("json", "csv"):
        assert cli.main(["evaluate", "--runs", str(fixtures / "runs.tsv"),
                         "--labels", str(fixtures / "labels.tsv"),
                         "--target", f"kb={fixtures / 'targets.tsv'}", *SCHEME,
                         "--cutoff", "10", "--seed", "3", "--format", fmt,
                         "--out", str(out)]) == 0
        digests.update({path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in out.iterdir()})
    assert digests == GOLDEN


MEMBERS_REPORT = "76c2863980905a5c6c3145778d6ca82a331238e8d4b5661be19bb1e0b9a33e7e"
MEMBERS_STDOUT = """\
evaluated 30 topics at cutoff 10 (108 records, 3 target sources, 2 values)
label conflicts resolved by provenance: 141
dropped 93 SPARQL label rows with values outside the scheme
  dbp/female: topics=20 MB=0.0271429 SB=0.107969 MAB=0.0714286 min=-0.142857 max=0.25
  dbp/male: topics=20 MB=-0.0271429 SB=0.107969 MAB=0.0714286 min=-0.25 max=0.142857
  list/female: topics=14 MB=0.000510204 SB=0.101111 MAB=0.0637755 min=-0.142857 max=0.25
  list/male: topics=14 MB=-0.000510204 SB=0.101111 MAB=0.0637755 min=-0.25 max=0.142857
  wiki/female: topics=20 MB=0.0025 SB=0.092677 MAB=0.0467857 min=-0.2 max=0.25
  wiki/male: topics=20 MB=-0.0025 SB=0.092677 MAB=0.0467857 min=-0.25 max=0.2
skipped 37 topic-source pairs:
  dbp/g00: missing-target
  dbp/g01: missing-target
  dbp/g02: missing-target
  dbp/g03: missing-target
  dbp/g04: missing-target
  dbp/g05: missing-target
  dbp/g06: missing-target
  dbp/g07: missing-target
  dbp/g08: missing-target
  dbp/g09: missing-target
  ... and 27 more (see report)
wrote OUT/report.json
"""


def members_sources(fixtures):
    """Write three `--members` sources for the simulated runs: a SPARQL JSON
    export of topics g00-g19, a SPARQL TSV export of g10-g29 after a comment
    preamble, and a members TSV of g15-g29 plus a topic with no run. Each
    topic's population is its ranked entities and up to six more. Export rows
    carry a declared value, the unknown token, a value outside the scheme or
    none, so they add labels, relabel ranked entities (conflicts) and drop
    rows. The members TSV gives g29 only unlabeled members."""
    rng = random.Random(11)
    topics: dict[str, list[str]] = {}
    for line in (fixtures / "runs.tsv").read_text(encoding="utf-8").splitlines()[1:]:
        topic, _, entity = line.split("\t")
        topics.setdefault(topic, []).append(entity)
    values = ("female", "male", "unknown", "Q6581072", None)
    bindings, tsv_lines, member_lines = [], [], []
    for i, topic in enumerate(sorted(topics)):
        entities = topics[topic] + [f"{topic}:x{j}" for j in range(rng.randint(0, 6))]
        for entity in entities:
            value = rng.choice(values)
            iri = f"http://example.org/{entity}"
            if i < 20:
                binding = {"topic": {"type": "literal", "value": topic},
                           "entity": {"type": "uri", "value": iri}}
                if value is not None:
                    binding["value"] = {"type": "literal", "value": value}
                bindings.append(binding)
            if i >= 10:
                cell = "" if value is None else f'"{value}"@en'
                tsv_lines.append(f'"{topic}"\t<{iri}>\t{cell}')
            if i >= 15:
                member_lines.append(f"{topic}\t{entity if i < 29 else 'nobody'}")
    export = {"head": {"vars": ["topic", "entity", "value"]},
              "results": {"bindings": bindings}}
    (fixtures / "wiki.json").write_text(json.dumps(export), encoding="utf-8")
    (fixtures / "dbp.tsv").write_text(
        "# exported 2021-06-01\n\n?topic\t?entity\t?value\n" + "\n".join(tsv_lines) + "\n",
        encoding="utf-8")
    (fixtures / "list.tsv").write_text(
        "\n".join(member_lines + ["zz-unranked\tzz:e1"]) + "\n", encoding="utf-8")


def test_members_sources_match_golden_digest(tmp_path, capsys):
    fixtures = simulated(tmp_path)
    members_sources(fixtures)
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(["evaluate", "--runs", str(fixtures / "runs.tsv"),
                     "--labels", str(fixtures / "labels.tsv"), *SCHEME,
                     *(arg for name in ("wiki.json", "dbp.tsv", "list.tsv")
                       for arg in ("--members", f"{name.split('.')[0]}={fixtures / name}")),
                     "--cutoff", "10", "--seed", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out.replace(str(out), "OUT") == MEMBERS_STDOUT
    assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == MEMBERS_REPORT
