"""Golden digests of the report files for one fixed simulate plan and seed.

The plan mixes window lengths below and above the cutoff, so the report
covers off-grid topics, several grids in one aggregate and half-way
targets. A deliberate change to the report layout updates these digests
and says so in CHANGES.md; any other change to them is a regression.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import support
from biaslens import cli

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


def test_report_files_match_golden_digests(tmp_path):
    plan = tmp_path / "plan.tsv"
    plan.write_text("\n".join(plan_rows()) + "\n", encoding="utf-8")
    scheme = ["--feature", "gender", "--values", "female,male"]
    fixtures = tmp_path / "in"
    assert cli.main(["simulate", str(plan), *scheme, "--seed", "3",
                     "--out", str(fixtures)]) == 0
    out = tmp_path / "out"
    for fmt in ("json", "csv"):
        assert cli.main(["evaluate", "--runs", str(fixtures / "runs.tsv"),
                         "--labels", str(fixtures / "labels.tsv"),
                         "--target", f"kb={fixtures / 'targets.tsv'}", *scheme,
                         "--cutoff", "10", "--seed", "3", "--format", fmt,
                         "--out", str(out)]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir()}
    assert digests == GOLDEN
