#!/usr/bin/env python3
"""Print traced layer times beside the ROADMAP baseline table.

    python3 perfbench/roadmap.py --seed 1              # bench corpus, scaled column
    python3 perfbench/roadmap.py --seed 1 --size full  # the 20k-topic reference

The ROADMAP figures are single wall-clock runs of each layer on the
20,000-topic corpus. Here each row is the median inclusive time of the
function's spans over the traced invocations of one workload: `audit-kb`
for the evaluate path, `rereport` for `parse_report` and the CSV bundle.
The last column scales the measured time linearly to 20,000 topics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import run

REFERENCE_TOPICS = 20000
# (ROADMAP row, its seconds, workload, span measured here)
ROWS = (
    ("parse_runs", 1.48, "audit-kb", "ingest.parse_runs"),
    ("parse_labels", 1.39, "audit-kb", "ingest.parse_labels"),
    ("target loading", 0.13, "audit-kb", "ingest.parse_target_counts"),
    ("_evaluate_corpus, --jobs 1", 1.94, "audit-kb", "metrics.bias_at_n"),
    ("_evaluate_corpus, --jobs 4", 3.87, None, None),
    ("build_report", 2.14, "audit-kb", "report.build_report"),
    ("report_to_json (42 MB)", 3.85, "audit-kb", "report.report_to_json"),
    ("report_to_csv_bundle", 0.60, "rereport", "report.report_to_csv_bundle"),
    ("parse_report", 2.54, "rereport", "report.parse_report"),
    ("whole biaslens evaluate CLI", 13.7, "audit-kb", None),
)
NOTES = (
    "_evaluate_corpus is private to cli; its per-topic work is the bias_at_n calls, "
    "summed here.",
    "The --jobs 4 row is deliberately not reproduced: the benchmark passes no --jobs, "
    "a flag the ROADMAP plans to delete.",
    "report_to_csv_bundle comes from rereport (--table-size 25 --exemplar-grid 20), "
    "not from the evaluate output.",
    "The whole-CLI row is the median untraced wall time, fork to exit; interpreter "
    "start-up does not grow with the corpus, so its scaled figure overstates.",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--size", choices=("bench", "full"), default="bench")
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "biaslens" / "__init__.py").is_file():
        print("error: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    results = {name: run.run_workload(root, name, args.seed, args.seconds, True, args.size)
               for name in ("audit-kb", "rereport")}
    for result in results.values():
        if not result.correct:
            print(f"error: {result.workload} failed: {result.problems}", file=sys.stderr)
            return 1
    sizes = ", ".join(f"{name} {r.info['topics']} topics" for name, r in results.items())
    print(f"{'ROADMAP row':<30} {'ROADMAP s':>9} {'here s':>9} {'at 20k':>9}"
          f"  ({sizes}, seed {args.seed})")
    for row, baseline, workload, span in ROWS:
        if workload is None:
            print(f"{row:<30} {baseline:>9.2f} {'-':>9} {'-':>9}  not reproduced")
            continue
        result = results[workload]
        scale = REFERENCE_TOPICS / result.info["topics"]
        if span is None:
            seconds = result.info["plain_wall_s"]
        elif span in result.functions:
            seconds = result.functions[span]["total_s"]
        else:
            print(f"{row:<30} {baseline:>9.2f} {'-':>9} {'-':>9}  {span} missing")
            continue
        print(f"{row:<30} {baseline:>9.2f} {seconds:>9.3f} {seconds * scale:>9.2f}  "
              f"{workload}: {span or 'wall_s'}")
    for note in NOTES:
        print(f"note: {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
