"""A fixed amount of interpreter work, timed as a yardstick of host speed.

The benchmark runs this file as a child, the same way it runs the CLI, next
to every measured invocation. Its work never changes: it builds TSV text,
splits and counts it into dicts, does exact integer and fraction arithmetic,
sorts, and encodes and decodes JSON, the same kinds of work as the program,
with nothing from biaslens. How long it takes therefore moves only with the
speed the host gives the benchmark at that moment, which on a shared host
drifts by a third over minutes.

    python3 perfbench/calibrate.py [ROUNDS]
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

ROUNDS = 6
ROWS = 12000


def one_round(seed: int) -> int:
    lines = [f"t{(i * 7919 + seed) % 1500:05d}\te{i:06d}\t"
             f"{'female' if (i * 31 + seed) % 3 else 'male'}\t{(i * 13) % 50 + 1}"
             for i in range(ROWS)]
    text = "\n".join(lines)
    counts: dict[str, dict[str, int]] = {}
    ranks: dict[str, list[int]] = {}
    for line in text.split("\n"):
        topic, _entity, value, rank = line.split("\t")
        per_topic = counts.setdefault(topic, {})
        per_topic[value] = per_topic.get(value, 0) + 1
        ranks.setdefault(topic, []).append(int(rank))
    records = []
    for topic in sorted(counts):
        per_topic = counts[topic]
        total = sum(per_topic.values())
        for value, count in sorted(per_topic.items()):
            share = Fraction(count, total)
            m = len(ranks[topic])
            floor, rem = divmod(count * m, total)
            records.append({"topic": topic, "value": value, "share": str(share),
                            "bias": str(Fraction(2 * rem - total, 2 * total * m)),
                            "top": sorted(ranks[topic])[:10], "count": floor})
    encoded = json.dumps({"records": records}, indent=2, sort_keys=True)
    return len(json.loads(encoded)["records"]) + len(encoded)


def main(argv: list[str]) -> int:
    rounds = int(argv[1]) if len(argv) > 1 else ROUNDS
    check = sum(one_round(seed) for seed in range(rounds))
    print(check)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
