#!/usr/bin/env python3
"""Benchmark of the biaslens CLI, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload audit-kb --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Workloads (later changes refer to these names):

  audit-kb      `evaluate --cutoff 50` of a `simulate` corpus with one
                pre-aggregated target source, written as JSON. The whole
                write path: every layer is significant.
  audit-sparql  `evaluate --cutoff 10` with targets from `--members`, a
                SPARQL JSON results export with 50-400 members per topic.
                Ingest dominates; metrics and report work is small.
  rereport      `report <audit-kb report.json> --format csv --table-size 25
                --exemplar-grid 20`: reading, re-deriving and CSV emission,
                with no ingest and no per-topic measurement.

The loop is closed, with one client: one fresh child process at a time runs
the CLI on inputs already on disk, and the next starts when it has exited.
Every invocation is gated: the first output is checked record by record
against the expected biases, and every later one must be byte-identical to
it. A nonzero exit, a missing output or a mismatch is a failed invocation.

With `--trace 0` the last line holds the end-to-end metrics. With
`--trace 1` invocations alternate between plain and traced children
(`tracer.py`) and the last line holds the per-layer metrics. The last line
is always one JSON object: {"correct", "attempted", "failed", "metrics"}.

Times are given at a reference host speed. The host is shared, and the
speed it gives one process drifts by a third within minutes, far more than a
regression worth catching. So every timed program run is bracketed by two
runs of `calibrate.py`, a fixed amount of interpreter work, and its wall and
CPU seconds are scaled by CAL_REFERENCE_S over the mean of those two
calibration times. The raw medians are printed beside the scaled ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus as corpus_mod  # noqa: E402
import gate  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("audit-kb", "audit-sparql", "rereport")
SCHEME_FLAGS = ["--feature", corpus_mod.FEATURE, "--values", ",".join(corpus_mod.VALUES)]
SETUP_REPEATS = 5
MIN_INVOCATIONS = 4
# Per child process: twenty times a `bench` invocation, so that a run with a
# hung child still ends within three minutes; `full` inputs take ten times
# longer.
CHILD_TIMEOUT_S = {"smoke": 30.0, "bench": 30.0, "full": 600.0}
# Median wall time of one `calibrate.py` run on the 2-vCPU Xeon host the
# benchmark was written on; scaled times are in seconds of that host.
CAL_REFERENCE_S = 0.45
WORK_DIR = ".perfbench-work"

END_TO_END = {
    "wall_s": "s",
    "records_per_s": "records/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Per-layer metrics in the result line; BENCHMARK.json lists the same names.
# Every wrapped function is printed in the table above it.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in ("cli", "ingest", "metrics", "report", "util")},
    **{f"{name}.self_s": "s" for name in (
        "ingest.parse_runs", "ingest.parse_labels", "ingest.parse_target_counts",
        "ingest.parse_sparql_results", "ingest.LabelCatalog.build",
        "ingest.LabelCatalog.merged", "ingest.counts_for_topic",
        "metrics.bias_at_n", "metrics.aggregate", "metrics.simulate_run",
        "report.build_report", "report.report_to_json", "report.parse_report",
        "report.rebuild_report", "report.report_to_csv_bundle", "report.emit_report",
        "util.atomic_write")},
    **{f"{name}.calls": "count" for name in (
        "ingest.counts_for_topic", "metrics.bias_at_n", "metrics.simulate_run",
        "metrics.aggregate", "util.atomic_write")},
    "ingest.input_lines": "count",
    "ingest.input_bytes": "B",
    "ingest.sparql_bindings": "count",
    "metrics.records": "count",
    "cli.skipped": "count",
    "report.output_bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
# Only set-up calls these; their metrics come from the traced `simulate`.
SETUP_FUNCTIONS = ("metrics.simulate_run",)


class SetupError(RuntimeError):
    """The program failed while preparing a workload's inputs."""


@dataclass
class Child:
    """One finished program run: wall time from fork to exit, and rusage."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str


class Launcher:
    """Runs the CLI in fresh child processes, one at a time.

    The children are started by `spawner.py`, a small process of their own,
    so that their peak RSS is not raised to the benchmark's (see there).
    Close the launcher, or use it in a `with` block, to stop the spawner.
    """

    def __init__(self, root: Path, work: Path, timeout_s: float) -> None:
        self.work = work
        self.timeout_s = timeout_s
        env = {**os.environ, "PYTHONPATH": str(root / "src"),
               # a fixed string hash keeps set and dict layouts, and so
               # timings, the same from one child to the next
               "PYTHONHASHSEED": "0"}
        env.pop("BIASLENS_SEED", None)
        self.spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True, env=env, cwd=work)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=self.timeout_s)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()
        self.spawner.stdout.close()

    def run(self, args: list[str], spans: Path | None = None) -> Child:
        """Run the CLI with ``args``; traced when ``spans`` names a file."""
        if spans is None:
            argv = [sys.executable, "-m", "biaslens.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), spans.stem,
                    "--", *args]
        return self.run_argv(argv)

    def run_argv(self, argv: list[str]) -> Child:
        err = self.work / "child.err"
        request = {"argv": argv, "stdout": str(self.work / "child.out"),
                   "stderr": str(err), "timeout_s": self.timeout_s}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError(f"the child spawner exited with {self.spawner.wait()}")
        done = json.loads(reply)
        return Child(done["code"], done["wall_s"], done["cpu_s"], done["maxrss_kb"] / 1024.0,
                     err.read_text(encoding="utf-8", errors="replace"))

    def calibrate(self) -> Child:
        """One run of the fixed calibration work, in a child like the CLI's."""
        child = self.run_argv([sys.executable, str(HERE / "calibrate.py")])
        if child.code != 0:
            raise SetupError(f"calibrate.py exited {child.code}: {child.stderr.strip()[-500:]}")
        return child


def _reference_speed(before: Child, after: Child) -> tuple[float, float]:
    """Factors that bring wall and CPU seconds of a run made between two
    calibration runs to the reference host speed."""
    return (2 * CAL_REFERENCE_S / (before.wall_s + after.wall_s),
            2 * CAL_REFERENCE_S / (before.cpu_s + after.cpu_s))


@dataclass
class Workload:
    """Paths and command lines of one workload in a work directory."""

    name: str
    corpus: corpus_mod.Corpus
    work: Path

    @property
    def inputs(self) -> Path:
        return self.work / "in"

    @property
    def out(self) -> Path:
        return self.work / "out"

    @property
    def fmt(self) -> str:
        return "csv" if self.name == "rereport" else "json"

    def simulate_args(self) -> list[str]:
        return ["simulate", str(self.inputs / "plan.tsv"), *SCHEME_FLAGS,
                "--seed", str(self.corpus.seed), "--out", str(self.inputs)]

    def evaluate_args(self, out: Path) -> list[str]:
        if self.name == "audit-sparql":
            target = ["--members", f"{corpus_mod.SOURCE}={self.inputs / 'export.json'}"]
        else:
            target = ["--target", f"{corpus_mod.SOURCE}={self.inputs / 'targets.tsv'}"]
        return ["evaluate", "--runs", str(self.inputs / "runs.tsv"),
                "--labels", str(self.inputs / "labels.tsv"), *target, *SCHEME_FLAGS,
                "--cutoff", str(self.corpus.cutoff), "--seed", str(self.corpus.seed),
                "--format", "json", "--out", str(out)]

    def setup_steps(self) -> list[tuple[list[str], list[Path]]]:
        """Program runs that prepare the inputs, with the files each writes."""
        steps = [(self.simulate_args(),
                  [self.inputs / n for n in ("runs.tsv", "labels.tsv", "targets.tsv")])]
        if self.name == "rereport":
            audit = self.inputs / "audit"
            steps.append((self.evaluate_args(audit), [audit / "report.json"]))
        return steps

    def invocation_args(self) -> list[str]:
        if self.name == "rereport":
            return ["report", str(self.inputs / "audit" / "report.json"), "--format", "csv",
                    "--table-size", "25", "--exemplar-grid", "20", "--out", str(self.out)]
        return self.evaluate_args(self.out)

    def input_files(self) -> list[Path]:
        if self.name == "rereport":
            return [self.inputs / "audit" / "report.json"]
        names = ["runs.tsv", "labels.tsv",
                 "export.json" if self.name == "audit-sparql" else "targets.tsv"]
        return [self.inputs / n for n in names]


@dataclass
class Result:
    workload: str
    info: dict
    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    functions: dict[str, dict[str, float]] = field(default_factory=dict)
    ratios: dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _file_stats(path: Path) -> tuple[int, int]:
    """(lines, bytes) of a file; reading it also leaves it in the page cache."""
    lines = size = 0
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            lines += chunk.count(b"\n")
            size += len(chunk)
    return lines, size


def _data_rows(path: Path) -> int:
    """Rows of a TSV input, not counting blanks, comments and a header line."""
    rows = 0
    header = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip() or line.startswith("#"):
                continue
            if header is None:
                header = line
                if line.split("\t", 1)[0].strip() == "entity_id":
                    continue
            rows += 1
    return rows


def _source_identity(root: Path) -> dict[str, str]:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def _highest_percentile(values: list[float]) -> str:
    """Highest percentile with at least ten samples above it, as 'pNN=value'."""
    n = len(values)
    if n < 20:
        return f"none (needs 20 samples, has {n})"
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p / 100 * n))
    return f"p{p}={sorted(values)[rank - 1]:.4f}"


def _prepare(load: Workload, launcher: Launcher, repeats: int,
             traced: bool) -> tuple[list[float], int, list[str], dict | None]:
    """Run set-up ``repeats`` times; returns (seconds per repeat at the
    reference host speed, program runs, problems, traced `simulate` document)."""
    load.inputs.mkdir(parents=True)
    load.corpus.write_plan(load.inputs / "plan.tsv")
    if load.corpus.members is not None:
        load.corpus.write_sparql_export(load.inputs / "export.json")
    seconds, problems, digests = [], [], {}
    runs = 0
    simulate_doc = None
    before = launcher.calibrate()
    for repeat in range(repeats):
        total = 0.0
        for step, (args, outputs) in enumerate(load.setup_steps()):
            spans = load.work / "setup-spans.json" if traced and step == 0 else None
            child = launcher.run(args, spans)
            runs += 1
            total += child.wall_s
            digest = gate.digest(outputs)
            if child.code != 0 or digest is None:
                raise SetupError(f"`biaslens {args[0]}` exited {child.code}: "
                                 f"{child.stderr.strip()[-2000:]}")
            if digests.setdefault(step, digest) != digest:
                problems.append(f"set-up `biaslens {args[0]}` wrote different files "
                                f"on repeat {repeat + 1}")
            if spans is not None:
                simulate_doc = json.loads(spans.read_text(encoding="utf-8"))
        after = launcher.calibrate()
        seconds.append(total * _reference_speed(before, after)[0])
        before = after
    return seconds, runs, problems, simulate_doc


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 size: str = "bench") -> Result:
    """Set up, warm, measure and gate one workload; returns its metrics."""
    corpus = corpus_mod.build_corpus(name, seed, size)
    work = root / WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with Launcher(root, work, CHILD_TIMEOUT_S[size]) as launcher:
            return _measure(root, Workload(name, corpus, work), launcher, seconds, trace, size)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass


def _measure(root: Path, load: Workload, launcher: Launcher, seconds: float, trace: bool,
             size: str) -> Result:
    setup_s, setup_runs, problems, simulate_doc = _prepare(
        load, launcher, 1 if trace else SETUP_REPEATS, trace)
    attempted, failed = setup_runs, len(problems)

    inputs = {}
    for path in load.input_files():  # untimed read: the page cache is warm
        inputs[path.name] = _file_stats(path)
    corpus = load.corpus
    records = len(corpus.expected_records())
    info = {
        "workload": load.name, "seed": corpus.seed, "size": size,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        **_source_identity(root),
        "topics": len(corpus.topics), "records": records,
        "sparql_bindings": corpus.bindings,
        "input_lines": {k: v[0] for k, v in inputs.items()},
        "input_bytes": {k: v[1] for k, v in inputs.items()},
        "page_cache": "warm: inputs are read once before timing; dropping the "
                      "cache needs privileges the benchmark does not use",
        "loop": "closed, one client, one child process at a time",
        "command": "biaslens " + " ".join(load.invocation_args()),
    }

    plain: list[Child] = []
    traced: list[tuple[Child, dict]] = []
    measured: list[Child] = []
    # (wall_s, cpu_s) at the reference speed, of `measured` and of `plain`
    scaled: list[tuple[float, float]] = []
    plain_scaled: list[tuple[float, float]] = []
    calibrations: list[Child] = [] if trace else [launcher.calibrate()]
    reference = None
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_INVOCATIONS or time.perf_counter() < deadline:
        spans = load.work / f"spans-{index}.json" if trace and index % 2 else None
        shutil.rmtree(load.out, ignore_errors=True)
        child = launcher.run(load.invocation_args(), spans)
        measured.append(child)
        if not trace:
            calibrations.append(launcher.calibrate())
            wall_k, cpu_k = _reference_speed(*calibrations[-2:])
            scaled.append((child.wall_s * wall_k, child.cpu_s * cpu_k))
        index += 1
        attempted += 1
        failure = None
        digest = gate.report_digest(load.out, load.fmt)
        if child.code != 0:
            failure = f"exit {child.code}: {child.stderr.strip()[-500:]}"
        elif digest is None:
            failure = "report file missing"
        elif reference is None:
            found = gate.check_report(load.out, load.fmt, corpus)
            if found:
                failure = "; ".join(found)
            else:
                reference = digest
        elif digest != reference:
            failure = "output differs from the checked output of an earlier invocation"
        if failure is not None:
            failed += 1
            if len(problems) < gate.MAX_PROBLEMS:
                problems.append(f"invocation {index}: {failure}")
            continue
        if spans is None:
            plain.append(child)
            if not trace:
                plain_scaled.append(scaled[-1])
        else:
            doc = json.loads(spans.read_text(encoding="utf-8"))
            doc["output_bytes"] = sum(p.stat().st_size for p in load.out.iterdir())
            traced.append((child, doc))

    result = Result(load.name, info, {}, {}, attempted, failed, problems)
    if not trace:
        # Failed invocations are left out of the timings, unless all failed.
        timed, timed_scaled = (plain, plain_scaled) if plain else (measured, scaled)
        walls = [w for w, _ in timed_scaled]
        info["invocations"] = len(timed)
        info["wall_s_tail"] = _highest_percentile(walls)
        info["raw_wall_s"] = statistics.median(c.wall_s for c in timed)
        info["raw_cpu_s"] = statistics.median(c.cpu_s for c in timed)
        info["calibration_s"] = statistics.median(c.wall_s for c in calibrations)
        wall = statistics.median(walls)
        result.metrics = {
            "wall_s": wall,
            "records_per_s": records / wall,
            "cpu_s": statistics.median(c for _, c in timed_scaled),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in timed),
            "setup_s": statistics.median(setup_s),
        }
        result.units = dict(END_TO_END)
    else:
        _per_layer(result, plain, traced, simulate_doc)
    result.ratios["fail_ratio"] = failed / attempted
    return result


def _median(values: list) -> float:
    """Median; a count stays a count that was observed."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _per_layer(result: Result, plain: list[Child], traced: list[tuple[Child, dict]],
               simulate_doc: dict | None) -> None:
    """Medians over the traced invocations of every per-layer quantity."""
    samples: dict[str, list[float]] = defaultdict(list)
    functions: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    file_stats: dict[str, tuple[int, int]] = {}
    for child, doc in traced:
        summary = tracer.summarize(doc)
        for layer, self_s in summary["layers"].items():
            samples[f"{layer}.self_s"].append(self_s)
        for name, entry in summary["functions"].items():
            if name not in SETUP_FUNCTIONS:
                for key, value in entry.items():
                    functions[name][key].append(value)
        for path in doc["inputs"]:
            if path not in file_stats:
                file_stats[path] = _file_stats(Path(path))
        samples["ingest.input_lines"].append(sum(file_stats[p][0] for p in doc["inputs"]))
        samples["ingest.input_bytes"].append(sum(file_stats[p][1] for p in doc["inputs"]))
        samples["ingest.sparql_bindings"].append(doc["sparql_label_rows"])
        samples["report.output_bytes"].append(doc["output_bytes"])
        if doc["report_records"] is not None:
            samples["metrics.records"].append(doc["report_records"])
            samples["cli.skipped"].append(doc["report_skipped"])
        label_rows = doc["sparql_label_rows"] + sum(
            _data_rows(Path(p)) for p, fn in doc["inputs"].items()
            if fn == "ingest.parse_labels")
        if label_rows and doc["catalog_size"] is not None:
            samples["ingest.label_rows_kept_ratio"].append(doc["catalog_size"] / label_rows)
        samples["trace.wall_s"].append(child.wall_s)
    if simulate_doc is not None:
        setup_functions = tracer.summarize(simulate_doc)["functions"]
        for name in SETUP_FUNCTIONS:
            for key, value in setup_functions.get(name, {}).items():
                functions[name][key].append(value)
    if traced and plain:
        samples["trace.overhead_s"].append(
            statistics.median(c.wall_s for c, _ in traced)
            - statistics.median(c.wall_s for c in plain))

    result.functions = {name: {key: _median(v) for key, v in keys.items()}
                        for name, keys in functions.items()}
    medians = {name: _median(v) for name, v in samples.items()}
    for name, entry in result.functions.items():
        medians.update({f"{name}.{key}": value for key, value in entry.items()})
    result.info["traced_invocations"] = len(traced)
    result.info["plain_invocations"] = len(plain)
    if plain:
        result.info["plain_wall_s"] = statistics.median(c.wall_s for c in plain)
    result.metrics = {name: medians[name] for name in PER_LAYER if name in medians}
    result.units = {name: PER_LAYER[name] for name in result.metrics}
    result.missing = [name for name in PER_LAYER if name not in medians]
    if "ingest.label_rows_kept_ratio" in medians:
        result.ratios["ingest.label_rows_kept_ratio"] = medians["ingest.label_rows_kept_ratio"]


def _print_result(result: Result) -> None:
    info = result.info
    print(f"== {result.workload}: seed {info['seed']}, size {info['size']}, "
          f"python {info['python']}, nproc {info['nproc']}, commit {info['commit']}, "
          f"source {info['source_sha256']}")
    print(f"   corpus: {info['topics']} topics, {info['records']} records, "
          f"{info['sparql_bindings']} SPARQL bindings; input lines {info['input_lines']}, "
          f"bytes {info['input_bytes']}")
    print(f"   command: {info['command']}")
    print(f"   page cache: {info['page_cache']}")
    print(f"   loop: {info['loop']}")
    for name, value in result.metrics.items():
        print(f"   {name:<36} {value:>14.6g} {result.units[name]}")
    for name, value in result.ratios.items():
        print(f"   {name:<36} {value:>14.6g} ratio")
    print(f"   failed {result.failed} of {result.attempted} program runs "
          f"(set-up and measured)")
    if "invocations" in info:
        print(f"   wall_s: median of {info['invocations']} invocations, "
              f"tail {info['wall_s_tail']}")
        print(f"   times above are at the reference host speed "
              f"(calibrate.py = {CAL_REFERENCE_S} s); as measured here: wall_s "
              f"{info['raw_wall_s']:.4f} s, cpu_s {info['raw_cpu_s']:.4f} s, "
              f"calibrate.py {info['calibration_s']:.4f} s")
    else:
        print(f"   traced invocations {info['traced_invocations']}, "
              f"plain {info['plain_invocations']}")
        print(f"   {'function':<36} {'calls':>8} {'self_s':>10} {'total_s':>10}")
        for name, entry in sorted(result.functions.items()):
            print(f"   {name:<36} {entry['calls']:>8.0f} {entry['self_s']:>10.4f} "
                  f"{entry['total_s']:>10.4f}")
        if result.missing:
            print(f"   missing at this commit: {', '.join(result.missing)}")
    for problem in result.problems:
        print(f"   FAILED {problem}")


def result_line(results: list[Result]) -> dict:
    """The contract's last line; with several workloads, names are prefixed."""
    prefix = len(results) > 1
    metrics = {}
    for r in results:
        for name, value in r.metrics.items():
            key = f"{r.workload}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": r.units[name]}
    return {"correct": all(r.correct for r in results),
            "attempted": sum(r.attempted for r in results),
            "failed": sum(r.failed for r in results),
            "metrics": metrics}


def main(argv: list[str] | None = None, root: Path | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per workload, after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=corpus_mod.SIZES, default="bench",
                        help="corpus size: bench (default), smoke (for tests), or full "
                             "(the ROADMAP reference corpus)")
    args = parser.parse_args(argv)
    root = (root or Path.cwd()).resolve()
    if not (root / "src" / "biaslens" / "__init__.py").is_file():
        print(f"error: no biaslens sources under {root / 'src'}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = run_workload(root, name, args.seed, args.seconds, bool(args.trace),
                                  args.size)
            _print_result(result)
            results.append(result)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result_line(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
