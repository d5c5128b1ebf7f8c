"""Smoke tests of the benchmark itself, on corpora that run in seconds."""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
from biaslens import ideal_target_ratio_at_n, parse_report, report_to_json  # noqa: E402

COUNT_METRICS = [name for name, unit in run.PER_LAYER.items() if unit in ("count", "B")]


def _result_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_attainable_agrees_with_library_rounding():
    for m in range(1, 13):
        for total in range(1, 25):
            for count in range(total + 1):
                for shown in range(m + 1):
                    ideal, _ = ideal_target_ratio_at_n(Fraction(count, total),
                                                       Fraction(shown, m), m)
                    assert Fraction(corpus.attainable(count, total, m, shown), m) == ideal


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corpus_is_a_function_of_the_seed(workload):
    first = corpus.build_corpus(workload, 7, "smoke")
    assert first == corpus.build_corpus(workload, 7, "smoke")
    assert first != corpus.build_corpus(workload, 8, "smoke")
    for topic in first.topics:
        assert topic.expected_biases()[corpus.VALUES[0]] == Fraction(topic.bias, topic.window)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_every_end_to_end_metric_once_per_workload(capsys):
    assert run.main(["--workload", "all", "--seed", "3", "--seconds", "0",
                     "--size", "smoke"], root=ROOT) == 0
    line = _result_line(capsys)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    expected = {f"{w}.{name}": unit for w in run.WORKLOADS
                for name, unit in run.END_TO_END.items()}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_traced_counts_repeat_and_layers_separate(capsys):
    lines = []
    for _ in range(2):
        assert run.main(["--workload", "all", "--seed", "5", "--seconds", "0",
                         "--size", "smoke", "--trace", "1"], root=ROOT) == 0
        lines.append(_result_line(capsys))
    first, second = (line["metrics"] for line in lines)
    assert all(line["correct"] for line in lines)
    for w in run.WORKLOADS:
        for name in COUNT_METRICS:
            assert first[f"{w}.{name}"] == second[f"{w}.{name}"], (w, name)
    assert first["rereport.metrics.bias_at_n.calls"]["value"] == 0
    assert first["rereport.ingest.self_s"]["value"] == 0
    assert first["rereport.metrics.records"]["value"] == 2 * corpus.TOPICS["rereport"]["smoke"]
    assert first["audit-sparql.ingest.sparql_bindings"]["value"] == \
        corpus.build_corpus("audit-sparql", 5, "smoke").bindings


def _invoke(workload: str, work: Path) -> run.Workload:
    load = run.Workload(workload, corpus.build_corpus(workload, 11, "smoke"), work)
    with run.Launcher(ROOT, work, 60.0) as launcher:
        run._prepare(load, launcher, 1, False)
        assert launcher.run(load.invocation_args()).code == 0
    assert gate.check_report(load.out, load.fmt, load.corpus) == []
    return load


def test_gate_rejects_an_altered_json_bias(tmp_path):
    load = _invoke("audit-kb", tmp_path)
    path = load.out / "report.json"
    report = parse_report(path.read_text(encoding="utf-8"))
    index, item = next((i, e) for i, e in enumerate(report.records)
                       if e.record.model_ratio < 1 and e.record.bias < 1)
    step = Fraction(1, item.record.cutoff_effective)
    record = dataclasses.replace(item.record, model_ratio=item.record.model_ratio + step,
                                 bias=item.record.bias + step)
    records = list(report.records)
    records[index] = dataclasses.replace(item, record=record)
    path.write_text(report_to_json(dataclasses.replace(report, records=tuple(records))),
                    encoding="utf-8")
    problems = gate.check_report(load.out, "json", load.corpus)
    assert problems and record.topic_id in problems[0]


def test_gate_rejects_an_altered_csv_bias(tmp_path):
    load = _invoke("rereport", tmp_path)
    path = load.out / "records.csv"
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        fields, rows = reader.fieldnames, list(reader)
    rows[0]["bias"] = str(Fraction(rows[0]["bias"]) + Fraction(1, int(rows[0]["cutoff_effective"])))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    problems = gate.check_report(load.out, "csv", load.corpus)
    assert problems and rows[0]["topic_id"] in problems[0]


def test_child_peak_rss_excludes_the_benchmarks_own(tmp_path):
    ballast = bytearray(200 << 20)
    ballast[::4096] = b"\x01" * (len(ballast) // 4096)
    with run.Launcher(ROOT, tmp_path, 60.0) as launcher:
        child = launcher.run(["--help"])
    assert child.code == 0 and child.peak_rss_mb < 100


def test_refuses_to_run_without_the_sources(tmp_path, capsys):
    assert run.main(["--workload", "audit-kb", "--seed", "1", "--seconds", "1"],
                    root=tmp_path) != 0
    assert capsys.readouterr().out == ""


def test_times_are_scaled_by_the_bracketing_calibrations(tmp_path):
    def child(wall_s, cpu_s):
        return run.Child(0, wall_s, cpu_s, 1.0, "")
    reference = run.CAL_REFERENCE_S
    assert run._reference_speed(child(reference, reference), child(reference, reference)) \
        == pytest.approx((1.0, 1.0))
    # a host moment at half speed doubles the calibration time and halves the factor
    assert run._reference_speed(child(reference, reference), child(3 * reference, reference)) \
        == pytest.approx((0.5, 1.0))
    with run.Launcher(ROOT, tmp_path, 60.0) as launcher:
        calibration = launcher.calibrate()
    assert calibration.code == 0 and calibration.wall_s > 0 and calibration.cpu_s > 0
