from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import stat
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from biaslens import ParseError, cli, parse_report

F = Fraction


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_corpus(tmp_path):
    """Two-topic corpus with two target sources shaped like a real audit."""
    runs = []
    labels = []
    # announcer: zero female entities shown in the top 10
    for i in range(10):
        runs.append(f"announcer\t{i + 1}\tann:e{i}")
        labels.append(f"ann:e{i}\tgender\tmale\tkb")
    # archivist: nine female entities shown in the top 10
    for i in range(10):
        runs.append(f"archivist\t{i + 1}\tarc:e{i}")
        value = "female" if i < 9 else "male"
        labels.append(f"arc:e{i}\tgender\t{value}\tkb")
    write(tmp_path / "runs.tsv", "\n".join(runs) + "\n")
    write(tmp_path / "labels.tsv", "\n".join(labels) + "\n")
    write(tmp_path / "targets_kb.tsv",
          "announcer\tgender\tfemale\t5\n"
          "announcer\tgender\tmale\t5\n"
          "archivist\tgender\tfemale\t1\n"
          "archivist\tgender\tmale\t9\n")
    write(tmp_path / "targets_full.tsv",
          "announcer\tgender\tfemale\t52\n"
          "announcer\tgender\tmale\t48\n"
          "archivist\tgender\tfemale\t4\n"
          "archivist\tgender\tmale\t6\n")
    return tmp_path


@pytest.fixture
def audit_dir(tmp_path):
    return write_corpus(tmp_path)


def evaluate_args(audit_dir, out, extra=()):
    return ["evaluate",
            "--runs", str(audit_dir / "runs.tsv"),
            "--labels", str(audit_dir / "labels.tsv"),
            "--target", f"kb={audit_dir / 'targets_kb.tsv'}",
            "--target", f"full-results={audit_dir / 'targets_full.tsv'}",
            "--feature", "gender", "--values", "female,male",
            "--out", str(out), *extra]


def test_evaluate_two_sources(audit_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(evaluate_args(audit_dir, out)) == 0
    report = parse_report((out / "report.json").read_text(encoding="utf-8"))
    # One summary block per (source, value), like a two-population audit table.
    keys = [(b.source, b.feature_value) for b in report.blocks]
    assert keys == [("full-results", "female"), ("full-results", "male"),
                    ("kb", "female"), ("kb", "male")]
    kb_female = report.blocks[2].summary
    assert kb_female.mean_bias == (F(-5, 10) + F(8, 10)) / 2
    stdout = capsys.readouterr().out
    assert "kb/female" in stdout
    assert "wrote" in stdout


def test_evaluate_records_have_populations(audit_dir, tmp_path):
    out = tmp_path / "out"
    cli.main(evaluate_args(audit_dir, out))
    payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
    populations = {(r["source"], r["topic"]): r["target_population"]
                   for r in payload["records"]}
    assert populations[("kb", "announcer")] == 10
    assert populations[("full-results", "announcer")] == 100


def test_evaluate_csv_format(audit_dir, tmp_path):
    out = tmp_path / "out"
    assert cli.main(evaluate_args(audit_dir, out, ("--format", "csv"))) == 0
    for name in ("summaries.csv", "records.csv", "histogram.csv", "scatter.csv",
                 "table_towards.csv", "table_against.csv", "table_unbiased.csv"):
        assert (out / name).exists()
    assert not (out / "report.json").exists()


CSV_NAMES = ["histogram.csv", "records.csv", "scatter.csv", "summaries.csv",
             "table_against.csv", "table_towards.csv", "table_unbiased.csv"]


@pytest.mark.parametrize("first, then, left", [
    ("csv", "json", ["report.json"]), ("json", "csv", CSV_NAMES),
], ids=["csv-then-json", "json-then-csv"])
def test_a_run_into_an_old_out_leaves_only_its_own_report(audit_dir, tmp_path, first,
                                                          then, left):
    """The report files of the earlier run's format are removed; a file of
    another name in ``--out`` is kept as it was."""
    out = tmp_path / "out"
    out.mkdir()
    write(out / "notes.txt", "mine")
    write(out / "report.csv", "mine too")
    assert cli.main(evaluate_args(audit_dir, out, ("--format", first))) == 0
    assert cli.main(evaluate_args(audit_dir, out, ("--format", then))) == 0
    assert sorted(os.listdir(out)) == sorted([*left, "notes.txt", "report.csv"])
    assert (out / "notes.txt").read_text(encoding="utf-8") == "mine"
    assert (out / "report.csv").read_text(encoding="utf-8") == "mine too"


def test_evaluate_missing_target_topic_skipped(audit_dir, tmp_path):
    write(audit_dir / "targets_kb.tsv",
          "announcer\tgender\tfemale\t5\nannouncer\tgender\tmale\t5\n"
          "phantom\tgender\tfemale\t1\nphantom\tgender\tmale\t1\n")
    out = tmp_path / "out"
    assert cli.main(evaluate_args(audit_dir, out)) == 0
    report = parse_report((out / "report.json").read_text(encoding="utf-8"))
    reasons = {(s.source, s.topic_id): s.reason for s in report.skipped}
    assert reasons[("kb", "archivist")] == "missing-target"
    assert reasons[("kb", "phantom")] == "missing-run"


def test_evaluate_zero_joinable_topics(audit_dir, tmp_path, capsys):
    write(audit_dir / "targets_kb.tsv",
          "phantom\tgender\tfemale\t1\nphantom\tgender\tmale\t1\n")
    write(audit_dir / "targets_full.tsv",
          "phantom\tgender\tfemale\t1\nphantom\tgender\tmale\t1\n")
    out = tmp_path / "out"
    assert cli.main(evaluate_args(audit_dir, out)) == 1
    assert "zero joinable" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_evaluate_strict_violation_exits_2(audit_dir, tmp_path, capsys):
    with open(audit_dir / "runs.tsv", "a", encoding="utf-8") as handle:
        handle.write("announcer\t11\tann:mystery\n")
    out = tmp_path / "out"
    # Unlabeled entity is outside the top-10 window: strict mode still passes.
    assert cli.main(evaluate_args(audit_dir, out, ("--strict",))) == 0
    # At cutoff 11 it enters the window and trips strict mode.
    code = cli.main(evaluate_args(audit_dir, out, ("--strict", "--cutoff", "11")))
    assert code == 2
    assert "strict" in capsys.readouterr().err


@pytest.mark.parametrize("cutoff", ["11", "100000000000000000000"])
def test_evaluate_cutoff_above_the_longest_run_exits_1(audit_dir, tmp_path, capsys, cutoff):
    out = tmp_path / "out"
    assert cli.main(evaluate_args(audit_dir, out, ("--cutoff", cutoff))) == 1
    assert capsys.readouterr().err == (f"error: {audit_dir / 'runs.tsv'}: cutoff {cutoff} "
                                       "exceeds the longest ranked run (10 entries)\n")
    assert not out.exists()


def test_evaluate_parse_error_names_file_and_line(audit_dir, tmp_path, capsys):
    write(audit_dir / "runs.tsv", "announcer\t1\te1\nannouncer\t3\te3\n")
    code = cli.main(evaluate_args(audit_dir, tmp_path / "out"))
    assert code == 1
    err = capsys.readouterr().err
    assert "runs.tsv:2" in err


def test_evaluate_runs_that_are_not_utf8_exit_1(audit_dir, tmp_path, capsys):
    runs = audit_dir / "runs.tsv"
    runs.write_bytes(runs.read_bytes() + b"archivist\t11\tarc:\xff\n")
    out = tmp_path / "out"
    assert cli.main(evaluate_args(audit_dir, out)) == 1
    assert f"error: {runs}:21: not UTF-8 text" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_evaluate_runs_with_no_rows_exits_1(audit_dir, tmp_path, capsys):
    runs = write(audit_dir / "runs.tsv", "# no runs yet\n")
    assert cli.main(evaluate_args(audit_dir, tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: {runs}: no runs found\n"


@pytest.mark.parametrize("text, error", [
    ("t1\tgender\tfemale\tx\n", "1: count 'x' is not an integer (field: count)"),
    ("t1\tgender\tunknown\t1\nt1\tgender\tfemale\t1\nt1\tgender\tunknown\t2\n",
     "3: topic 't1' repeats its unknown row (field: value)"),
], ids=["count", "unknown"])
def test_evaluate_targets_row_error_is_located(audit_dir, tmp_path, capsys, text, error):
    targets = write(audit_dir / "targets_kb.tsv", text)
    assert cli.main(evaluate_args(audit_dir, tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: {targets}:{error}\n"


def test_a_seed_env_that_is_not_an_integer_exits_1(audit_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BIASLENS_SEED", "abc")
    assert cli.main(evaluate_args(audit_dir, tmp_path / "out")) == 1
    assert capsys.readouterr().err == "error: BIASLENS_SEED must be an integer, got 'abc'\n"



@pytest.mark.parametrize("drop, message", [
    (("--runs",), "evaluate needs --runs and --labels (or config keys)"),
    (("--labels",), "evaluate needs --runs and --labels (or config keys)"),
    (("--target",), "evaluate needs at least one target source "
                    "(--target/--members LABEL=FILE)"),
], ids=["no-runs", "no-labels", "no-target-source"])
def test_evaluate_without_a_required_input_exits_1(audit_dir, tmp_path, capsys, drop, message):
    args = evaluate_args(audit_dir, tmp_path / "out")
    kept = [arg for i, arg in enumerate(args)
            if arg not in drop and (i == 0 or args[i - 1] not in drop)]
    assert cli.main(kept) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()

def test_evaluate_members_source(audit_dir, tmp_path):
    members = ["announcer\tann:e%d" % i for i in range(10)]
    members += ["archivist\tarc:e%d" % i for i in range(10)]
    write(audit_dir / "members.tsv", "\n".join(members) + "\n")
    out = tmp_path / "out"
    args = ["evaluate",
            "--runs", str(audit_dir / "runs.tsv"),
            "--labels", str(audit_dir / "labels.tsv"),
            "--members", f"panel={audit_dir / 'members.tsv'}",
            "--feature", "gender", "--values", "female,male",
            "--out", str(out)]
    assert cli.main(args) == 0
    report = parse_report((out / "report.json").read_text(encoding="utf-8"))
    block = next(b for b in report.blocks
                 if (b.source, b.feature_value) == ("panel", "female"))
    # Membership equals the shown window here, so both topics come out bias-free.
    assert block.summary.mean_bias == 0


def test_evaluate_sparql_members_source(audit_dir, tmp_path):
    bindings = []
    for i in range(10):
        bindings.append({
            "topic": {"type": "literal", "value": "announcer"},
            "entity": {"type": "uri", "value": f"http://x/ann:e{i}"},
            "value": {"type": "literal", "value": "male"},
        })
    export = {"head": {"vars": ["topic", "entity", "value"]},
              "results": {"bindings": bindings}}
    write(audit_dir / "kb.json", json.dumps(export))
    out = tmp_path / "out"
    args = ["evaluate",
            "--runs", str(audit_dir / "runs.tsv"),
            "--labels", str(audit_dir / "labels.tsv"),
            "--members", f"wiki={audit_dir / 'kb.json'}",
            "--feature", "gender", "--values", "female,male",
            "--out", str(out)]
    assert cli.main(args) == 0
    report = parse_report((out / "report.json").read_text(encoding="utf-8"))
    assert [b.source for b in report.blocks] == ["wiki", "wiki"]
    reasons = {s.topic_id: s.reason for s in report.skipped}
    assert reasons.get("archivist") == "missing-target"


def test_a_sparql_export_reads_the_same_in_either_member_order(audit_dir, tmp_path,
                                                               capsys):
    """An export written results first evaluates to the bytes and the summary
    of the same export written head first."""
    bindings = [{"topic": {"type": "literal", "value": topic},
                 "entity": {"type": "uri", "value": f"http://x/{prefix}:e{i}"},
                 "value": {"type": "literal", "value": ("female", "male")[i % 3 == 0]}}
                for topic, prefix in (("announcer", "ann"), ("archivist", "arc"))
                for i in range(12)]
    members = [("head", {"vars": ["topic", "entity", "value"]}),
               ("results", {"bindings": bindings})]
    out, outcomes = tmp_path / "out", []
    for order in ("head-first", "results-first"):
        export = write(audit_dir / "kb.json", json.dumps(
            dict(members if order == "head-first" else members[::-1]), indent=1))
        code = cli.main(["evaluate",
                         "--runs", str(audit_dir / "runs.tsv"),
                         "--labels", str(audit_dir / "labels.tsv"),
                         "--members", f"wiki={export}",
                         "--feature", "gender", "--values", "female,male",
                         "--out", str(out)])
        written = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        shutil.rmtree(out)
        outcomes.append((code, capsys.readouterr(), written))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0 and outcomes[0][2]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_lone_surrogate_topic_in_a_sparql_export_is_a_located_error(audit_dir, tmp_path,
                                                                    capsys, fmt):
    bindings = [{
        "topic": {"type": "literal", "value": "announcer" if i else "t\ud800"},
        "entity": {"type": "uri", "value": f"http://x/ann:e{i}"},
        "value": {"type": "literal", "value": "male"},
    } for i in range(10)]
    export = {"head": {"vars": ["topic", "entity", "value"]},
              "results": {"bindings": bindings}}
    write(audit_dir / "kb.json", json.dumps(export))
    out = tmp_path / "out"
    args = ["evaluate",
            "--runs", str(audit_dir / "runs.tsv"),
            "--labels", str(audit_dir / "labels.tsv"),
            "--members", f"wiki={audit_dir / 'kb.json'}",
            "--feature", "gender", "--values", "female,male",
            "--format", fmt, "--out", str(out)]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == (f"error: {audit_dir / 'kb.json'}:1: binding 1: "
                                       "'topic' holds a lone surrogate (field: topic)\n")
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("bad_first", [False, True], ids=["syntax-first", "bad-byte-first"])
def test_a_sparql_export_reports_the_error_its_read_meets_first(audit_dir, tmp_path,
                                                                capsys, bad_first):
    """A JSON export is read in pieces, as the TSV readers read, so of a
    syntax error and a byte that is not UTF-8 the one reported comes first."""
    binding = json.dumps({"topic": {"type": "literal", "value": "announcer"},
                          "entity": {"type": "uri", "value": "http://x/ann:e0"}}).encode()
    bad = binding.replace(b"ann:e0", b"ann:\xff")
    unbroken = b",\n".join([binding] * 5000)  # about 500 KB
    broken = binding + b"\n" + binding  # a missing comma
    bindings = [bad, broken, unbroken] if bad_first else [broken, unbroken, bad]
    path = audit_dir / "kb.json"
    path.write_bytes(b'{"head": {"vars": ["topic", "entity"]}, "results": {"bindings": [\n'
                     + b",\n".join(bindings) + b"]}}")
    out = tmp_path / "out"
    args = ["evaluate",
            "--runs", str(audit_dir / "runs.tsv"),
            "--labels", str(audit_dir / "labels.tsv"),
            "--members", f"wiki={path}",
            "--feature", "gender", "--values", "female,male",
            "--out", str(out)]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:2: not UTF-8 text: invalid start byte\n" if bad_first else
        f"error: {path}:3: invalid JSON: Expecting ',' delimiter\n")
    assert not out.exists()


# On POSIX, Python decodes argv bytes that are not UTF-8 to lone surrogates.
NOT_UTF8 = os.fsdecode(b"m\xffale")


@pytest.mark.parametrize("extra", [
    ("--values", f"female,{NOT_UTF8}"), ("--feature", NOT_UTF8),
    ("--unknown-token", NOT_UTF8), ("--members", f"{NOT_UTF8}=members.tsv"),
])
def test_an_argument_that_is_not_utf8_exits_1(audit_dir, tmp_path, capsys, extra):
    out = tmp_path / "out"
    assert cli.main(evaluate_args(audit_dir, out, extra)) == 1
    assert capsys.readouterr().err == f"error: argument {NOT_UTF8!r} holds a lone surrogate\n"
    assert not out.exists()


def test_sparql_values_outside_the_scheme_are_counted(audit_dir, tmp_path, capsys):
    bindings = [{
        "topic": {"type": "literal", "value": "announcer"},
        "entity": {"type": "uri", "value": f"http://x/ann:e{i}"},
        "value": {"type": "literal", "value": "Q6581097" if i == 0 else "male"},
    } for i in range(10)]
    export = {"head": {"vars": ["topic", "entity", "value"]},
              "results": {"bindings": bindings}}
    write(audit_dir / "kb.json", json.dumps(export))
    args = ["evaluate",
            "--runs", str(audit_dir / "runs.tsv"),
            "--labels", str(audit_dir / "labels.tsv"),
            "--members", f"wiki={audit_dir / 'kb.json'}",
            "--feature", "gender", "--values", "female,male",
            "--out", str(tmp_path / "out")]
    assert cli.main(args) == 0
    out = capsys.readouterr().out
    assert "dropped 1 SPARQL label rows with values outside the scheme" in out
    # ann:e0 keeps its label from labels.tsv; the dropped row changes nothing else.
    report = parse_report((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert {e.target_population for e in report.records} == {10}
    assert cli.main(evaluate_args(audit_dir, tmp_path / "plain")) == 0
    assert "dropped" not in capsys.readouterr().out


def test_simulate_then_evaluate_round_trip(tmp_path):
    plan = write(tmp_path / "plan.tsv",
                 "topic_id\ttarget_ratio\tbias\tlength\tpopulation\n"
                 "alpha\t1/2\t-1/10\t10\t100\n"
                 "beta\t3/10\t0\t10\t50\n"
                 "gamma\t0.5\t2/10\t10\t\n")
    fixtures = tmp_path / "fixtures"
    args = ["simulate", plan, "--feature", "gender", "--values", "female,male",
            "--out", str(fixtures), "--seed", "5"]
    assert cli.main(args) == 0
    for name in ("runs.tsv", "labels.tsv", "targets.tsv"):
        assert (fixtures / name).exists()

    out = tmp_path / "out"
    evaluate = ["evaluate",
                "--runs", str(fixtures / "runs.tsv"),
                "--labels", str(fixtures / "labels.tsv"),
                "--target", f"sim={fixtures / 'targets.tsv'}",
                "--feature", "gender", "--values", "female,male",
                "--out", str(out)]
    assert cli.main(evaluate) == 0
    report = parse_report((out / "report.json").read_text(encoding="utf-8"))
    biases = {e.record.topic_id: e.record.bias for e in report.records
              if e.record.feature_value == "female"}
    assert biases == {"alpha": F(-1, 10), "beta": F(0), "gamma": F(2, 10)}


def test_simulate_infeasible_rows_reported(tmp_path, capsys):
    plan = write(tmp_path / "plan.tsv",
                 "good\t1/2\t0\t10\n"
                 "bad-grid\t1/2\t1/3\t10\n"
                 "bad-range\t1\t1/10\t10\n")
    out = tmp_path / "fixtures"
    args = ["simulate", plan, "--feature", "gender", "--values", "female,male",
            "--out", str(out)]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert "plan.tsv:2" in err
    assert "plan.tsv:3" in err
    assert not (out / "runs.tsv").exists()


def test_simulate_plan_row_of_the_wrong_width_is_located(tmp_path, capsys):
    plan = write(tmp_path / "plan.tsv", "good\t1/2\t0\t10\nshort\t1/2\t0\n")
    args = ["simulate", plan, "--feature", "gender", "--values", "female,male",
            "--out", str(tmp_path / "fixtures")]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == (
        f"error: {plan}:2: expected 4 or 5 tab-separated fields, got 3\n")
    assert not (tmp_path / "fixtures").exists()


def test_simulate_plan_length_above_the_row_limit_is_located(tmp_path, capsys):
    plan = write(tmp_path / "plan.tsv", "good\t1/2\t0\t10\n"
                 f"long\t1/2\t0\t{cli.MAX_PLAN_LENGTH + 1}\nhuge\t1/2\t0\t{10**18}\n")
    args = ["simulate", plan, "--feature", "gender", "--values", "female,male",
            "--out", str(tmp_path / "fixtures")]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == (
        f"error: {plan}:2: length 100001 exceeds the per-row limit of 100000\n"
        f"error: {plan}:3: length {10**18} exceeds the per-row limit of 100000\n")
    assert not (tmp_path / "fixtures").exists()


def _no_simulation(*args, **kwargs):
    raise AssertionError("a plan row was simulated")


def test_simulate_plan_total_above_the_limit_is_located(tmp_path, capsys, monkeypatch):
    # The plan is checked whole before any row is simulated, so this text,
    # which asks for about 2.2 million entities, builds none of them.
    rows = cli.MAX_PLAN_TOTAL // cli.MAX_PLAN_LENGTH
    plan = write(tmp_path / "plan.tsv", "".join(
        f"t{i}\t1/2\t0\t{cli.MAX_PLAN_LENGTH}\n" for i in range(rows + 2)))
    monkeypatch.setattr(cli, "simulate_run", _no_simulation)
    args = ["simulate", plan, "--feature", "gender", "--values", "female,male",
            "--out", str(tmp_path / "fixtures")]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == (
        f"error: {plan}:{rows + 1}: total length 2100000 exceeds the plan limit "
        f"of 2000000\n")
    assert not (tmp_path / "fixtures").exists()
    assert cli.main(["simulate", "--help"]) == 0
    assert "2,000,000 in all" in " ".join(capsys.readouterr().out.split())


def test_simulate_plan_total_at_the_limit_is_simulated(tmp_path, capsys, monkeypatch):
    simulated = []

    def infeasible(topic_id, *args, **kwargs):
        simulated.append(topic_id)
        raise cli.InfeasibleSimulationError(f"topic {topic_id!r}: stub")

    rows = cli.MAX_PLAN_TOTAL // cli.MAX_PLAN_LENGTH
    plan = write(tmp_path / "plan.tsv", "".join(
        f"t{i}\t1/2\t0\t{cli.MAX_PLAN_LENGTH}\n" for i in range(rows)) + "short\t1/2\t0\t-5\n")
    monkeypatch.setattr(cli, "simulate_run", infeasible)
    args = ["simulate", plan, "--feature", "gender", "--values", "female,male",
            "--out", str(tmp_path / "fixtures")]
    assert cli.main(args) == 1
    assert simulated == [f"t{i}" for i in range(rows)] + ["short"]
    assert "exceeds" not in capsys.readouterr().err


def test_simulate_plan_with_a_bad_row_simulates_none(tmp_path, capsys, monkeypatch):
    plan = write(tmp_path / "plan.tsv", "good\t1/2\t0\t10\nbad\tx\t0\t10\n")
    monkeypatch.setattr(cli, "simulate_run", _no_simulation)
    args = ["simulate", plan, "--feature", "gender", "--values", "female,male",
            "--out", str(tmp_path / "fixtures")]
    assert cli.main(args) == 1
    assert capsys.readouterr().err.startswith(f"error: {plan}:2: unparseable row: ")


# Simulated, a repeated topic would append a second ranked run for it, which
# evaluate rejects in runs.tsv, and a blank one would end in an error that
# names no line.
@pytest.mark.parametrize("text, errors", [
    ("t1\t1/2\t0\t4\nt1\t1/2\t0\t4\nt2\t1/2\t0\t4\n",
     ["2: topic 't1' is repeated (first on line 1)"]),
    (" \t1/2\t0\t4\nt2\t1/2\t0\t4\n\t1/2\t0\t4\n", ["1: empty topic_id", "3: empty topic_id"]),
], ids=["repeated", "empty"])
def test_simulate_plan_topic_is_located(tmp_path, capsys, text, errors):
    plan = write(tmp_path / "plan.tsv", text)
    args = ["simulate", plan, "--feature", "gender", "--values", "female,male",
            "--out", str(tmp_path / "fixtures")]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == "".join(f"error: {plan}:{e}\n" for e in errors)
    assert not (tmp_path / "fixtures").exists()


def test_simulate_plan_with_no_rows_exits_1(tmp_path, capsys):
    plan = write(tmp_path / "empty.tsv", "# nothing planned\n")
    args = ["simulate", plan, "--feature", "gender", "--values", "female,male",
            "--out", str(tmp_path / "fixtures")]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == f"error: {plan}: no simulation rows found\n"
    assert not (tmp_path / "fixtures").exists()


def test_report_rederives_tables(audit_dir, tmp_path):
    out = tmp_path / "out"
    cli.main(evaluate_args(audit_dir, out, ("--table-size", "1")))
    derived = tmp_path / "derived"
    args = ["report", str(out / "report.json"), "--table-size", "11",
            "--out", str(derived), "--format", "csv"]
    assert cli.main(args) == 0
    towards = (derived / "table_towards.csv").read_text(encoding="utf-8")
    assert "archivist" in towards


def test_a_csv_report_of_the_default_out_keeps_the_report_it_read(audit_dir, tmp_path,
                                                                  monkeypatch):
    """``report out/report.json --format csv`` with the default ``--out``
    writes the CSV files beside the report it read and removes nothing."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(evaluate_args(audit_dir, Path("out"))) == 0
    stored = (tmp_path / "out" / "report.json").read_bytes()
    assert cli.main(["report", "out/report.json", "--format", "csv"]) == 0
    assert sorted(os.listdir(tmp_path / "out")) == sorted([*CSV_NAMES, "report.json"])
    assert (tmp_path / "out" / "report.json").read_bytes() == stored


def test_an_input_in_the_out_directory_is_kept(audit_dir, tmp_path):
    """An evaluate input that has a report file's name is never removed."""
    out = tmp_path / "out"
    assert cli.main(evaluate_args(audit_dir, out, ("--format", "csv"))) == 0
    os.replace(audit_dir / "runs.tsv", out / "report.json")
    args = evaluate_args(audit_dir, out, ("--format", "csv"))
    args[args.index("--runs") + 1] = str(out / "report.json")
    runs = (out / "report.json").read_bytes()
    assert cli.main(args) == 0
    assert (out / "report.json").read_bytes() == runs


def test_report_regeneration_is_byte_identical(audit_dir, tmp_path):
    out = tmp_path / "out"
    cli.main(evaluate_args(audit_dir, out))
    first = tmp_path / "first"
    second = tmp_path / "second"
    for target in (first, second):
        args = ["report", str(out / "report.json"), "--out", str(target)]
        assert cli.main(args) == 0
    assert (first / "report.json").read_bytes() == (
        second / "report.json").read_bytes()


def test_report_keeps_the_stored_table_size_and_exemplar_grid(audit_dir, tmp_path):
    out = tmp_path / "out"
    assert cli.main(evaluate_args(audit_dir, out, ("--table-size", "1"))) == 0
    regridded = tmp_path / "regridded"
    assert cli.main(["report", str(out / "report.json"), "--exemplar-grid", "4",
                     "--out", str(regridded)]) == 0
    again = tmp_path / "again"
    assert cli.main(["report", str(regridded / "report.json"), "--out", str(again)]) == 0
    payload = json.loads((again / "report.json").read_text(encoding="utf-8"))
    assert {t["unbiased"]["grid"] for t in payload["tables"]} == {4}
    assert {t["k"] for t in payload["tables"]} == {1}
    assert (again / "report.json").read_bytes() == (regridded / "report.json").read_bytes()


def test_report_exemplar_grid_above_the_limit_is_an_input_error(audit_dir, tmp_path,
                                                                 capsys):
    out = tmp_path / "out"
    assert cli.main(evaluate_args(audit_dir, out)) == 0
    report = str(out / "report.json")
    assert cli.main(["report", report, "--exemplar-grid", "1001",
                     "--out", str(tmp_path / "over")]) == 1
    assert capsys.readouterr().err == (
        "error: exemplar grid must be between 1 and 1000, got 1001\n")
    assert not (tmp_path / "over").exists()
    assert cli.main(["report", report, "--exemplar-grid", str(cli.MAX_EXEMPLAR_GRID),
                     "--out", str(tmp_path / "at")]) == 0
    payload = json.loads((tmp_path / "at" / "report.json").read_text(encoding="utf-8"))
    assert {len(t["unbiased"]["buckets"]) for t in payload["tables"]} == {1001}


def test_report_table_size_comes_from_the_flag_then_the_config_then_the_report(
        audit_dir, tmp_path):
    out = tmp_path / "out"
    assert cli.main(evaluate_args(audit_dir, out, ("--table-size", "2"))) == 0
    config = write(tmp_path / "report.cfg", "table_size = 1\n")
    for extra, size in [((), 2), (("--config", config), 1),
                        (("--config", config, "--table-size", "3"), 3)]:
        derived = tmp_path / f"k{size}"
        assert cli.main(["report", str(out / "report.json"), *extra,
                         "--out", str(derived)]) == 0
        payload = json.loads((derived / "report.json").read_text(encoding="utf-8"))
        assert {t["k"] for t in payload["tables"]} == {size}


def test_subcommands_reject_flags_they_do_not_read(audit_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(evaluate_args(audit_dir, out)) == 0
    capsys.readouterr()
    assert cli.main(["report", str(out / "report.json"), "--cutoff", "7",
                     "--out", str(tmp_path / "o")]) == 1
    assert "--cutoff" in capsys.readouterr().err
    plan = write(tmp_path / "plan.tsv", "good\t1/2\t0\t10\n")
    assert cli.main(["simulate", plan, "--feature", "gender", "--values", "female,male",
                     "--table-size", "3", "--out", str(tmp_path / "fx")]) == 1
    assert "--table-size" in capsys.readouterr().err
    assert not (tmp_path / "o").exists() and not (tmp_path / "fx").exists()


def test_report_schema_mismatch_exits_1(tmp_path, capsys):
    bogus = write(tmp_path / "report.json", '{"schema": "biaslens-report/9"}')
    assert cli.main(["report", bogus, "--out", str(tmp_path / "o")]) == 1
    assert "schema" in capsys.readouterr().err


def test_report_without_meta_exits_1(tmp_path, capsys):
    bogus = write(tmp_path / "report.json", '{"schema": "biaslens-report/1"}')
    assert cli.main(["report", bogus, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{bogus}: missing key 'meta' (field: meta)" in err


def test_report_that_is_not_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_bytes(b"\xff\xfe{}")
    assert cli.main(["report", str(path), "--out", str(tmp_path / "o")]) == 1
    assert f"error: {path}:1: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("bad_first", [False, True], ids=["syntax-first", "bad-byte-first"])
def test_a_report_reports_the_error_its_read_meets_first(tmp_path, capsys, bad_first):
    """report.json is read in pieces, as a SPARQL export is, so of a syntax
    error and a byte that is not UTF-8 the one reported comes first."""
    bad, broken = b'"pad": "\xff",\n', b'"skipped": [] "meta": {},\n'  # a missing comma
    filler = b'"filler": "' + b"x" * 500_000 + b'",\n'
    members = [bad, filler, broken] if bad_first else [broken, filler, bad]
    path = tmp_path / "report.json"
    path.write_bytes(b'{\n' + b"".join(members) + b'"schema": "biaslens-report/1"}\n')
    assert cli.main(["report", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:2: not UTF-8 text: invalid start byte\n" if bad_first else
        f"error: {path}:2: invalid JSON: Expecting ',' delimiter\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, broken, message", [
    ("report.json", b'"meta": {]},', "Expecting property name enclosed in double quotes"),
    ("report.json", b'"records": [{"a": ]}],', "Expecting value"),
    ("kb.json", b'"head": {"vars": ]},', "Expecting value"),
], ids=["report-meta", "report-record", "sparql-head"])
def test_a_syntax_error_is_reported_before_a_later_byte_that_is_not_utf8(
        audit_dir, tmp_path, capsys, name, broken, message):
    """A syntax error inside a member is reported where the read meets it;
    the byte that is not UTF-8 on line 4, 500 kB on, is never read."""
    path = tmp_path / name
    path.write_bytes(b"{\n" + broken + b'\n"pad": "' + b"x" * 500_000 + b'",\n"bad": "\xff"}\n')
    out = tmp_path / "out"
    if name == "report.json":
        args = ["report", str(path), "--out", str(out)]
    else:
        args = ["evaluate", "--runs", str(audit_dir / "runs.tsv"),
                "--labels", str(audit_dir / "labels.tsv"), "--members", f"wiki={path}",
                "--feature", "gender", "--values", "female,male", "--out", str(out)]
    assert cli.main(args) == 1
    assert capsys.readouterr().err == f"error: {path}:2: invalid JSON: {message}\n"
    assert not out.exists()


def test_a_repeated_report_member_exits_1(audit_dir, tmp_path, capsys):
    """json.loads would keep the last copy of a member; the reader names it."""
    assert cli.main(evaluate_args(audit_dir, tmp_path / "out")) == 0
    path = tmp_path / "out" / "report.json"
    text = path.read_text(encoding="utf-8")
    assert text.endswith('  "skipped": []\n}\n')
    write(path, text[:-3] + ',\n  "skipped": []\n}\n')
    line = text.count("\n")
    capsys.readouterr()
    assert cli.main(["report", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (f"error: {path}:{line}: member 'skipped' is repeated "
                                       "(field: skipped)\n")
    assert not (tmp_path / "o").exists()


def test_report_with_tampered_bias_exits_1(audit_dir, tmp_path, capsys):
    assert cli.main(evaluate_args(audit_dir, tmp_path / "out")) == 0
    path = tmp_path / "out" / "report.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["records"][2]["bias"]["ratio"] = "3/10"
    write(path, json.dumps(payload))
    capsys.readouterr()
    assert cli.main(["report", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"{path}: bias must equal" in err and "(field: records[2])" in err



def tampered_report(audit_dir, tmp_path, change):
    """The path of an evaluated report.json after ``change`` edits its
    decoded document in place."""
    assert cli.main(evaluate_args(audit_dir, tmp_path / "out")) == 0
    path = tmp_path / "out" / "report.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    change(payload)
    write(path, json.dumps(payload, indent=2))
    return path


@pytest.mark.parametrize("section", ["summaries", "histogram", "scatter"])
@pytest.mark.parametrize("extra", [1, -1], ids=["one-too-many", "one-too-few"])
def test_a_stored_section_of_the_wrong_length_exits_1(audit_dir, tmp_path, capsys, section,
                                                      extra):
    built = []  # the length the records give

    def change(payload):
        entries = payload[section]
        built.append(len(entries))
        payload[section] = entries + entries[-1:] if extra > 0 else entries[:-1]

    path = tampered_report(audit_dir, tmp_path, change)
    capsys.readouterr()
    assert cli.main(["report", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (f"error: {path}: {built[0] + extra} entries, the "
                                       f"records give {built[0]} (field: {section})\n")
    assert not (tmp_path / "o").exists()


def test_a_scatter_entry_one_point_short_exits_1(audit_dir, tmp_path, capsys):
    path = tampered_report(audit_dir, tmp_path,
                           lambda payload: payload["scatter"][0]["points"].pop())
    capsys.readouterr()
    assert cli.main(["report", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (f"error: {path}: entry differs from the one the "
                                       "records give (field: scatter[0])\n")
    assert not (tmp_path / "o").exists()

# Digits in the longest integer literal that int() converts; 0 is no limit
# (PYTHONINTMAXSTRDIGITS=0).
INT_DIGITS = sys.get_int_max_str_digits()
beyond_int_digits = pytest.mark.skipif(not INT_DIGITS, reason="no integer digit limit")


@pytest.mark.parametrize("kind", ["nested",
                                  pytest.param("long-seed", marks=beyond_int_digits)])
def test_report_json_past_the_interpreters_limits_exits_1(audit_dir, tmp_path, capsys, kind):
    path = tmp_path / "report.json"
    if kind == "nested":
        write(path, "[" * 200_000 + "]" * 200_000)
        message = f"{path}: invalid JSON: nested too deeply"
    else:  # named at the line where meta, the value that holds it, starts
        assert cli.main(evaluate_args(audit_dir, tmp_path / "out")) == 0
        stored = (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
        write(path, re.sub(r'"seed": \d+', f'"seed": {"7" * (INT_DIGITS + 1)}', stored))
        message = f"{path}:3: invalid JSON: integer longer than {INT_DIGITS} digits"
    capsys.readouterr()
    assert cli.main(["report", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert "Traceback" not in err and not (tmp_path / "o").exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_report_with_a_lone_surrogate_exits_1(audit_dir, tmp_path, capsys, fmt):
    assert cli.main(evaluate_args(audit_dir, tmp_path / "out")) == 0
    path = tmp_path / "out" / "report.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["records"][0]["topic"] += "\ud800"
    write(path, json.dumps(payload, ensure_ascii=True))
    capsys.readouterr()
    out = tmp_path / "o"
    assert cli.main(["report", str(path), "--format", fmt, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: topic holds a lone surrogate: ")
    assert err.endswith("(field: records[0])\n") and not out.exists()


def test_outputs_are_readable_under_the_umask(audit_dir, tmp_path):
    previous = os.umask(0o022)
    try:
        assert cli.main(evaluate_args(audit_dir, tmp_path / "out")) == 0
        assert cli.main(evaluate_args(audit_dir, tmp_path / "csv", ("--format", "csv"))) == 0
    finally:
        os.umask(previous)
    written = [tmp_path / "out" / "report.json", *(tmp_path / "csv").iterdir()]
    assert {stat.S_IMODE(p.stat().st_mode) for p in written} == {0o644}


def test_config_file_with_flag_override(audit_dir, tmp_path):
    config = write(tmp_path / "audit.cfg", f"""
# audit defaults
cutoff = 5
feature = gender
values = female,male
runs = {audit_dir / 'runs.tsv'}
labels = {audit_dir / 'labels.tsv'}
target.kb = {audit_dir / 'targets_kb.tsv'}
out = {tmp_path / 'cfg-out'}
""")
    assert cli.main(["evaluate", "--config", config]) == 0
    report = parse_report(
        (tmp_path / "cfg-out" / "report.json").read_text(encoding="utf-8"))
    assert report.meta.cutoff == 5

    assert cli.main(["evaluate", "--config", config, "--cutoff", "10"]) == 0
    report = parse_report(
        (tmp_path / "cfg-out" / "report.json").read_text(encoding="utf-8"))
    assert report.meta.cutoff == 10


def test_config_relative_paths_resolve_against_config(audit_dir, tmp_path):
    config = write(audit_dir / "audit.cfg", """
feature = gender
values = female,male
runs = runs.tsv
labels = labels.tsv
target.kb = targets_kb.tsv
""")
    out = tmp_path / "out"
    assert cli.main(["evaluate", "--config", config, "--out", str(out)]) == 0


def test_seed_env_fallback(audit_dir, tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("BIASLENS_SEED", "777")
    cli.main(evaluate_args(audit_dir, out))
    report = parse_report((out / "report.json").read_text(encoding="utf-8"))
    assert report.meta.seed == 777
    # Explicit flag beats the environment.
    cli.main(evaluate_args(audit_dir, out, ("--seed", "9")))
    report = parse_report((out / "report.json").read_text(encoding="utf-8"))
    assert report.meta.seed == 9


def test_default_seed_is_fixed_constant(audit_dir, tmp_path, monkeypatch):
    monkeypatch.delenv("BIASLENS_SEED", raising=False)
    out = tmp_path / "out"
    cli.main(evaluate_args(audit_dir, out))
    report = parse_report((out / "report.json").read_text(encoding="utf-8"))
    assert report.meta.seed == cli.DEFAULT_SEED == 20191201


def test_help_lists_flags(capsys):
    assert cli.main(["evaluate", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--cutoff", "--feature", "--values", "--strict", "--seed",
                 "--format", "--out", "--runs", "--labels",
                 "--target", "--members"):
        assert flag in out
    assert cli.main(["report", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--config", "--format", "--out", "--table-size", "--exemplar-grid"):
        assert flag in out
    for flag in ("--cutoff", "--feature", "--values", "--unknown-token", "--strict",
                 "--seed", "--population-sd"):
        assert flag not in out
    assert cli.main(["simulate", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--config", "--feature", "--values", "--unknown-token", "--seed", "--out"):
        assert flag in out
    for flag in ("--cutoff", "--strict", "--format", "--table-size", "--population-sd"):
        assert flag not in out


def test_unknown_flag_is_input_error(capsys):
    assert cli.main(["evaluate", "--nonsense"]) == 1
    assert "--nonsense" in capsys.readouterr().err


def test_failed_emission_leaves_no_partial_files(audit_dir, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "report.json").mkdir(parents=True)  # collides with the output file
    assert cli.main(evaluate_args(audit_dir, out)) == 1
    leftovers = [p.name for p in out.iterdir() if p.name != "report.json"]
    assert leftovers == []


def test_members_topic_without_labels_is_skipped(audit_dir, tmp_path):
    members = ["announcer\tann:e%d" % i for i in range(10)]
    members += ["shadow\tnobody:e%d" % i for i in range(4)]  # no labels at all
    write(audit_dir / "members.tsv", "\n".join(members) + "\n")
    runs_extra = "".join(f"shadow\t{i + 1}\tnobody:e{i}\n" for i in range(4))
    with open(audit_dir / "runs.tsv", "a", encoding="utf-8") as handle:
        handle.write(runs_extra)
    out = tmp_path / "out"
    args = ["evaluate",
            "--runs", str(audit_dir / "runs.tsv"),
            "--labels", str(audit_dir / "labels.tsv"),
            "--members", f"panel={audit_dir / 'members.tsv'}",
            "--feature", "gender", "--values", "female,male",
            "--out", str(out)]
    assert cli.main(args) == 0
    report = parse_report((out / "report.json").read_text(encoding="utf-8"))
    reasons = {s.topic_id: s.reason for s in report.skipped}
    assert reasons["shadow"] == "empty-population"
    evaluated_topics = {e.record.topic_id for e in report.records}
    assert evaluated_topics == {"announcer"}


def test_three_valued_feature_end_to_end(tmp_path):
    runs = "".join(f"mixed\t{i + 1}\te{i}\n" for i in range(10))
    window = ["a"] * 4 + ["b"] * 3 + ["c"] * 3
    labels = "".join(f"e{i}\tethnicity\t{window[i]}\tkb\n" for i in range(10))
    targets = ("mixed\tethnicity\ta\t1\nmixed\tethnicity\tb\t1\n"
               "mixed\tethnicity\tc\t1\n")
    write(tmp_path / "runs.tsv", runs)
    write(tmp_path / "labels.tsv", labels)
    write(tmp_path / "targets.tsv", targets)
    out = tmp_path / "out"
    args = ["evaluate",
            "--runs", str(tmp_path / "runs.tsv"),
            "--labels", str(tmp_path / "labels.tsv"),
            "--target", f"kb={tmp_path / 'targets.tsv'}",
            "--feature", "ethnicity", "--values", "a,b,c",
            "--out", str(out)]
    assert cli.main(args) == 0
    document = (out / "report.json").read_text(encoding="utf-8")
    assert json.loads(document)["meta"]["evaluation"] == "one-vs-rest"
    report = parse_report(document)
    assert [b.feature_value for b in report.blocks] == ["a", "b", "c"]
    biases = {b.feature_value: b.summary.mean_bias for b in report.blocks}
    assert biases == {"a": F(1, 10), "b": F(0), "c": F(0)}


def test_conflicting_source_labels_rejected(audit_dir, tmp_path, capsys):
    args = evaluate_args(audit_dir, tmp_path / "out",
                         ("--members", f"kb={audit_dir / 'targets_kb.tsv'}",))
    assert cli.main(args) == 1
    assert "both" in capsys.readouterr().err


def sparql_export(rows, names=("topic", "entity", "value")):
    """A SPARQL JSON export of (topic, entity, value or None) rows."""
    bindings = []
    for topic, entity, value in rows:
        binding = {names[0]: {"type": "literal", "value": topic},
                   names[1]: {"type": "uri", "value": f"http://x/{entity}"}}
        if value is not None:
            binding[names[2]] = {"type": "literal", "value": value}
        bindings.append(binding)
    return json.dumps({"head": {"vars": list(names)}, "results": {"bindings": bindings}})


def test_malformed_sparql_export_exits_1(audit_dir, tmp_path, capsys):
    export = json.loads(sparql_export([("announcer", "ann:e0", "male")]))
    export["results"]["bindings"].append(1)
    write(audit_dir / "kb.json", json.dumps(export))
    args = evaluate_args(audit_dir, tmp_path / "out",
                         ("--members", f"wiki={audit_dir / 'kb.json'}"))
    assert cli.main(args) == 1
    assert f"{audit_dir / 'kb.json'}:1: binding 2: not an object" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@beyond_int_digits
def test_an_integer_too_long_in_a_sparql_export_exits_1(audit_dir, tmp_path, capsys):
    export = sparql_export([("announcer", f"ann:e{i}", "male") for i in range(10)])
    path = write(audit_dir / "kb.json", export.replace('"male"', "7" * (INT_DIGITS + 1), 1))
    args = evaluate_args(audit_dir, tmp_path / "out", ("--members", f"wiki={path}"))
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}:1: invalid JSON: integer longer than {INT_DIGITS} digits\n"
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("row, extra, message", [
    ('\t<http://x/ann:e1>\t"male"', (), "row is missing the 'topic' binding (field: topic)"),
    ('"announcer"\t"Q2"\t"male"', ("--strict",),
     "entity binding 'Q2' is not an IRI (field: entity)"),
], ids=["empty-topic", "strict-literal-entity"])
def test_a_sparql_tsv_export_row_error_is_located(audit_dir, tmp_path, capsys, row, extra,
                                                   message):
    path = write(audit_dir / "kb.tsv", '?topic\t?entity\t?value\n'
                 '"announcer"\t<http://x/ann:e0>\t"male"\n' + row + "\n")
    args = evaluate_args(audit_dir, tmp_path / "out",
                         ("--members", f"wiki={path}", "--cutoff", "2", *extra))
    assert cli.main(args) == 1
    assert capsys.readouterr().err == f"error: {path}:3: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.fixture
def skip_dir(audit_dir):
    """Runs for announcer, archivist and shadow (whose entities have no
    label); each source covers announcer, shadow and phantom (no run)."""
    with open(audit_dir / "runs.tsv", "a", encoding="utf-8") as handle:
        handle.write("".join(f"shadow\t{i + 1}\tnobody:e{i}\n" for i in range(4)))
    write(audit_dir / "targets.tsv", "".join(
        f"{topic}\tgender\tfemale\t1\n{topic}\tgender\tmale\t1\n"
        for topic in ("announcer", "shadow", "phantom")))
    members = ([("announcer", f"ann:e{i}") for i in range(10)]
               + [("shadow", f"nobody:e{i}") for i in range(4)] + [("phantom", "ann:e0")])
    write(audit_dir / "members.tsv", "".join(f"{t}\t{e}\n" for t, e in members))
    write(audit_dir / "kb.json", sparql_export(
        (t, e, "male" if e.startswith("ann:") else None) for t, e in members))
    return audit_dir


SKIP_SOURCES = {"target": ("--target", "targets.tsv"), "members": ("--members", "members.tsv"),
                "sparql": ("--members", "kb.json")}


@pytest.mark.parametrize("kind, topic, reason, detail", [
    ("target", "phantom", "missing-run", "target topic has no ranked run"),
    ("target", "archivist", "missing-target", "no target counts for this topic"),
    *((kind, topic, reason, detail) for kind in ("members", "sparql")
      for topic, reason, detail in [
          ("phantom", "missing-run", "membership topic has no ranked run"),
          ("archivist", "missing-target", "no target counts for this topic"),
          ("shadow", "empty-population",
           "topic 'shadow' has no labeled members for feature 'gender' (4 unknown)")]),
])
def test_each_skipped_pair_has_one_reason(skip_dir, tmp_path, kind, topic, reason, detail):
    flag, name = SKIP_SOURCES[kind]
    out = tmp_path / "out"
    assert cli.main(["evaluate", "--runs", str(skip_dir / "runs.tsv"),
                     "--labels", str(skip_dir / "labels.tsv"),
                     flag, f"src={skip_dir / name}", "--feature", "gender",
                     "--values", "female,male", "--out", str(out)]) == 0
    skipped = parse_report((out / "report.json").read_text(encoding="utf-8")).skipped
    pairs = [(s.source, s.topic_id) for s in skipped]
    assert len(pairs) == len(set(pairs))
    assert [(s.reason, s.detail) for s in skipped if s.topic_id == topic] == [(reason, detail)]


@pytest.mark.parametrize("spelling, on", [
    ("true", True), ("Yes", True), ("1", True), ("ON", True),
    ("false", False), ("no", False), ("0", False), ("Off", False),
])
def test_config_file_sets_every_key(audit_dir, tmp_path, spelling, on):
    with open(audit_dir / "labels.tsv", "a", encoding="utf-8") as handle:
        handle.write("spare:e0\tgender\tunk\tkb\n")
    write(audit_dir / "kb.json", sparql_export(
        [("announcer", f"ann:e{i}", "male") for i in range(10)], names=("t", "e", "v")))
    settings = f"""cutoff = 9
feature = gender
values = female, male
unknown_token = unk
strict = {spelling}
seed = 41
format = json
out = {tmp_path / 'out'}
table_size = 3
population_sd = {spelling}
runs = runs.tsv
labels = labels.tsv
target.kb = targets_kb.tsv
members.wiki = kb.json
topic_var = t
entity_var = e
value_var = v
"""
    config = write(audit_dir / "audit.cfg", settings)
    assert cli.main(["evaluate", "--config", config]) == 0
    meta = parse_report((tmp_path / "out" / "report.json").read_text(encoding="utf-8")).meta
    assert (meta.cutoff, meta.feature_name, meta.values, meta.unknown_token, meta.seed,
            meta.table_size, meta.sources) == (9, "gender", ("female", "male"), "unk", 41,
                                               3, ("kb", "wiki"))
    assert (meta.strict, meta.sd_divisor) == (on, "population" if on else "sample")
    write(audit_dir / "audit.cfg", settings.replace("format = json", "format = csv")
          .replace(str(tmp_path / "out"), str(tmp_path / "csv")))
    assert cli.main(["evaluate", "--config", config]) == 0
    assert (tmp_path / "csv" / "records.csv").exists()
    assert not (tmp_path / "csv" / "report.json").exists()


@pytest.mark.parametrize("key, text", [
    ("cutoff", "ten"), ("strict", "maybe"), ("seed", "x1"), ("table_size", "1.5"),
    ("population_sd", "2"),
])
def test_invalid_config_value_names_the_key(audit_dir, tmp_path, capsys, key, text):
    config = write(audit_dir / "audit.cfg", f"""feature = gender
values = female,male
runs = runs.tsv
labels = labels.tsv
target.kb = targets_kb.tsv
{key} = {text}
""")
    assert cli.main(["evaluate", "--config", config, "--out", str(tmp_path / "out")]) == 1
    assert f"config key {key!r} has invalid value {text!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lines, message", [
    ("entity_var = topic", "config keys 'topic_var' and 'entity_var' must differ, "
                           "both are 'topic'"),
    ("value_var = topic", "config keys 'topic_var' and 'value_var' must differ, "
                          "both are 'topic'"),
    ("entity_var = v\nvalue_var = v", "config keys 'entity_var' and 'value_var' must "
                                      "differ, both are 'v'"),
])
def test_equal_sparql_variables_name_the_keys(audit_dir, tmp_path, capsys, lines, message):
    config = write(audit_dir / "audit.cfg", f"""feature = gender
values = female,male
runs = runs.tsv
labels = labels.tsv
target.kb = targets_kb.tsv
{lines}
""")
    assert cli.main(["evaluate", "--config", config, "--out", str(tmp_path / "out")]) == 1
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, message", [
    ("cutof = 5", "unknown config key 'cutof' (field: cutof)"),
    ("target = t.tsv", "unknown config key 'target' (field: target)"),
    ("value_map.Q1 = female", "unknown config key 'value_map.Q1'"),
    ("target. = targets_full.tsv", "source key 'target.' needs a label and a file"),
    ("members.wiki =", "source key 'members.wiki' needs a label and a file"),
    ("runs = runs.tsv", "config key 'runs' is repeated (field: runs)"),
    ("target.kb = targets_full.tsv", "config key 'target.kb' is repeated"),
    ("target. kb = targets_full.tsv", "config key 'target.kb' is repeated"),
], ids=["misspelt", "bare-prefix", "value-map", "empty-label", "empty-file",
        "repeated-key", "repeated-source", "repeated-spaced-source"])
def test_config_rejects_unknown_keys_and_empty_sources(audit_dir, tmp_path, capsys,
                                                       line, message):
    config = write(audit_dir / "audit.cfg", f"""feature = gender
values = female,male
runs = runs.tsv
labels = labels.tsv
target.kb = targets_kb.tsv
{line}
""")
    assert cli.main(["evaluate", "--config", config, "--out", str(tmp_path / "out")]) == 1
    assert f"error: {config}:6: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()



@pytest.mark.parametrize("kind, reason", [("missing", "No such file or directory"),
                                          ("directory", "Is a directory")])
def test_a_config_that_cannot_be_read_exits_1(audit_dir, tmp_path, capsys, kind, reason):
    config = audit_dir / "audit.cfg"
    if kind == "directory":
        config.mkdir()
    assert cli.main(["evaluate", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {config}: cannot read config: {reason}\n"
    assert not (tmp_path / "out").exists()


def test_a_config_format_other_than_json_or_csv_exits_1(audit_dir, tmp_path, capsys):
    config = write(audit_dir / "audit.cfg", """feature = gender
values = female,male
runs = runs.tsv
labels = labels.tsv
target.kb = targets_kb.tsv
format = xml
""")
    assert cli.main(["evaluate", "--config", config, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: format must be json or csv, got 'xml'\n"
    assert not (tmp_path / "out").exists()

def test_config_source_label_is_stripped(audit_dir, tmp_path):
    config = write(audit_dir / "audit.cfg", """feature = gender
values = female,male
runs = runs.tsv
labels = labels.tsv
target. kb = targets_kb.tsv
""")
    assert cli.main(["evaluate", "--config", config, "--out", str(tmp_path / "out")]) == 0
    report = (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
    assert parse_report(report).meta.sources == ("kb",)


def test_config_out_resolves_against_the_config_file(audit_dir, tmp_path, monkeypatch):
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    (audit_dir / "cfg").mkdir()
    config = write(audit_dir / "cfg" / "audit.cfg", """feature = gender
values = female,male
runs = ../runs.tsv
labels = ../labels.tsv
target.kb = ../targets_kb.tsv
out = results
""")
    assert cli.main(["evaluate", "--config", config]) == 0
    assert (audit_dir / "cfg" / "results" / "report.json").exists()
    assert not (tmp_path / "cwd" / "results").exists()


def test_label_conflicts_survive_a_sparql_merge(audit_dir, tmp_path, capsys):
    with open(audit_dir / "labels.tsv", "a", encoding="utf-8") as handle:
        handle.write("ann:e0\tgender\tfemale\tinferred\n")
    write(audit_dir / "kb.json", sparql_export(
        [("announcer", f"ann:e{i}", "male") for i in range(10)]))
    args = evaluate_args(audit_dir, tmp_path / "out",
                         ("--members", f"wiki={audit_dir / 'kb.json'}"))
    assert cli.main(args) == 0
    assert "label conflicts resolved by provenance: 1" in capsys.readouterr().out


@pytest.mark.parametrize("flag, first, second", [
    ("--target", "targets_kb.tsv", "targets_full.tsv"),
    ("--members", "kb.json", "members.tsv"),
])
def test_repeated_source_flag_label_exits_1(audit_dir, tmp_path, capsys, flag, first,
                                            second):
    write(audit_dir / "kb.json", sparql_export([("announcer", "ann:e0", "male")]))
    write(audit_dir / "members.tsv", "announcer\tann:e0\n")
    args = ["evaluate", "--runs", str(audit_dir / "runs.tsv"),
            "--labels", str(audit_dir / "labels.tsv"),
            flag, f"dup={audit_dir / first}", flag, f" dup ={audit_dir / second}",
            "--feature", "gender", "--values", "female,male",
            "--out", str(tmp_path / "out")]
    assert cli.main(args) == 1
    assert f"error: {flag} label 'dup' is repeated" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def sparql_tsv_export(rows):
    """The SPARQL TSV export of the rows that ``sparql_export`` writes as JSON."""
    lines = ["?topic\t?entity\t?value"]
    lines += [f'"{topic}"\t<http://x/{entity}>\t' + ("" if value is None else f'"{value}"')
              for topic, entity, value in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("preamble, json_preamble", [
    ("", "\n"), ("# exported 2021-06-01\n\n", "\n"), ("", "# exported 2021-06-01\n"),
    (f"# {'x' * 5000}\n{' ' * 5000}\n", " " * 5000)],
    ids=["bare", "after-comment", "json-after-comment", "long-preamble"])
def test_members_format_is_read_from_content(audit_dir, tmp_path, capsys, preamble,
                                             json_preamble):
    rows = ([("announcer", f"ann:e{i}", "male" if i % 3 else None) for i in range(10)]
            + [("archivist", f"arc:e{i}", "female") for i in range(4)])
    write(audit_dir / "exp.tsv", preamble + sparql_tsv_export(rows))
    write(audit_dir / "exp.txt", json_preamble + sparql_export(rows))
    outputs = []
    for name in ("exp.tsv", "exp.txt"):
        out = tmp_path / f"out-{name}"
        args = evaluate_args(audit_dir, out, ("--members", f"wiki={audit_dir / name}"))
        if json_preamble.startswith("#") and name == "exp.txt":
            # The first text is '{', so this is a JSON export, and JSON has no comments.
            assert cli.main(args) == 1
            assert capsys.readouterr().err == (
                f"error: {audit_dir / name}:1: invalid JSON: Expecting value\n")
            return
        assert cli.main(args) == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        outputs.append(((out / "report.json").read_bytes(), stdout))
    assert outputs[0] == outputs[1]
    assert parse_report(outputs[0][0].decode("utf-8")).meta.sources == (
        "full-results", "kb", "wiki")


@pytest.mark.parametrize("flag", ["--target", "--members"])
def test_leading_byte_order_mark_is_ignored(audit_dir, tmp_path, capsys, flag):
    text = ((audit_dir / "targets_kb.tsv").read_text(encoding="utf-8") if flag == "--target"
            else sparql_export([("announcer", f"ann:e{i}", "male") for i in range(10)]))
    outputs = []
    for bom in ("", "\ufeff"):
        write(audit_dir / "source.txt", bom + text)
        out = tmp_path / f"out{len(bom)}"
        args = evaluate_args(audit_dir, out, (flag, f"extra={audit_dir / 'source.txt'}"))
        assert cli.main(args) == 0
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        outputs.append(((out / "report.json").read_bytes(), stdout))
    assert outputs[0] == outputs[1]


CONFIG_TEXT = st.lists(st.sampled_from((
    "=", "#", ".", " ", "\t", "\r", "\n", "\x85", "\ufeff", "5", "x", "gender",
    *cli._CONFIG_KEYS, "target.", "members.", "value_map.",
)), max_size=30).map("".join)


@given(text=CONFIG_TEXT)
def test_config_file_parses_or_fails_at_a_line(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzzed.cfg"
    path.write_bytes(text.encode("utf-8"))
    try:
        assert type(cli.parse_config_file(path)) is dict
    except ParseError as exc:
        assert exc.line is not None, str(exc)


def subcommand_parsers():
    parser = cli.build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    return commands.choices


def options_of(parser):
    return {option for action in parser._actions for option in action.option_strings
            if option not in ("-h", "--help")}


def test_readme_option_table_matches_the_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = dict(re.findall(r"^\| `(\w+)` \| `([^`]*)` \|$", readme, re.MULTILINE))
    parsers = subcommand_parsers()
    assert table.keys() == parsers.keys()
    for command, parser in parsers.items():
        assert set(table[command].split()) == options_of(parser), command


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Inputs of every kind for fuzzed command lines: a two-topic corpus, its
    sources in every format, a simulate plan, a report and a file that is
    not UTF-8."""
    base = write_corpus(tmp_path_factory.mktemp("fuzz"))
    rows = [("announcer", f"ann:e{i}", "male" if i % 2 else None) for i in range(6)]
    write(base / "exp.json", sparql_export(rows))
    write(base / "exp.tsv", "# exported\n" + sparql_tsv_export(rows))
    write(base / "members.tsv", "announcer\tann:e1\narchivist\tarc:e2\n")
    write(base / "plan.tsv", "t1\t1/2\t0\t4\nt2\t1/3\t1/3\t3\t9\n")
    (base / "latin1.tsv").write_bytes(b"announcer\t\xff\n")
    with redirect_stdout(io.StringIO()):
        assert cli.main(evaluate_args(base, base / "stored")) == 0
    return base


FUZZ_FILES = ("runs.tsv", "labels.tsv", "targets_kb.tsv", "exp.json", "exp.tsv",
              "members.tsv", "plan.tsv", "latin1.tsv", "stored/report.json", "missing.tsv",
              "fuzz.cfg")
CONFIG_VALUES = st.sampled_from(["5", "0", "x", "true", "off", "gender", "female,male",
                                 "csv", "out", "", *FUZZ_FILES])
CONFIG_LINES = st.lists(st.one_of(
    st.tuples(st.sampled_from([*cli._CONFIG_KEYS, "target.kb", "members.wiki", "target.",
                               "value_map.Q1", "cutof"]), CONFIG_VALUES).map(" = ".join),
    st.sampled_from(["# comment", "=", "junk", " "])), max_size=12).map("\n".join)


@st.composite
def command_lines(draw, command, base):
    """argv for ``command`` from its own options, each with a value of its kind;
    integers come from a small range."""
    def files(*likely):
        return st.sampled_from(likely + FUZZ_FILES).map(lambda name: str(base / name))
    values = {
        "--config": files("fuzz.cfg"),
        "--feature": st.sampled_from(["gender", "", "age"]),
        "--values": st.sampled_from(["female,male", "female", "", "female,female", "male,,x"]),
        "--unknown-token": st.sampled_from(["unknown", "male", ""]),
        "--format": st.sampled_from(["json", "csv", "xml"]),
        # Output goes to two directories of its own, or fails on a file.
        "--out": st.sampled_from(["out", "out2", "runs.tsv"]).map(lambda n: str(base / n)),
        "--target": st.tuples(st.sampled_from(["kb", "wiki", "", " "]), files() | st.just("")
                              ).map("=".join),
    }
    values["--members"] = values["--target"]
    parser = subcommand_parsers()[command]
    argv = [command]
    if draw(st.booleans()):  # the inputs the command needs, so that some runs get past them
        scheme = ["--feature", "gender", "--values", "female,male"]
        argv += {"evaluate": ["--runs", str(base / "runs.tsv"), "--labels",
                              str(base / "labels.tsv"), *scheme,
                              "--target", f"kb={base / 'targets_kb.tsv'}"],
                 "simulate": [str(base / "plan.tsv"), *scheme],
                 "report": [str(base / "stored" / "report.json")]}[command]
    else:
        argv += [draw(files()) for action in parser._actions if not action.option_strings]
    for option in draw(st.lists(st.sampled_from(sorted(options_of(parser))), max_size=6)):
        action = parser._option_string_actions[option]
        argv.append(option)
        if option in values:
            argv.append(draw(values[option]))
        elif action.type is int:
            argv.append(draw(st.sampled_from([*map(str, range(-2, 13)), "x"])))
        elif action.nargs != 0:
            argv.append(draw(files()))
    return argv


@pytest.mark.parametrize("command", sorted(subcommand_parsers()))
@given(data=st.data())
def test_main_returns_an_exit_code_and_never_raises(fuzz_dir, command, data):
    (fuzz_dir / "fuzz.cfg").write_text(data.draw(CONFIG_LINES), encoding="utf-8")
    argv = data.draw(command_lines(command, fuzz_dir))
    cwd = os.getcwd()
    os.chdir(fuzz_dir)  # where the default output directory goes
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert cli.main(argv) in (0, 1, 2)
    finally:
        os.chdir(cwd)
