import argparse
import csv
import io
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from graphquery import duel
from graphquery.cli import build_parser, main
from graphquery.duel import CSV_HEADER, DuelReport
from graphquery.graphs import connected_components, format_edge_list, parse_edge_list
from graphquery.instances import generate_instance, worst_case_graph
from graphquery.learners import LearnResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_edge_list(capsys, tmp_path):
    out = tmp_path / "g.txt"
    code, _, _ = run_cli(capsys, "gen", "--kind", "worst-case-prop1",
                         "--n", "6", "--k", "3", "--out", str(out))
    assert code == 0
    assert parse_edge_list(out.read_text()) == worst_case_graph(6, 3)


def test_gen_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "--kind", "edgeless", "--n", "4")
    assert code == 0 and out == "4 0\n"


def test_learn_partition_known_exact_count(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(worst_case_graph(6, 3)))
    code, out, _ = run_cli(capsys, "learn-partition", "--graph", str(path),
                           "--known", "--order", "prop1")
    assert code == 0
    payload = json.loads(out)
    assert payload["queries_used"] == 9
    assert payload["satisfied"] is True


def test_learn_partition_pooled(capsys):
    code, out, _ = run_cli(capsys, "learn-partition", "--kind", "random-partition",
                           "--n", "10", "--k", "3", "--seed", "2",
                           "--oracle", "alpha_m")
    assert code == 0
    payload = json.loads(out)
    assert payload["algorithm"] == "pooled-components"
    assert payload["queries_used"] <= payload["bound"]


def test_count_components(capsys):
    code, out, _ = run_cli(capsys, "count-components", "--kind", "edgeless", "--n", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] == 7 and payload["queries_used"] == 7


def test_learn_graph(capsys):
    code, out, _ = run_cli(capsys, "learn-graph", "--kind", "random-graph",
                           "--n", "9", "--m", "10", "--seed", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["satisfied"] is True
    assert len(payload["answer"]) == 10


def test_verify_graph_accepts_and_counts(capsys, tmp_path):
    hidden = tmp_path / "h.txt"
    hidden.write_text("4 3\n0 1\n0 2\n0 3\n")
    code, out, _ = run_cli(capsys, "verify-graph", "--graph", str(hidden),
                           "--candidate", str(hidden))
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] is True and payload["queries_used"] == 6


def test_verify_graph_rejects_swapped(capsys, tmp_path):
    hidden = tmp_path / "h.txt"
    hidden.write_text("4 2\n0 1\n2 3\n")
    candidate = tmp_path / "c.txt"
    candidate.write_text("4 2\n0 1\n1 2\n")
    code, out, _ = run_cli(capsys, "verify-graph", "--graph", str(hidden),
                           "--candidate", str(candidate))
    assert code == 0  # rejecting a candidate that differs from the hidden graph is right
    assert json.loads(out)["answer"] is False


def test_verify_graph_wrong_rejection_exits_two(capsys, tmp_path, monkeypatch):
    # a verifier that rejects the true graph gives a wrong verdict, which no
    # query count can make up for
    monkeypatch.setattr(duel, "verify_graph_neighborhood",
                        lambda session, candidate: LearnResult(False, 0))
    hidden = tmp_path / "h.txt"
    hidden.write_text("4 3\n0 1\n0 2\n0 3\n")
    code, out, _ = run_cli(capsys, "verify-graph", "--graph", str(hidden),
                           "--candidate", str(hidden))
    assert code == 2
    payload = json.loads(out)
    assert payload["verdict"] == "incorrect" and payload["satisfied"] is False


def test_duel_exit_codes_and_csv(capsys):
    code, out, _ = run_cli(capsys, "duel", "--learner", "reps-known",
                           "--adversary", "separability", "--n", "6", "--k", "3",
                           "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:9] == ["algorithm", "n", "k", "m", "seed", "queries_used", "bound",
                           "satisfied", "verdict"]
    assert rows[1][0] == "reps-known" and rows[1][8] == "forced"


def test_duel_grid(capsys):
    code, out, _ = run_cli(capsys, "duel", "--learner", "reps-known",
                           "--adversary", "separability", "--n", "5", "--grid")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["all_satisfied"] is True
    assert payload["summary"]["cells"] == 10  # (n, k) pairs with 2 <= k <= n <= 5


def test_minimax_report(capsys):
    code, out, _ = run_cli(capsys, "minimax", "--n", "4", "--k", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"formula": 5, "k": 3, "match": True, "minimax": 5,
                       "n": 4, "oracle": "alpha"}


def test_minimax_unknown_k(capsys):
    code, out, _ = run_cli(capsys, "minimax", "--n", "4")
    assert code == 0
    assert json.loads(out)["minimax"] == 6


@pytest.mark.parametrize("n, value", [(1, 0), (2, 1), (3, 3), (4, 4), (5, 6)])
def test_minimax_pooled_unknown_k_meets_the_bell_bound(capsys, n, value):
    # with k unknown the pooled game is checked against ceil(log2 B(n)),
    # which the solver's values meet exactly at n <= 5
    code, out, _ = run_cli(capsys, "minimax", "--n", str(n), "--oracle", "alpha_m")
    assert code == 0
    assert json.loads(out) == {"formula": value, "k": None, "match": True, "minimax": value,
                               "n": n, "oracle": "alpha_m"}


def test_enumerate_ukc(capsys):
    code, out, _ = run_cli(capsys, "enumerate-ukc", "--n", "4", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert [row["n"] for row in payload["rows"]] == [1, 2, 3, 4]


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["duel", "--learner", "bogus", "--n", "4"])
    assert exc.value.code == 1
    code, _, err = run_cli(capsys, "minimax")
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "learn-partition", "--kind", "random-graph",
                           "--n", "5")  # missing m/seed
    assert code == 1
    code, _, err = run_cli(capsys, "gen", "--kind", "edgeless")  # missing n
    assert code == 1
    code, _, err = run_cli(capsys, "duel", "--learner", "reps-known", "--n", "4")
    assert code == 1  # neither adversary nor kind
    for argv, message in [
        (["learn-partition", "--kind", "edgeless"], "--kind needs --n"),
        (["learn-partition"], "provide --graph FILE or --kind KIND"),
        (["duel", "--learner", "reps-known", "--adversary", "separability", "--k", "2"],
         "duel needs --n"),
        (["enumerate-ukc", "--n", "4"], "enumerate-ukc needs --n and --k"),
        (["enumerate-ukc", "--k", "2"], "enumerate-ukc needs --n and --k"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"graphquery: error: {message}\n"), argv


@pytest.mark.parametrize("argv, lines", [
    (["minimax", "--n", "4", "--k", "2"], ["formula,k,match,minimax,n,oracle", "3,2,True,3,4,alpha"]),
    (["minimax", "--n", "4", "--oracle", "alpha_m"],
     ["formula,k,match,minimax,n,oracle", "4,,True,4,4,alpha_m"]),
], ids=["alpha", "alpha_m"])
def test_single_row_csv_sorts_keys_and_leaves_none_empty(capsys, argv, lines):
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and out == "".join(line + "\r\n" for line in lines)


def test_single_row_csv_writes_nested_values_as_json_cells(capsys):
    argv = ["enumerate-ukc", "--n", "4", "--k", "2"]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    header, row = csv.reader(io.StringIO(out))
    assert header == ["k", "ok", "rows"] and row[:2] == ["2", "True"]
    _, payload, _ = run_cli(capsys, *argv)
    rows = json.loads(payload)["rows"]
    assert json.loads(row[2]) == rows and [r["n"] for r in rows] == [1, 2, 3, 4]


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "edgeless", "--n", "4", "--format", "csv"],
    ["gen", "--kind", "edgeless", "--n", "4", "--order", "prop1"],
    ["count-components", "--kind", "edgeless", "--n", "4", "--order", "prop1"],
    ["learn-graph", "--kind", "edgeless", "--n", "4", "--order", "prop1"],
    ["verify-graph", "--kind", "edgeless", "--n", "4", "--candidate", "c.txt",
     "--order", "prop1"],
    ["minimax", "--n", "4", "--m", "2"],
    ["minimax", "--n", "4", "--seed", "1"],
    ["minimax", "--n", "4", "--order", "prop1"],
    ["enumerate-ukc", "--n", "4", "--k", "2", "--m", "2"],
    ["enumerate-ukc", "--n", "4", "--k", "2", "--seed", "1"],
    ["enumerate-ukc", "--n", "4", "--k", "2", "--order", "prop1"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_flags_a_subcommand_ignores_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize("extra, flag", [
    (["--m", "2", "--seed", "1"], "--m"),
    (["--order", "prop1"], "--order prop1"),
], ids=["m", "order-prop1"])
def test_duel_grid_rejects_flags_it_would_drop(capsys, extra, flag):
    code, out, err = run_cli(capsys, "duel", "--learner", "all-pairs",
                             "--kind", "random-graph", "--n", "4", "--grid", *extra)
    assert code == 1 and out == ""
    assert f"duel --grid takes no {flag}" in err


@pytest.mark.parametrize("argv, message", [
    (["learn-partition", "--kind", "edgeless", "--n", "4", "--oracle", "alpha_m", "--known"],
     "ignores --known"),
    (["learn-partition", "--kind", "edgeless", "--n", "4", "--oracle", "alpha_m",
      "--order", "prop1"], "ignores order='prop1'"),
    (["duel", "--learner", "all-pairs", "--kind", "edgeless", "--n", "4", "--order", "prop1"],
     "ignores order='prop1'"),
    (["duel", "--learner", "reps-known", "--adversary", "separability", "--n", "5",
      "--k", "2", "--m", "7"], "ignores m=7"),
    (["duel", "--learner", "reps-known", "--adversary", "separability", "--n", "5",
      "--k", "2", "--seed", "9"], "ignores seed=9"),
    (["duel", "--learner", "reps-known", "--adversary", "separability", "--n", "4",
      "--grid", "--seed", "9"], "ignores seed=9"),
    (["duel", "--learner", "reps-known", "--adversary", "separability", "--grid", "--n", "1"],
     "grid over separability is empty: no cell has n = 2..1, k = 2..n"),
    (["duel", "--learner", "reps-known", "--adversary", "separability", "--grid", "--n", "5",
      "--k", "1"], "grid over separability is empty: no cell has n = 2..5, k = 2..1"),
], ids=["alpha_m-known", "alpha_m-prop1", "all-pairs-prop1", "adversary-m",
        "adversary-seed", "adversary-grid-seed", "empty-grid-n", "empty-grid-k"])
def test_settings_a_run_would_ignore_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (["learn-partition", "--kind", "edgeless", "--n", "4", "--k", "2", "--m", "3", "--seed", "5"],
     "edgeless takes no k, m, seed"),
    (["gen", "--kind", "clique", "--n", "4", "--seed", "5"], "clique takes no seed"),
    (["count-components", "--kind", "worst-case-prop1", "--n", "4", "--k", "2", "--seed", "5"],
     "worst-case-prop1 takes no seed"),
    (["duel", "--learner", "all-pairs", "--kind", "random-graph", "--n", "4", "--k", "2",
      "--m", "3", "--seed", "1"], "random-graph takes no k"),
    (["duel", "--learner", "reps-known", "--kind", "clique", "--n", "4", "--k", "3", "--grid"],
     "takes no k_max"),
], ids=["edgeless", "clique-seed", "prop1-seed", "random-graph-k", "clique-grid-k"])
def test_instance_settings_a_kind_ignores_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("flag, value", [("--k", "2"), ("--m", "3"), ("--seed", "5"),
                                         ("--kind", "clique"), ("--n", "9")])
def test_graph_file_takes_no_generator_settings(capsys, tmp_path, flag, value):
    graph = tmp_path / "g.txt"
    graph.write_text("4 1\n0 1\n")
    code, out, err = run_cli(capsys, "learn-partition", "--graph", str(graph), flag, value)
    assert code == 1 and out == ""
    assert f"takes no {flag}" in err


def test_duel_grid_over_a_kind_without_k_runs_one_cell_per_n(capsys):
    code, out, _ = run_cli(capsys, "duel", "--learner", "reps-known", "--kind", "clique",
                           "--n", "4", "--grid", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(row["n"], row["k"]) for row in rows] == [("2", "1"), ("3", "1"), ("4", "1")]


def test_duel_grid_rejects_random_graph(capsys):
    # the grid has no edge count per cell, so random-graph can never run there
    code, out, err = run_cli(capsys, "duel", "--learner", "all-pairs",
                             "--kind", "random-graph", "--n", "4", "--seed", "1", "--grid")
    assert code == 1 and out == ""
    assert "random-graph" in err and "grid" in err


def test_reports_are_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "duel", "--learner", "reps-known",
                          "--adversary", "separability", "--n", "6", "--k", "3")
    _, second, _ = run_cli(capsys, "duel", "--learner", "reps-known",
                           "--adversary", "separability", "--n", "6", "--k", "3")
    assert first == second


def test_every_run_reports_one_schema(capsys, tmp_path):
    names = [f.name for f in fields(DuelReport)]
    assert CSV_HEADER == names
    graph = tmp_path / "g.txt"
    graph.write_text("5 2\n0 1\n2 3\n")
    source = ["--graph", str(graph)]
    runs = [
        ["learn-partition", *source],
        ["learn-partition", *source, "--oracle", "alpha_m"],
        ["count-components", *source],
        ["learn-graph", *source],
        ["verify-graph", *source, "--candidate", str(graph)],
        ["duel", "--learner", "reps-known", "--adversary", "separability", "--n", "5", "--k", "2"],
        ["duel", "--learner", "reps-unknown", "--kind", "random-graph",
         "--n", "8", "--m", "4", "--seed", "3"],
        ["duel", "--learner", "all-pairs", "--adversary", "contraction", "--n", "4", "--grid"],
    ]
    for argv in runs:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        payload = json.loads(out)
        for report in payload.get("reports", [payload]):
            assert sorted(report) == sorted(names), argv
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0 and next(csv.reader(io.StringIO(out))) == CSV_HEADER, argv
    # an honest run reports the k its bound was evaluated at: the hidden graph's
    # component count, even when no k was given
    hidden = generate_instance("random-graph", 8, m=4, seed=3)
    _, out, _ = run_cli(capsys, *runs[6])
    assert json.loads(out)["k"] == connected_components(hidden).k


def test_readme_flag_table_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.splitlines()
    start = lines.index("| subcommand | flags |") + 2  # skip the header and its rule
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        commands, flags = (c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1])
        for name in re.findall(r"`([\w-]+)`", commands):
            table[name] = set(re.findall(r"--[\w-]+", flags))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        name: {o for a in p._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        for name, p in sub.choices.items()
    }
    assert table == declared
