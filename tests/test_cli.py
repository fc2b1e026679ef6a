import csv
import io
import json

import pytest

from graphquery.cli import main
from graphquery.graphs import format_edge_list, parse_edge_list
from graphquery.instances import worst_case_graph


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
    assert payload["bound_satisfied"] is True


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
    assert payload["bound_satisfied"] is True
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
    assert code == 0  # a correct rejection satisfies the contract
    assert json.loads(out)["answer"] is False


def test_duel_exit_codes_and_csv(capsys):
    code, out, _ = run_cli(capsys, "duel", "--learner", "reps-known",
                           "--adversary", "separability", "--n", "6", "--k", "3",
                           "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["algorithm", "n", "k", "m", "seed", "queries", "bound",
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


def test_reports_are_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "duel", "--learner", "reps-known",
                          "--adversary", "separability", "--n", "6", "--k", "3")
    _, second, _ = run_cli(capsys, "duel", "--learner", "reps-known",
                           "--adversary", "separability", "--n", "6", "--k", "3")
    assert first == second
