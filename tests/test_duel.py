import pytest

from graphquery import bounds
from graphquery.duel import grid_duel, run_duel


def test_duel_known_count_vs_separability():
    report = run_duel("reps-known", "separability", 6, 3)
    assert report.verdict == "forced"
    assert report.queries_used >= 9 == report.bound
    assert report.bound_kind == "lower"
    assert report.satisfied


def test_duel_known_count_vs_honest_worst_case():
    report = run_duel("reps-known", "worst-case-prop1", 6, 3, order="prop1")
    assert report.verdict == "correct"
    assert report.queries_used == 9
    assert report.satisfied


def test_duel_all_pairs_vs_contraction():
    report = run_duel("all-pairs", "contraction", 8, 3)
    assert report.verdict == "forced"
    assert report.queries_used >= bounds.contraction_adversary_lower(8, 3)
    assert report.satisfied


def test_duel_unknown_vs_unknown_count_adversary():
    report = run_duel("reps-unknown", "unknown-count", 7, 4)
    assert report.satisfied
    assert report.bound == bounds.membership_unknown_count(7, 4)


def test_duel_beta_style_recovery_is_separate():
    # partition duels reject incompatible pairings cleanly
    with pytest.raises(ValueError):
        run_duel("reps-known", "separability", 6, None)
    with pytest.raises(ValueError):
        run_duel("reps-known", "nonesuch", 6, 3)
    with pytest.raises(ValueError):
        run_duel("reps-known", "separability", 6, 3, order="prop1")


def test_duel_report_round_trip():
    report = run_duel("reps-known", "separability", 5, 2)
    payload = report.to_dict()
    assert payload["algorithm"] == "reps-known"
    assert payload["queries_used"] == report.queries_used
    row = report.csv_row()
    assert row[0] == "reps-known" and row[5] == report.queries_used


def test_grid_duel_sweeps_and_aggregates():
    reports, summary = grid_duel("reps-known", "separability", 4)
    # cells: (2,2), (3,2), (3,3), (4,2), (4,3), (4,4)
    assert summary["cells"] == 6
    assert summary["all_satisfied"]
    assert summary["queries_min"] >= 1
    assert summary["queries_max"] == max(r.queries_used for r in reports)
    keys = [(r.n, r.k) for r in reports]
    assert keys == sorted(keys)


def test_grid_duel_reports_are_reproducible():
    first, _ = grid_duel("reps-unknown", "unknown-count", 4)
    second, _ = grid_duel("reps-unknown", "unknown-count", 4)
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]


@pytest.mark.parametrize("kind", ["edgeless", "clique"])
def test_grid_duel_over_a_kind_without_k_runs_one_cell_per_n(kind):
    reports, summary = grid_duel("reps-unknown", kind, 6)
    assert [r.n for r in reports] == [2, 3, 4, 5, 6]
    assert summary["cells"] == 6 - 2 + 1
    assert summary["all_satisfied"]
    with pytest.raises(ValueError, match="k_max"):
        grid_duel("reps-unknown", kind, 6, 3)
