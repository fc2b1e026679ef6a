import argparse
import re

import pytest

from graphquery import bounds
from graphquery.adversaries import ContractionAdversary, SeparabilityAdversary, UnknownCountAdversary
from graphquery.cli import build_parser
from graphquery.duel import ADVERSARY_IDS, LEARNER_IDS, grid_duel, run_duel, run_honest
from graphquery.graphs import empty_graph


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
    with pytest.raises(ValueError, match="^unknown learner 'bogus'; choose from "):
        run_duel("bogus", "separability", 6, 3)
    hidden = empty_graph(4)
    for learner, kwargs, message in [
        ("bogus", {}, "unknown learner 'bogus'; choose from "),
        ("reps-known", {"order": "desc"}, "order must be one of "),
        ("reps-known", {"candidate": hidden}, "a candidate graph goes with neighborhood-verify, and only with it"),
        ("neighborhood-verify", {}, "a candidate graph goes with neighborhood-verify, and only with it"),
        ("neighborhood-verify", {"candidate": empty_graph(5)},
         "candidate and hidden graphs have different vertex counts"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            run_honest(learner, hidden, "edgeless", **kwargs)


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


ADVERSARY_CLASSES = (SeparabilityAdversary, UnknownCountAdversary, ContractionAdversary)


def test_adversary_ids_are_the_classes_variants():
    assert ADVERSARY_IDS == tuple(cls.variant for cls in ADVERSARY_CLASSES)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flag = next(a for a in sub.choices["duel"]._actions if "--adversary" in a.option_strings)
    assert tuple(flag.choices) == ADVERSARY_IDS


@pytest.mark.parametrize("learner", LEARNER_IDS)
@pytest.mark.parametrize("cls", ADVERSARY_CLASSES, ids=lambda cls: cls.variant)
def test_a_duel_reads_its_k_range_and_bound_from_the_adversary_class(cls, learner):
    reports, _ = grid_duel(learner, cls.variant, 6)
    assert [(r.n, r.k) for r in reports] == [(n, k) for n in range(2, 7) for k in range(cls.min_k, n + 1)]
    assert all(r.bound == cls.lower_bound(r.n, r.k) for r in reports)
