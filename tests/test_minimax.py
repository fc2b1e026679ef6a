import random

import pytest

from graphquery import bounds, minimax
from graphquery.minimax import (
    InstanceTooLargeError,
    _new_game,
    information_bound_check,
    minimax_query_complexity,
)

from conftest import brute_force_minimax


def test_alpha_spot_values():
    assert minimax_query_complexity(3, 2) == 2
    assert minimax_query_complexity(4, 3) == 5
    assert minimax_query_complexity(3, 1) == 0


def test_alpha_matches_formula_small():
    for n in range(2, 6):
        for k in range(2, n + 1):
            assert minimax_query_complexity(n, k) == bounds.minimax_known_formula(n, k)


def test_alpha_unknown_forces_all_pairs():
    for n in range(1, 6):
        assert minimax_query_complexity(n) == bounds.minimax_unknown_formula(n)


def test_monotone_in_n_for_fixed_k():
    values = [minimax_query_complexity(n, 3) for n in range(3, 7)]
    assert values == sorted(values)


def test_memoized_resolve_is_stable():
    first = minimax_query_complexity(5, 3)
    second = minimax_query_complexity(5, 3)
    assert first == second == bounds.minimax_known_formula(5, 3)


def test_guards(monkeypatch):
    with pytest.raises(InstanceTooLargeError):
        minimax_query_complexity(8, 3)
    with pytest.raises(InstanceTooLargeError):
        minimax_query_complexity(7)
    with pytest.raises(InstanceTooLargeError):
        minimax_query_complexity(6, 3, "alpha_m")
    with pytest.raises(ValueError):
        minimax_query_complexity(4, 2, "gamma")
    with pytest.raises(ValueError):
        minimax_query_complexity(4, 5)
    # alpha at n=7 takes k <= 4 only: k = 5..7 would each run for close to a minute
    for k in (5, 6, 7):
        with pytest.raises(InstanceTooLargeError, match="k <= 4 at n=7"):
            minimax_query_complexity(7, k)
    with pytest.raises(ValueError, match="k must lie in 1..7"):
        minimax_query_complexity(7, 8)

    # (7, 3) and (7, 4) pass the guards and reach the solver; solving (7, 4)
    # takes seconds, so the solver is stubbed out here ((7, 3)'s value is
    # pinned in test_alpha_values_at_six_and_seven_meet_the_formulas)
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached(args)

    monkeypatch.setattr(minimax, "_new_game", reached)
    for k in (1, 3, 4):
        with pytest.raises(Reached):
            minimax_query_complexity(7, k)


def test_relabel_canonicalization_preserves_values():
    # canonicalize=True is still accepted and changes no value
    for n in range(2, 6):
        for k in (2, 3, None):
            if k is not None and k > n:
                continue
            plain = minimax_query_complexity(n, k)
            canon = minimax_query_complexity(n, k, canonicalize=True)
            assert plain == canon, (n, k)


@pytest.mark.parametrize("kind, n_max", [("alpha", 5), ("alpha_m", 4)])
def test_pruned_solver_matches_brute_force(kind, n_max):
    # the balanced ordering, the floor cut and the pool restriction change
    # no value against a plain search over every raw query
    for n in range(1, n_max + 1):
        for k in [*range(1, n + 1), None]:
            expected = brute_force_minimax(n, k, kind)
            assert minimax_query_complexity(n, k, kind) == expected, (kind, n, k)


def test_alpha_values_at_six_and_seven_meet_the_formulas():
    for k in range(1, 7):
        assert minimax_query_complexity(6, k) == bounds.minimax_known_formula(6, k), k
    assert minimax_query_complexity(6) == bounds.minimax_unknown_formula(6)
    assert minimax_query_complexity(7, 3) == 11


@pytest.mark.parametrize("kind", ["alpha", "alpha_m"])
def test_windowed_value_keeps_its_contract(kind):
    # value(mask, beta) is exact below beta and at least beta otherwise, and
    # the bounds a window proves never pass for exact values later. Some sets
    # are drawn from the partitions with at least 4 blocks: an alpha query
    # splits one of them off at a time, so alpha values there lie far above
    # ceil(log2 count), and windows fail high at the root and below it
    rng = random.Random(f"window/{kind}")
    cands, _ = _new_game(5, None, kind)
    every = range(len(cands))
    fine = [i for i, p in enumerate(cands) if p.k >= 4]
    failed_high = 0
    for pool, size in [(every, 4), (every, 6), (every, 8), (every, 10), (every, 12),
                       (fine, 5), (fine, 7), (fine, 9), (fine, 11)]:
        picked = rng.sample(pool, size)
        mask = sum(1 << i for i in picked)
        expected = brute_force_minimax(5, None, kind, live=[cands[i] for i in picked])
        _, game = _new_game(5, None, kind)
        for beta in range(1, expected + 2):
            got = game.value(mask, beta)
            if expected < beta:
                assert got == expected, (size, beta)
            else:
                assert got >= beta, (size, beta)
        failed_high += bool(game.lower)
        assert game.value(mask) == expected, size
    if kind == "alpha":
        # the checks above have a subject; pooled queries meet
        # ceil(log2 count) on every set here, so their windows never fail high
        assert failed_high


def test_alpha_m_values_at_five_are_frozen():
    # brute_force_minimax gives these too, but takes about a minute at n=5
    values = [minimax_query_complexity(5, k, "alpha_m") for k in (1, 2, 3, 4, 5, None)]
    assert values == [0, 4, 6, 6, 6, 6]


def test_pooled_queries_beat_pairwise_information():
    assert information_bound_check(3, 2) == (2, minimax_query_complexity(3, 2, "alpha_m"))
    lower, value = information_bound_check(4, 2)
    assert lower == 3 and value >= 3
    lower, value = information_bound_check(4, 1)
    assert lower == 0 and value >= 0


def test_information_bound_all_small_cases():
    for n in range(1, 6):
        for k in range(1, n + 1):
            lower, value = information_bound_check(n, k)
            assert lower <= value


def test_pooled_queries_never_worse_than_pairwise():
    # every pairwise query is available as a pooled query with the same
    # split, so the pooled game value cannot exceed the pairwise one
    for n in range(2, 6):
        for k in list(range(1, n + 1)) + [None]:
            pooled = minimax_query_complexity(n, k, "alpha_m")
            pairwise = minimax_query_complexity(n, k, "alpha")
            assert pooled <= pairwise, (n, k)
