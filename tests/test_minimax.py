import random
from itertools import combinations

import pytest

from graphquery import bounds
from graphquery.coloring import SEARCH_STATS, proper_partitions
from graphquery._canon import code
from graphquery.graphs import Graph
from graphquery import minimax
from graphquery.minimax import (
    InstanceTooLargeError,
    _new_game,
    information_bound_check,
    minimax_query_complexity,
)

from conftest import brute_force_minimax, labelled_graphs, reset_search_stats, twin_swap_orbits


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


def test_guards():
    with pytest.raises(InstanceTooLargeError):
        minimax_query_complexity(8, 3)
    with pytest.raises(InstanceTooLargeError):
        minimax_query_complexity(8)
    with pytest.raises(InstanceTooLargeError):
        minimax_query_complexity(9, 3, "alpha_m")
    with pytest.raises(ValueError):
        minimax_query_complexity(4, 2, "gamma")
    with pytest.raises(ValueError):
        minimax_query_complexity(4, 5)
    with pytest.raises(ValueError, match="k must lie in 1..7"):
        minimax_query_complexity(7, 8)
    with pytest.raises(ValueError, match="k must lie in 1..7"):
        minimax_query_complexity(7, 0)


def test_alpha_at_seven_with_large_or_unknown_k_meets_the_formulas():
    # every k and k unknown at n=7 is inside the guards and solves in well
    # under a second each
    values = [minimax_query_complexity(7, k) for k in (4, 5, 6, 7)]
    assert values == [bounds.minimax_known_formula(7, k) for k in (4, 5, 6, 7)]
    assert values == [15, 18, 20, 21]
    assert minimax_query_complexity(7) == bounds.minimax_unknown_formula(7) == 21


@pytest.mark.parametrize("k, value", [(2, 7), (3, 13), (4, 18)])
def test_alpha_at_eight_with_small_k_meets_the_formula(k, value):
    # n=8 is past the guard, so the game is played directly; (8, 4) takes
    # about a second
    game, root, count = _new_game(8, k, "alpha")
    assert game.value(root, count) == bounds.minimax_known_formula(8, k) == value


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


def _random_graph(n, density, rng):
    """Neighbour bitmasks of a seeded random graph on n vertices."""
    nbrs = [0] * n
    for u, v in combinations(range(n), 2):
        if rng.random() < density:
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
    return tuple(nbrs)


def _edges(h):
    return [(u, v) for u, v in combinations(range(len(h)), 2) if h[u] >> v & 1]


def _alpha_window_cases(rng):
    # auxiliary graphs on 5 vertices, k unknown: the live candidates are
    # H's proper partitions. Sparse graphs keep many partitions alive, and
    # an alpha query splits one of them off at a time, so their values lie
    # far above ceil(log2 count) and windows fail high at the root and below it
    for density in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
        h = _random_graph(5, density, rng)
        live = proper_partitions(Graph.from_edges(5, _edges(h)), 5)
        yield h, len(live), live


def _alpha_m_window_cases(rng):
    # candidate masks over every partition of 5 vertices; some are drawn
    # from the partitions with at least 4 blocks
    cands = proper_partitions([0] * 5, 5)
    every = range(len(cands))
    fine = [i for i, p in enumerate(cands) if p.k >= 4]
    for pool, size in [(every, 4), (every, 6), (every, 8), (every, 10), (every, 12),
                       (fine, 5), (fine, 7), (fine, 9), (fine, 11)]:
        picked = rng.sample(pool, size)
        yield sum(1 << i for i in picked), size, [cands[i] for i in picked]


@pytest.mark.parametrize("kind", ["alpha", "alpha_m"])
def test_windowed_value_keeps_its_contract(kind):
    # value(state, count, beta) is exact below beta and at least beta
    # otherwise, and the bounds a window proves never pass for exact values
    # later
    rng = random.Random(f"window/{kind}")
    cases = _alpha_window_cases(rng) if kind == "alpha" else _alpha_m_window_cases(rng)
    failed_high = 0
    for state, count, live in cases:
        expected = brute_force_minimax(5, None, kind, live=live)
        game, _, _ = _new_game(5, None, kind)
        for beta in range(1, expected + 2):
            got = game.value(state, count, beta)
            if expected < beta:
                assert got == expected, (count, beta)
            else:
                assert got >= beta, (count, beta)
        failed_high += bool(game.lower)
        assert game.value(state, count) == expected, count
    if kind == "alpha":
        # the checks above have a subject; pooled queries meet
        # ceil(log2 count) on every set here, so their windows never fail high
        assert failed_high


def test_alpha_value_is_invariant_under_relabelling():
    rng = random.Random("relabel")
    for _ in range(30):
        n = rng.randint(4, 6)
        h = _random_graph(n, rng.choice((0.1, 0.2, 0.3, 0.5)), rng)
        perm = rng.sample(range(n), n)
        relabelled = [0] * n
        for u, v in _edges(h):
            relabelled[perm[u]] |= 1 << perm[v]
            relabelled[perm[v]] |= 1 << perm[u]
        relabelled = tuple(relabelled)
        k = rng.randint(2, n)
        count = len(proper_partitions(Graph.from_edges(n, _edges(h)), k))
        game, _, _ = _new_game(n, k, "alpha")
        value = game.value(h, count)
        stored = dict(game.exact), dict(game.lower)
        # the relabelled graph is a memo hit, and a fresh game agrees
        assert game.value(relabelled, count) == value, (h, perm, k)
        assert (game.exact, game.lower) == stored
        fresh, _, _ = _new_game(n, k, "alpha")
        assert fresh.value(relabelled, count) == value, (h, perm, k)


def test_alpha_memos_hold_one_entry_per_isomorphism_class():
    # 208 graphs on at most 6 vertices: a key that fell back to labelled
    # graphs would store far more
    game, root, count = _new_game(6, None, "alpha")
    assert game.value(root, count) == bounds.minimax_unknown_formula(6)
    assert len(game.exact) + len(game.lower) <= 208


def test_alpha_m_values_at_five_are_frozen():
    # brute_force_minimax gives these too, but takes about a minute at n=5
    values = [minimax_query_complexity(5, k, "alpha_m") for k in (1, 2, 3, 4, 5, None)]
    assert values == [0, 4, 6, 6, 6, 6]


@pytest.mark.parametrize("n, values", [
    (6, [5, 8, 8, 8, 8, 8]),
    (7, [6, 9, 10, 10, 10, 10, 10]),
])
def test_alpha_m_values_at_six_and_seven_are_frozen(n, values):
    # k = 2..n, then k unknown; with k unknown the value meets
    # ceil(log2 B(n)) = 8 and 10
    ks = [*range(2, n + 1), None]
    assert [minimax_query_complexity(n, k, "alpha_m") for k in ks] == values


@pytest.mark.parametrize(
    "n, k, kind, counts",
    [
        (6, 3, "alpha", (18, 462)),
        (6, None, "alpha", (159, 2682)),
        (7, 3, "alpha", (36, 1878)),
        (5, None, "alpha_m", (1, 75)),
    ],
)
def test_minimax_search_counts_are_pinned(n, k, kind, counts):
    # (invocations, nodes) of the colouring searches one game runs: a change
    # to the search or to how the game stops it must not move these
    reset_search_stats()
    minimax_query_complexity(n, k, kind)
    assert (SEARCH_STATS["invocations"], SEARCH_STATS["nodes"]) == counts


@pytest.mark.parametrize("n, k, calls, memos", [
    (6, 3, 17, (16, 1)),
    (6, None, 598, (26, 151)),
    (7, 3, 37, (25, 7)),
])
def test_alpha_code_calls_and_memo_sizes_are_pinned(monkeypatch, n, k, calls, memos):
    # one move per twin orbit keys fewer labelled states (52, 1011 and 156
    # with every pair), and the memos it ends with keep their sizes
    coded = []

    def counted(h):
        coded.append(h)
        return code(h)

    monkeypatch.setattr(minimax, "code", counted)
    game, root, count = _new_game(n, k, "alpha")
    game.value(root, count)
    assert len(coded) == calls
    assert (len(game.exact), len(game.lower)) == memos


def _plain_splits(h, k):
    """{pair bitmask: (larger count, smaller count)} of every informative
    pair of H, each half counted by its own colouring search."""
    total = len(proper_partitions(h, k))
    out = {}
    for a, b in combinations(range(len(h)), 2):
        if h[a] >> b & 1:
            continue
        plus = list(h)
        plus[a] |= 1 << b
        plus[b] |= 1 << a
        zeros = len(proper_partitions(plus, k))
        if 0 < zeros < total:
            out[1 << a | 1 << b] = (max(zeros, total - zeros), min(zeros, total - zeros))
    return total, out


def test_alpha_moves_hit_each_informative_twin_orbit_once():
    # swapping twins of H is an automorphism, so `splits` keeps one move per
    # orbit of twin swaps; every dropped move has a kept move's counts
    for n in range(2, 6):
        games = {k: _new_game(n, k, "alpha")[0] for k in (2, 3, None) if k is None or k <= n}
        for h in labelled_graphs(n):
            pair_orbits = [orbit for orbit in twin_swap_orbits(h)
                           if next(iter(orbit)).bit_count() == 2]
            for k, game in games.items():
                total, plain = _plain_splits(h, n if k is None else k)
                kept = []
                for size, large, small_size, small in game.splits(h, total):
                    plus = large if len(large) == n else small
                    pair = sum(1 << v for v in range(n) if plus[v] != h[v])
                    assert (size, small_size) == plain[pair], (h, k)
                    kept.append(pair)
                for orbit in pair_orbits:
                    hits = sum(pair in orbit for pair in kept)
                    assert hits == (not orbit.isdisjoint(plain)), (h, k, orbit)


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
        # with k unknown every partition is a candidate: Bell(n) of them
        lower, value = information_bound_check(n, None)
        assert lower == bounds.information_lower_unknown(n)
        assert value == minimax_query_complexity(n, None, "alpha_m") >= lower
    # the game is solved first, so bad input fails with the solver's message
    for n, k in [(0, None), (-1, 2)]:
        with pytest.raises(ValueError, match="n must be positive"):
            information_bound_check(n, k)
    with pytest.raises(ValueError, match="k must lie in 1..3"):
        information_bound_check(3, 4)


def test_pooled_queries_never_worse_than_pairwise():
    # every pairwise query is available as a pooled query with the same
    # split, so the pooled game value cannot exceed the pairwise one
    for n in range(2, 6):
        for k in list(range(1, n + 1)) + [None]:
            pooled = minimax_query_complexity(n, k, "alpha_m")
            pairwise = minimax_query_complexity(n, k, "alpha")
            assert pooled <= pairwise, (n, k)
