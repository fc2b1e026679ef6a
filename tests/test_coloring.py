import gc
import random
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from graphquery.coloring import (
    BudgetExceededError,
    Coloring,
    SEARCH_STATS,
    find_k_coloring,
    is_k_separable,
    is_uniquely_k_colorable,
    proper_partitions,
    reset_search_stats,
)
from graphquery.graphs import (
    Graph,
    complete_graph,
    empty_graph,
    normalize_edge,
)
from graphquery.partitions import Partition

from conftest import (
    brute_force_proper_partitions,
    brute_force_separable,
    cycle_graph,
    graphs,
    path_graph,
)


def k4_minus_edge():
    return Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_triangle_needs_three_colors():
    assert find_k_coloring(complete_graph(3), 2) is None
    assert find_k_coloring(complete_graph(3), 3) is not None


def test_forbidden_pair_in_near_clique():
    # the nonadjacent pair of a (k+1)-clique minus one edge cannot separate
    assert is_k_separable(k4_minus_edge(), 0, 1, 3) is None
    assert is_k_separable(k4_minus_edge(), 1, 0, 3) is None
    assert find_k_coloring(k4_minus_edge(), 3) is not None


def test_forbidden_pair_in_four_cycle():
    # oracle: enumerate both proper 2-colorings of the 4-cycle directly
    c4 = cycle_graph(4)
    for assign in product((1, 2), repeat=4):
        if all(assign[u] != assign[v] for u, v in c4.edges):
            assert assign[0] == assign[2]
    assert is_k_separable(c4, 0, 2, 2) is None
    assert is_k_separable(c4, 2, 0, 2) is None


def test_find_coloring_output_is_proper_and_deterministic():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    a = find_k_coloring(g, 3)
    b = find_k_coloring(g, 3)
    assert a == b
    assert a.is_proper(g)


def test_find_coloring_rejects_bad_inputs():
    with pytest.raises(ValueError):
        find_k_coloring(path_graph(3), 0)
    with pytest.raises(ValueError):
        is_k_separable(path_graph(3), 0, 1, 2)  # an edge
    with pytest.raises(ValueError):
        is_k_separable(path_graph(3), 1, 1, 2)


def test_separable_edgeless_pair():
    col = is_k_separable(empty_graph(4), 0, 1, 2)
    assert col is not None and col.colors[0] != col.colors[1]


def test_inseparable_near_clique_pair():
    assert is_k_separable(k4_minus_edge(), 0, 1, 3) is None


def test_separable_four_cycle_with_three_colors():
    c4 = cycle_graph(4)
    assert brute_force_separable(c4, 0, 2, 3)
    col = is_k_separable(c4, 0, 2, 3)
    assert col is not None and col.is_proper(c4) and col.colors[0] != col.colors[2]


def test_separable_rejects_adjacent_pair():
    with pytest.raises(ValueError):
        is_k_separable(path_graph(3), 0, 1, 2)


def test_unique_colorability_examples():
    assert is_uniquely_k_colorable(complete_graph(3), 3)
    assert is_uniquely_k_colorable(path_graph(3), 2)
    assert not is_uniquely_k_colorable(empty_graph(3), 2)


def test_unique_colorability_counts_partitions_not_labelings():
    # oracle: path 0-1-2 has exactly one proper partition among 2^3 colorings
    parts = brute_force_proper_partitions(path_graph(3), 2)
    assert parts == {Partition.from_blocks([[0, 2], [1]])}


@settings(max_examples=60)
@given(graphs(max_n=6), st.integers(1, 4))
def test_proper_partitions_match_brute_force(g, k):
    assert set(proper_partitions(g, k)) == brute_force_proper_partitions(g, k)


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=2, max_n=6), st.integers(1, 4), st.data())
def test_separability_agrees_with_brute_force(g, k, data):
    non_edges = [p for p in combinations(range(g.n), 2) if p not in g.edges]
    if not non_edges:
        return
    i, j = data.draw(st.sampled_from(non_edges))
    got = is_k_separable(g, i, j, k)
    expect = brute_force_separable(g, i, j, k)
    assert (got is not None) == expect
    if got is not None:
        assert got.is_proper(g) and got.colors[i] != got.colors[j]


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=2, max_n=6), st.integers(2, 4), st.data())
def test_separability_equals_colorability_after_adding_edge(g, k, data):
    # adding {i,j} leaves g k-colorable iff the pair is k-separable
    non_edges = [p for p in combinations(range(g.n), 2) if p not in g.edges]
    if not non_edges:
        return
    i, j = data.draw(st.sampled_from(non_edges))
    augmented = Graph(g.n, g.edges | {normalize_edge(i, j)})
    assert (is_k_separable(g, i, j, k) is not None) == (
        find_k_coloring(augmented, k) is not None
    )


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=2, max_n=6), st.integers(1, 3), st.data())
def test_adding_edges_never_separates(g, k, data):
    # a supergraph can only lose separating colorings
    non_edges = [p for p in combinations(range(g.n), 2) if p not in g.edges]
    if len(non_edges) < 2:
        return
    i, j = data.draw(st.sampled_from(non_edges))
    extra = data.draw(st.sampled_from([p for p in non_edges if p != (i, j)]))
    if is_k_separable(g, i, j, k) is None:
        assert is_k_separable(Graph(g.n, g.edges | {normalize_edge(*extra)}), i, j, k) is None


def test_separability_brute_force_at_eight_vertices():
    # seeded spot checks at the largest size the exhaustive oracle can take
    rng = random.Random(8)
    pairs = list(combinations(range(8), 2))
    for _ in range(10):
        g = Graph(8, frozenset(rng.sample(pairs, rng.randint(0, 14))))
        non_edges = [p for p in pairs if p not in g.edges]
        if not non_edges:
            continue
        i, j = rng.choice(non_edges)
        k = rng.randint(1, 3)
        assert (is_k_separable(g, i, j, k) is not None) == brute_force_separable(g, i, j, k)


@lru_cache(maxsize=None)
def _restricted_growth_tuples(n, k):
    """Color tuples in lexicographic order where each vertex opens at most
    the next unused color: one tuple per partition into at most k classes."""
    out = []
    for colors in product(range(1, k + 1), repeat=n):
        top = 0
        for c in colors:
            if c > top + 1:
                break
            top = max(top, c)
        else:
            out.append(colors)
    return tuple(out)


def _reference_colorings(g, k, forbidden=None):
    return [
        colors
        for colors in _restricted_growth_tuples(g.n, k)
        if all(colors[u] != colors[v] for u, v in g.edges)
        and (forbidden is None or colors[forbidden[0]] != colors[forbidden[1]])
    ]


def test_search_order_matches_lexicographic_reference():
    # the search order is part of the contract: adversary colorings,
    # witnesses and verdicts all take the first solutions it yields
    rng = random.Random(1980)
    for _ in range(120):
        n = rng.randint(1, 8)
        k = rng.randint(1, 4)
        pairs = list(combinations(range(n), 2))
        g = Graph(n, frozenset(rng.sample(pairs, rng.randint(0, len(pairs)))))
        expect = [Coloring(colors, k).classes() for colors in _reference_colorings(g, k)]
        for given in (g, g.adjacency_masks()):
            for limit in (None, 1, 2):
                assert proper_partitions(given, k, limit) == expect[:limit]
        for i, j in [p for p in pairs if p not in g.edges][:3]:
            first = _reference_colorings(g, k, (i, j))[:1]
            for pair in ((i, j), (j, i)):
                got = is_k_separable(g, *pair, k)
                assert ([got.colors] if got is not None else []) == first


def test_budget_aborts_with_distinct_error():
    with pytest.raises(BudgetExceededError):
        find_k_coloring(empty_graph(12), 6, node_budget=10)


def test_search_stats_count_invocations():
    reset_search_stats()
    find_k_coloring(path_graph(4), 2)
    is_uniquely_k_colorable(path_graph(4), 2)
    assert SEARCH_STATS["invocations"] == 2
    assert SEARCH_STATS["nodes"] > 0


def test_search_leaves_no_cyclic_garbage():
    # a finished or abandoned search is freed by reference counting alone,
    # so long runs do not pile its state up for the cyclic collector
    g = cycle_graph(7)
    gc.collect()
    gc.disable()
    try:
        find_k_coloring(g, 3)
        find_k_coloring(g, 2)
        proper_partitions(g, 3, limit=2)
        is_k_separable(g, 0, 2, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_coloring_classes():
    col = Coloring((1, 2, 1), 2)
    assert col.classes() == Partition.from_blocks([[0, 2], [1]])
    with pytest.raises(ValueError):
        Coloring((1, 3), 2)


def test_resumed_search_matches_cold_search():
    # c is the first coloring of g; for a same-colored non-adjacent pair
    # u < v, every coloring up to the end of c[:v+1]'s subtree is improper
    # for g + uv, so resuming after that prefix must find the cold answer
    rng = random.Random(2007)
    checked = separable = 0
    for _ in range(300):
        n = rng.randint(2, 9)
        k = rng.randint(1, 4)
        pairs = list(combinations(range(n), 2))
        g = Graph(n, frozenset(rng.sample(pairs, rng.randint(0, len(pairs) // 2))))
        c = find_k_coloring(g, k)
        if c is None:
            continue
        for u, v in pairs:
            if (u, v) in g.edges or c.colors[u] != c.colors[v]:
                continue
            plus = Graph(n, g.edges | {(u, v)})
            cold = find_k_coloring(plus, k)
            assert find_k_coloring(plus, k, after=c.colors[: v + 1]) == cold
            assert find_k_coloring(plus.adjacency_masks(), k, after=c.colors[: v + 1]) == cold
            checked += 1
            separable += cold is not None
    # both outcomes occur often enough to matter
    assert checked > 500 and 100 < separable < checked - 100


def test_resume_prefix_must_be_a_search_path():
    g = empty_graph(4)
    for bad in [(2,), (1, 3), (0,), (1, 2, 3), (1, 1, 1, 1, 1)]:
        with pytest.raises(ValueError):
            find_k_coloring(g, 2, after=bad)
    # the full path of the last coloring has nothing after it
    assert find_k_coloring(g, 2, after=(1, 2, 2, 2)) is None
    assert find_k_coloring(g, 2, after=(1, 1)).colors == (1, 2, 1, 1)


def test_replayed_prefix_costs_no_nodes():
    g = empty_graph(10)
    reset_search_stats()
    assert find_k_coloring(g, 2, after=(1,) * 9 + (1,)).colors == (1,) * 9 + (2,)
    # only the last vertex is expanded: one node, color 2
    assert SEARCH_STATS["nodes"] == 1
