import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from graphquery import bounds
from graphquery.adversaries import SeparabilityAdversary, UnknownCountAdversary
from graphquery.graphs import Graph, complete_graph, connected_components, empty_graph
from graphquery.instances import random_edge_graph, random_partition_graph, worst_case_graph
from graphquery.learners import (
    OracleInconsistencyError,
    count_components_multi,
    find_neighbors,
    learn_components_multi,
    learn_graph_neighborhood,
    learn_partition_all_pairs,
    learn_partition_representatives,
    verify_graph_neighborhood,
)
from graphquery.oracles import HonestOracle
from graphquery.partitions import Partition

from conftest import graphs, path_graph


# ---------------------------------------------------------------- membership

def test_representatives_worst_case_counts():
    hidden = worst_case_graph(6, 3)
    known = learn_partition_representatives(HonestOracle(hidden), 6, k_known=3)
    assert known.queries_used == 9 == bounds.membership_known_count(6, 3)
    unknown = learn_partition_representatives(HonestOracle(hidden), 6)
    assert unknown.queries_used == 12 == bounds.membership_known_count(6, 3) + (6 - 3)
    truth = connected_components(hidden)
    assert known.answer == truth == unknown.answer


def test_representatives_single_component_known_is_free():
    res = learn_partition_representatives(HonestOracle(complete_graph(4)), 4, k_known=1)
    assert res.queries_used == 0
    assert res.answer == Partition.from_blocks([range(4)])


def test_representatives_validates_inputs():
    session = HonestOracle(empty_graph(3))
    with pytest.raises(ValueError):
        learn_partition_representatives(session, 3, k_known=4)
    with pytest.raises(ValueError):
        learn_partition_representatives(session, 3, order=[0, 1])


def test_representatives_reports_contradictory_k():
    # oracle has 1 component but the learner is promised 2: the second
    # representative never materializes and the learner must say so
    session = HonestOracle(complete_graph(3))
    with pytest.raises(OracleInconsistencyError):
        learn_partition_representatives(session, 3, k_known=2)


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=30, max_density=0.3), st.booleans())
def test_representatives_correct_and_bounded(g, tell_k):
    truth = connected_components(g)
    session = HonestOracle(g)
    res = learn_partition_representatives(
        session, g.n, k_known=truth.k if tell_k else None
    )
    assert res.answer == truth
    assert res.queries_used == session.ledger.count
    ceiling = bounds.membership_known_count(g.n, truth.k)
    if not tell_k:
        ceiling = bounds.membership_unknown_count(g.n, truth.k)
    assert res.queries_used <= ceiling


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=12))
def test_all_pairs_learner_correct(g):
    truth = connected_components(g)
    res = learn_partition_all_pairs(HonestOracle(g), g.n)
    assert res.answer == truth
    assert res.queries_used <= g.n * (g.n - 1) // 2


def test_representatives_forced_against_separability_adversary():
    for n in range(2, 10):
        for k in range(2, n + 1):
            adv = SeparabilityAdversary(n, k)
            res = learn_partition_representatives(adv, n, k_known=k)
            assert res.queries_used >= bounds.membership_known_count(n, k)
            assert adv.declare(res.answer).forced


def test_representatives_forced_against_unknown_count_adversary():
    for n in range(1, 9):
        for k in range(1, n + 1):
            adv = UnknownCountAdversary(n, k)
            res = learn_partition_representatives(adv, n)
            assert res.queries_used >= bounds.membership_unknown_count(n, k)
            assert adv.declare(res.answer).forced


# ---------------------------------------------------------------- pooled

def test_count_components_examples():
    res = count_components_multi(HonestOracle(empty_graph(3)), 3)
    assert (res.answer, res.queries_used) == (3, 3)
    res = count_components_multi(HonestOracle(path_graph(4)), 4)
    assert (res.answer, res.queries_used) == (1, 4)
    assert count_components_multi(None, 0).answer == 0
    assert count_components_multi(None, 0).queries_used == 0


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=30, max_density=0.3))
def test_count_components_exact_n_queries(g):
    truth = connected_components(g)
    res = count_components_multi(HonestOracle(g), g.n)
    assert res.answer == truth.k
    assert res.queries_used == bounds.count_components_queries(g.n)


def test_learn_components_extreme_instances():
    n = 7
    res = learn_components_multi(HonestOracle(complete_graph(n)), n)
    assert res.queries_used == n - 1 and res.answer == Partition.from_blocks([range(n)])
    res = learn_components_multi(HonestOracle(empty_graph(n)), n)
    assert res.queries_used == n - 1 and res.answer == Partition.singletons(n)


def test_learn_components_walkthrough_partition(figure_partition_graph):
    res = learn_components_multi(HonestOracle(figure_partition_graph), 6)
    assert res.answer == connected_components(figure_partition_graph)
    assert res.queries_used <= (6 - 1) * (1 + math.ceil(math.log2(3)))


@settings(max_examples=80, deadline=None)
@given(graphs(max_n=30, max_density=0.3))
def test_learn_components_correct_and_bounded(g):
    truth = connected_components(g)
    res = learn_components_multi(HonestOracle(g), g.n)
    assert res.answer == truth
    assert res.queries_used <= bounds.learn_components_ceiling(g.n, truth.k)


# ---------------------------------------------------------------- neighborhood

def star_session(n, neighbors):
    """Hidden graph where vertex 0's neighborhood is exactly `neighbors`."""
    return HonestOracle(Graph.from_edges(n, [(0, v) for v in neighbors]))


def check_trace_invariants(trace, ell):
    nodes = trace.nodes()
    blue = trace.blue_nodes()
    red = trace.red_nodes()
    if ell == 0:
        assert nodes == []
        return
    for node in red:
        assert not node.children
    by_id = {id(c): parent for parent in nodes for c in parent.children}
    for node in red:
        parent = by_id.get(id(node))
        assert parent is not None and parent.is_blue
    for parent in nodes:
        assert sum(1 for c in parent.children if not c.is_blue) <= 1
    assert len(nodes) <= 2 * len(blue)


def test_find_neighbors_isolated_costs_two():
    res = find_neighbors(star_session(9, []), 0, range(1, 9))
    assert res.answer == frozenset()
    assert res.queries_used == 2
    assert res.trace.nodes() == []


def test_find_neighbors_all_adjacent():
    res = find_neighbors(star_session(5, [1, 2, 3, 4]), 0, range(1, 5))
    assert res.answer == frozenset({1, 2, 3, 4})
    # probed sets: both halves, then four singletons; the root is deduced
    assert res.queries_used == 6


def test_find_neighbors_single_hit_in_eight():
    for hit in range(1, 9):
        res = find_neighbors(star_session(9, [hit]), 0, range(1, 9))
        assert res.answer == frozenset({hit})
        assert res.queries_used == 6 <= bounds.find_neighbors_ceiling(1, 8)


def test_find_neighbors_singleton_set():
    res = find_neighbors(star_session(2, [1]), 0, [1])
    assert res.answer == frozenset({1}) and res.queries_used == 1
    assert len(res.trace.nodes()) == 1
    res = find_neighbors(star_session(3, [2]), 0, [1])
    assert res.answer == frozenset() and res.queries_used == 1
    assert res.trace.nodes() == []


def test_find_neighbors_validates_input():
    session = star_session(4, [1])
    with pytest.raises(ValueError):
        find_neighbors(session, 0, [])
    with pytest.raises(ValueError):
        find_neighbors(session, 0, [0, 1])


@pytest.mark.parametrize("size", range(1, 13))
def test_find_neighbors_exhaustive_small_sets(size):
    universe = list(range(1, size + 1))
    for mask in range(1 << size):
        hits = [universe[i] for i in range(size) if (mask >> i) & 1]
        res = find_neighbors(star_session(size + 1, hits), 0, universe)
        assert res.answer == frozenset(hits)
        assert res.queries_used <= bounds.find_neighbors_ceiling(len(hits), size)
        check_trace_invariants(res.trace, len(hits))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 256), st.data())
def test_find_neighbors_random_large_sets(size, data):
    universe = list(range(1, size + 1))
    hits = sorted(data.draw(st.sets(st.sampled_from(universe), max_size=min(size, 12))))
    res = find_neighbors(star_session(size + 1, hits), 0, universe)
    assert res.answer == frozenset(hits)
    assert res.queries_used <= bounds.find_neighbors_ceiling(len(hits), size)
    check_trace_invariants(res.trace, len(hits))


def test_learn_graph_edgeless():
    res = learn_graph_neighborhood(HonestOracle(empty_graph(5)), 5)
    assert res.answer == empty_graph(5)
    assert res.queries_used == 10  # two per vertex


def test_learn_graph_single_edge():
    hidden = Graph.from_edges(4, [(0, 1)])
    res = learn_graph_neighborhood(HonestOracle(hidden), 4)
    assert res.answer == hidden


def test_learn_graph_random_seeded():
    hidden = random_edge_graph(10, 15, seed=1)
    session = HonestOracle(hidden)
    res = learn_graph_neighborhood(session, 10)
    assert res.answer == hidden
    ceiling = sum(bounds.find_neighbors_ceiling(hidden.degree(v), 9) for v in range(10))
    assert res.queries_used <= ceiling


def test_learn_graph_flags_asymmetric_oracle():
    class LyingSession:
        def __init__(self):
            self.ledger = HonestOracle(empty_graph(3)).ledger

        def neighborhood_query(self, v, subset):
            self.ledger.append("beta", (v, frozenset(subset)), 0)
            return 1 if v == 0 else 0

    with pytest.raises(OracleInconsistencyError):
        learn_graph_neighborhood(LyingSession(), 3)


def test_verify_accepts_star_in_exact_queries():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    session = HonestOracle(star)
    res = verify_graph_neighborhood(session, star)
    # 3 edge probes + 3 scans; the hub is adjacent to everyone, so no scan
    assert res.answer is True
    assert res.queries_used == bounds.verify_accept_queries(3, 3) == 6


def test_verify_rejects_extra_edge_in_phase_one():
    hidden = Graph.from_edges(4, [(0, 1), (2, 3)])
    candidate = Graph.from_edges(4, [(0, 1), (1, 2)])
    res = verify_graph_neighborhood(HonestOracle(hidden), candidate)
    assert res.answer is False
    assert res.queries_used <= candidate.m


def test_verify_rejects_missing_edge_in_phase_two():
    # candidate edges all real, but the hidden graph has one more
    hidden = Graph.from_edges(4, [(0, 1), (2, 3)])
    candidate = Graph.from_edges(4, [(0, 1)])
    res = verify_graph_neighborhood(HonestOracle(hidden), candidate)
    assert res.answer is False
    assert res.queries_used > candidate.m  # got past phase 1


@settings(max_examples=30, deadline=None)
@given(graphs(min_n=2, max_n=10))
def test_verify_accepts_iff_equal_on_swaps(g):
    session = HonestOracle(g)
    assert verify_graph_neighborhood(session, g).answer is True
    pairs = list(combinations(range(g.n), 2))
    non_edges = [p for p in pairs if p not in g.edges]
    rng = random.Random(0)
    swaps = [
        (e, f)
        for e in list(g.edges)[:3]
        for f in rng.sample(non_edges, min(3, len(non_edges)))
    ]
    for e, f in swaps:
        candidate = Graph(g.n, (g.edges - {e}) | {f})
        assert verify_graph_neighborhood(HonestOracle(g), candidate).answer is False


def test_queries_used_equals_ledger_delta():
    hidden = random_partition_graph(12, 3, seed=5)
    session = HonestOracle(hidden)
    first = learn_partition_representatives(session, 12)
    second = count_components_multi(session, 12)
    assert session.ledger.count == first.queries_used + second.queries_used
