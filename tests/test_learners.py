import gc
import hashlib
import math
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from graphquery import bounds
from graphquery.adversaries import ContractionAdversary, SeparabilityAdversary, UnknownCountAdversary
from graphquery.graphs import Graph, complete_graph, connected_components, empty_graph, format_edge_list
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

from conftest import check_trace_invariants, graphs, path_graph


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
    for learner in _SIZED_LEARNERS:
        for n in (0, -1):
            with pytest.raises(ValueError, match="^n must be positive$"):
                learner(session, n)
    assert session.ledger.count == 0


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


def _representative_transcripts(trials: int, seed: int) -> str:
    """sha256 over the JSONL ledgers, answers and query counts of
    `learn_partition_representatives` on seeded shuffled orders: honest
    oracles on random partitions with up to 30 vertices, k known and
    unknown; the separability and contraction adversaries for every
    2 <= k <= n <= 14; and the unknown-count adversary for every
    1 <= k <= n <= 12. Every adversary's verdict and its detail are
    hashed too."""
    rng = random.Random(seed)
    digest = hashlib.sha256()

    def record(session, result) -> None:
        digest.update(f"{result.answer.to_json()}|{result.queries_used}\n".encode())
        digest.update(session.ledger.to_jsonl().encode())

    for _ in range(trials):
        n = rng.randint(1, 30)
        hidden = random_partition_graph(n, rng.randint(1, n), rng.randrange(1 << 30))
        order = rng.sample(range(n), n)
        for k_known in (connected_components(hidden).k, None):
            session = HonestOracle(hidden)
            record(session, learn_partition_representatives(session, n, k_known, order))
    cells = [(cls, n, k) for n in range(2, 15) for k in range(2, n + 1)
             for cls in (SeparabilityAdversary, ContractionAdversary)]
    cells += [(UnknownCountAdversary, n, k) for n in range(1, 13) for k in range(1, n + 1)]
    for cls, n, k in cells:
        adv = cls(n, k)
        k_known = None if cls is UnknownCountAdversary else k
        result = learn_partition_representatives(adv, n, k_known, rng.sample(range(n), n))
        record(adv, result)
        verdict = adv.declare(result.answer)
        witness = verdict.witness.to_json() if verdict.witness else "-"
        digest.update(f"{verdict.forced}|{witness}|{verdict.detail}\n".encode())
    return digest.hexdigest()


# the representative learner's transcripts on shuffled orders are
# independent of how it stores its blocks
REPRESENTATIVE_TRANSCRIPT_DIGEST = "77e63cca372732365826ddadffe9dd19e5f4eb7b6e483d183796fe7d434e5f92"


def test_representative_transcripts_are_pinned():
    assert _representative_transcripts(150, 2023) == REPRESENTATIVE_TRANSCRIPT_DIGEST


# ---------------------------------------------------------------- pooled

def test_count_components_examples():
    res = count_components_multi(HonestOracle(empty_graph(3)), 3)
    assert (res.answer, res.queries_used) == (3, 3)
    res = count_components_multi(HonestOracle(path_graph(4)), 4)
    assert (res.answer, res.queries_used) == (1, 4)
    with pytest.raises(ValueError, match="^n must be positive$"):
        count_components_multi(None, 0)  # checked before the session is read


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
    assert res.queries_used == n - 1 and res.answer == Partition.from_labels(range(n))


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


# sha256 of the JSONL ledger of each pooled learner on three seeded
# instances: how the learners build their query sets must not move a query
POOLED_LEDGER_DIGESTS = {
    (12, 3, 0): ("befe7c8c4ce7636faaca1fdf6153d55ae9e4884b41e6273656427c8e66309335",
                 "b3925dc0ce954efded53fe5c2e507c15664c985d098988698663c3ebb0494d07"),
    (20, 5, 1): ("113dfca80ce13cd51aacd0909b0f00d6623aeffbd860e3d8cb61ce9ac19d21f9",
                 "a80ae766d60537d78a436edcbba076ac422db1cb998586d4a71bd13d5f3e6438"),
    (31, 7, 2): ("387e6bca29ea87881f5434a5a8e65ffa6db4bc151bcb08d413b6e5c246ec440e",
                 "9f9969299659553ecac43cb2767f00b66d76b34f2bbc864dbf039b40e2e854a5"),
}


def test_pooled_ledgers_are_pinned():
    for (n, k, seed), digests in POOLED_LEDGER_DIGESTS.items():
        got = []
        for learner in (count_components_multi, learn_components_multi):
            session = HonestOracle(random_partition_graph(n, k, seed))
            learner(session, n)
            got.append(hashlib.sha256(session.ledger.to_jsonl().encode()).hexdigest())
        assert tuple(got) == digests, (n, k, seed)


def _trace_text(node) -> str:
    if node is None:
        return "-"
    children = "".join(_trace_text(c) for c in node.children)
    return f"({list(node.subset)},{node.answer},{int(node.queried)}{children})"


def _answer_text(answer) -> str:
    if isinstance(answer, Partition):
        return answer.to_json()
    if isinstance(answer, Graph):
        return format_edge_list(answer)
    if isinstance(answer, frozenset):
        return str(sorted(answer))
    return repr(answer)


def _set_query_transcripts(trials: int, seed: int) -> str:
    """sha256 over the JSONL ledgers, answers and query counts of every
    set-query learner and the verifier, plus `find_neighbors` traces, on
    seeded graphs with up to 60 vertices."""
    rng = random.Random(seed)
    digest = hashlib.sha256()

    def record(session, result) -> None:
        digest.update(f"{_answer_text(result.answer)}|{result.queries_used}\n".encode())
        digest.update(session.ledger.to_jsonl().encode())
        if result.trace is not None:
            digest.update(_trace_text(result.trace.root).encode())

    for trial in range(trials):
        n = rng.randint(1, 60)
        if trial % 2:
            hidden = random_partition_graph(n, rng.randint(1, n), rng.randrange(1 << 30))
        else:
            top = n * (n - 1) // 2
            hidden = random_edge_graph(n, rng.randint(0, min(top, 3 * n)), rng.randrange(1 << 30))
        for learner in (count_components_multi, learn_components_multi, learn_graph_neighborhood):
            session = HonestOracle(hidden)
            record(session, learner(session, n))
        candidates = [hidden]
        if n >= 2:
            u, v = rng.sample(range(n), 2)
            candidates.append(Graph(n, hidden.edges ^ {(min(u, v), max(u, v))}))
        for candidate in candidates:  # accept, then reject
            session = HonestOracle(hidden)
            record(session, verify_graph_neighborhood(session, candidate))
        if n >= 2:
            session = HonestOracle(hidden)
            for v in rng.sample(range(n), min(n, 4)):
                others = [u for u in range(n) if u != v]
                probed = rng.sample(others, rng.randint(1, len(others)))
                record(session, find_neighbors(session, v, probed))
    return digest.hexdigest()


# every set-query transcript: ledgers, answers, counts and traces are
# independent of how the learners and the oracle store their vertex sets
SET_QUERY_TRANSCRIPT_DIGEST = "58700fc75be21ca8a12f035c7f3065fac1ca3b88e758cb5091c7b17a6e69c6cf"


def test_set_query_transcripts_are_pinned():
    assert _set_query_transcripts(150, 2008) == SET_QUERY_TRANSCRIPT_DIGEST


def _components_and_all_pairs(trials: int, seed: int) -> str:
    """sha256 over `connected_components` on seeded graphs, path unions with
    up to 800 vertices among them, and over the JSONL ledgers and answers of
    `learn_partition_all_pairs` on seeded random-partition graphs with up to
    40 vertices."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(trials):
        n = rng.randint(1, 60)
        top = n * (n - 1) // 2
        hidden = random_edge_graph(n, rng.randint(0, min(top, 2 * n)), rng.randrange(1 << 30))
        digest.update(connected_components(hidden).to_json().encode())
    for n, k in ((200, 1), (400, 8), (600, 12), (800, 1), (800, 16)):
        labels = rng.sample(range(n), n)
        cuts = sorted(rng.sample(range(1, n), k - 1))
        blocks = [labels[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
        # one path per block, in shuffled label order
        hidden = Graph.from_edges(n, ((b[i], b[i + 1]) for b in blocks for i in range(len(b) - 1)))
        digest.update(connected_components(hidden).to_json().encode())
    for _ in range(trials):
        n = rng.randint(1, 40)
        session = HonestOracle(random_partition_graph(n, rng.randint(1, n), rng.randrange(1 << 30)))
        result = learn_partition_all_pairs(session, n)
        digest.update(f"{result.answer.to_json()}|{result.queries_used}\n".encode())
        digest.update(session.ledger.to_jsonl().encode())
    return digest.hexdigest()


# components and the all-pairs learner's transcripts are independent of how
# graphs store their neighbours and how the learner merges known classes
COMPONENTS_AND_ALL_PAIRS_DIGEST = "48aa00e86e6997aa72d5de4da0bd214e671d4a0c62cef61a29c81a5c98bc9ebb"


def test_components_and_all_pairs_transcripts_are_pinned():
    assert _components_and_all_pairs(150, 2020) == COMPONENTS_AND_ALL_PAIRS_DIGEST


# ---------------------------------------------------------------- neighborhood

def star_session(n, neighbors):
    """Hidden graph where vertex 0's neighborhood is exactly `neighbors`."""
    return HonestOracle(Graph.from_edges(n, [(0, v) for v in neighbors]))


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


def test_neighbor_search_leaves_no_cyclic_garbage():
    # a finished neighbour search is freed by reference counting alone, so
    # the many searches of a long run do not pile up for the cyclic collector
    session = star_session(9, [2, 3, 7])
    gc.collect()
    gc.disable()
    try:
        for subset in (range(1, 9), [5], [3], range(4, 7)):
            find_neighbors(session, 0, subset)
        assert gc.collect() == 0
    finally:
        gc.enable()


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


def test_find_neighbors_checks_its_set_before_any_query():
    # a stray huge label is rejected from the list, never built into a mask
    session = HonestOracle(Graph.from_edges(4, [(0, 1)]))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^vertex {2**24} out of range for n=4$"):
            find_neighbors(session, 0, [1, 2, 2**24])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert session.ledger.count == 0
    assert peak < 64 * 1024


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
        n = 3

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


@pytest.mark.parametrize("candidate_n", [3, 5])
def test_verify_refuses_a_candidate_over_another_vertex_set(candidate_n):
    # a candidate with fewer or more vertices than the hidden graph is not
    # checked at all, so no query is spent on it
    session = HonestOracle(Graph.from_edges(4, [(0, 3)]))
    with pytest.raises(ValueError, match="^candidate and hidden graphs have different vertex counts$"):
        verify_graph_neighborhood(session, Graph.from_edges(candidate_n, []))
    assert session.ledger.count == 0


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


# ---------------------------------------------------------------- session size

_SIZED_LEARNERS = [
    learn_partition_representatives,
    learn_partition_all_pairs,
    count_components_multi,
    learn_components_multi,
    learn_graph_neighborhood,
]


@pytest.mark.parametrize("learner", _SIZED_LEARNERS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("make_session", [
    lambda: HonestOracle(Graph.from_edges(8, [(0, 1), (5, 6), (6, 7)])),
    lambda: SeparabilityAdversary(8, 3),
], ids=["honest", "separability"])
@pytest.mark.parametrize("n", [0, 7, 9])
def test_learners_reject_an_n_the_session_does_not_have(learner, make_session, n):
    # a smaller n used to learn a wrong answer on the first n vertices, a
    # larger one to fail only after some queries, and n = 0 to count no
    # components without reading the session
    session = make_session()
    message = "n must be positive" if n == 0 else f"n={n} but the session has 8 vertices"
    with pytest.raises(ValueError, match=f"^{message}$"):
        learner(session, n)
    assert session.ledger.count == 0
