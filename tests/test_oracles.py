import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphquery.adversaries import ContractionAdversary, SeparabilityAdversary, UnknownCountAdversary
from graphquery.graphs import Graph, VertexSet, connected_components, empty_graph
from graphquery.instances import random_edge_graph, random_partition_exactly, random_partition_graph
from graphquery.learners import (
    count_components_multi,
    find_neighbors,
    learn_components_multi,
    learn_graph_neighborhood,
    learn_partition_representatives,
    verify_graph_neighborhood,
)
from graphquery.ledger import (
    QueryLedger,
    honest_answer,
    replay_matches_partition,
)
from graphquery.oracles import HonestOracle
from graphquery.partitions import Partition

from conftest import graphs, replay_on_session


@pytest.fixture
def oracle(figure_partition_graph):
    return HonestOracle(figure_partition_graph)


def test_membership_examples(oracle):
    assert oracle.membership_query(0, 4) == 0
    assert oracle.membership_query(0, 1) == 1
    assert oracle.ledger.count == 2


def test_membership_rejects_self_and_range(oracle):
    with pytest.raises(ValueError):
        oracle.membership_query(5, 5)
    with pytest.raises(ValueError):
        oracle.membership_query(0, 6)


def _vertex_calls(name: str, hidden: Graph, bad: int) -> tuple[list, object]:
    """The calls of one entry point that take the vertex `bad`, in each
    position it can take, and the session whose ledger they must not touch."""
    partition = connected_components(hidden)
    accessors = {
        "Graph.neighbors": [lambda: hidden.neighbors(bad)],
        "Graph.degree": [lambda: hidden.degree(bad)],
        "Partition.block_mask": [lambda: partition.block_mask(bad)],
        "Partition.same_block": [lambda: partition.same_block(bad, 0), lambda: partition.same_block(0, bad)],
    }
    if name in accessors:
        return accessors[name], None
    n = hidden.n
    session = {
        "HonestOracle": HonestOracle(hidden),
        "SeparabilityAdversary": SeparabilityAdversary(n, 2),
        "UnknownCountAdversary": UnknownCountAdversary(n, 2),
        "ContractionAdversary": ContractionAdversary(n, 2),
    }[name]
    calls = [lambda: session.membership_query(bad, 0), lambda: session.membership_query(0, bad)]
    if name == "HonestOracle":
        calls += [lambda: session.multi_membership_query(bad, {0}),
                  lambda: session.neighborhood_query(bad, {0})]
    return calls, session


@pytest.mark.parametrize("bad", [-1, 6])
@pytest.mark.parametrize("name", [
    "Graph.neighbors", "Graph.degree", "Partition.block_mask", "Partition.same_block",
    "HonestOracle", "SeparabilityAdversary", "UnknownCountAdversary", "ContractionAdversary",
])
def test_every_vertex_check_rejects_minus_one_and_n(figure_partition_graph, name, bad):
    # -1 must not wrap around to vertex n - 1, and n must not reach past the end
    calls, session = _vertex_calls(name, figure_partition_graph, bad)
    for call in calls:
        with pytest.raises(ValueError, match=f"^vertex {bad} out of range for n=6$"):
            call()
    if session is not None:
        assert session.ledger.count == 0


def test_multi_membership_examples(oracle):
    assert oracle.multi_membership_query(5, {0, 1, 2, 3, 4}) == 0  # isolated block
    assert oracle.multi_membership_query(0, {3, 4, 1}) == 1
    assert oracle.multi_membership_query(0, frozenset()) == 0
    assert oracle.ledger.count == 3


def test_multi_membership_rejects_self_in_set(oracle):
    with pytest.raises(ValueError):
        oracle.multi_membership_query(2, {1, 2})


@pytest.mark.parametrize("vertex", [1, np.int64(1), np.int32(1)], ids=["int", "int64", "int32"])
@pytest.mark.parametrize("subset", [[1], {1, 2}, VertexSet.of([1])], ids=["list", "set", "vertex-set"])
def test_a_query_vertex_inside_its_set_is_refused_whatever_its_int_type(vertex, subset):
    # a numpy-int query vertex belongs to its set exactly as the int does
    session = HonestOracle(Graph.from_edges(4, [(0, 3)]))
    for query in (session.multi_membership_query, session.neighborhood_query):
        with pytest.raises(ValueError, match="^query vertex 1 must not belong to the set$"):
            query(vertex, subset)
    with pytest.raises(ValueError, match="^the probed set must not contain the vertex itself$"):
        find_neighbors(session, vertex, subset)
    assert session.ledger.count == 0


def test_neighborhood_examples():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    o = HonestOracle(star)
    assert o.neighborhood_query(0, {1, 2, 3}) == 1
    assert o.neighborhood_query(1, {2, 3}) == 0
    o2 = HonestOracle(empty_graph(3))
    assert o2.neighborhood_query(0, {1, 2}) == 0
    path = HonestOracle(Graph.from_edges(3, [(0, 1), (1, 2)]))
    assert path.neighborhood_query(0, {2}) == 0
    with pytest.raises(ValueError):
        o.neighborhood_query(1, {1, 2})


@given(graphs(min_n=2, max_n=8), st.data())
def test_honest_answers_are_stateless(g, data):
    o = HonestOracle(g)
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 1).filter(lambda x: x != u))
    first = o.membership_query(u, v)
    assert all(o.membership_query(u, v) == first for _ in range(3))
    rest = frozenset(range(g.n)) - {u}
    first_m = o.multi_membership_query(u, rest)
    assert o.multi_membership_query(u, rest) == first_m
    first_b = o.neighborhood_query(u, rest)
    assert o.neighborhood_query(u, rest) == first_b


def test_ledger_append_only_and_count(oracle):
    oracle.membership_query(0, 1)
    oracle.multi_membership_query(0, {3})
    entries = oracle.ledger.entries
    assert [json.loads(line)["index"] for line in oracle.ledger.to_jsonl().splitlines()] == [0, 1]
    assert oracle.ledger.count == 2
    oracle.membership_query(2, 3)
    assert entries == oracle.ledger.entries[:2]  # earlier view unchanged


def test_ledger_jsonl_round_trip(oracle):
    oracle.membership_query(0, 4)
    oracle.multi_membership_query(0, {3, 4, 1})
    oracle.neighborhood_query(5, {0, 1})
    text = oracle.ledger.to_jsonl()
    lines = text.strip().splitlines()
    assert '"kind": "alpha"' in lines[0] or '"kind":"alpha"' in lines[0].replace(" ", "")
    back = QueryLedger.from_jsonl(text)
    assert back.entries == oracle.ledger.entries
    assert back.to_jsonl() == text
    # blank lines, as a file edited by hand may hold, are skipped
    assert QueryLedger.from_jsonl("\n" + text.replace("\n", "\n  \n")).entries == back.entries
    assert replay_on_session(back.entries, HonestOracle(oracle.hidden))
    pooled = [e for e in back if e.kind != "beta"]
    assert len(pooled) == 2 and replay_matches_partition(pooled, oracle.hidden_partition)


def _reps_on_adversary(cls, order=None):
    adv = cls(12, 3)
    known = None if cls is UnknownCountAdversary else 3
    return adv.ledger, learn_partition_representatives(adv, 12, known, order).answer


def _reps_on_honest_numpy_order():
    session = HonestOracle(random_partition_graph(12, 3, seed=5))
    learn_partition_representatives(session, 12, order=list(np.arange(12)))
    assert all(type(e.args[1]) is np.int64 for e in session.ledger)
    return session.ledger, session.hidden_partition


def _honest_bool_and_numpy_vertices():
    session = HonestOracle(random_partition_graph(6, 2, seed=1))
    session.membership_query(True, np.int64(4))
    session.membership_query(np.int64(0), np.int64(5))
    session.multi_membership_query(np.int64(2), [True, np.int64(3)])
    session.multi_membership_query(False, VertexSet.of([np.int64(5)]))
    session.neighborhood_query(True, [np.int64(0), 2])
    assert '"args": [1, 4]' in session.ledger.to_jsonl().splitlines()[0]
    return session.ledger, session.hidden_partition


def _adversary_bool_and_numpy_vertices():
    adv = SeparabilityAdversary(6, 2)
    for pair in [(True, np.int64(3)), (np.int64(4), False), (False, 2)]:
        adv.membership_query(*pair)
    return adv.ledger, adv.chi_partition()


@pytest.mark.parametrize("session", [
    lambda: _reps_on_adversary(SeparabilityAdversary),
    lambda: _reps_on_adversary(UnknownCountAdversary),
    lambda: _reps_on_adversary(ContractionAdversary),
    lambda: _reps_on_adversary(UnknownCountAdversary, list(np.arange(12))),
    _reps_on_honest_numpy_order,
    _honest_bool_and_numpy_vertices,
    _adversary_bool_and_numpy_vertices,
], ids=["separability", "unknown-count", "contraction", "unknown-count-numpy-order",
        "honest-numpy-order", "honest-bool-and-numpy-vertices", "adversary-bool-and-numpy-vertices"])
def test_every_session_ledger_round_trips(session):
    # from_jsonl reads back what to_jsonl writes, byte for byte, whatever
    # int type the vertices had, and the reloaded entries replay on the
    # partition the session answered for
    ledger, partition = session()
    text = ledger.to_jsonl()
    assert "true" not in text and "false" not in text
    back = QueryLedger.from_jsonl(text)
    assert back.to_jsonl() == text and back.entries == ledger.entries
    assert all(type(e.args[0]) is int for e in back)
    assert replay_matches_partition([e for e in back if e.kind != "beta"], partition)


def test_ledger_rejects_bad_entries():
    ledger = QueryLedger()
    with pytest.raises(ValueError):
        ledger.append("gamma", (0, 1), 0)
    for answer in (2, -1, True, 1.0, False, 0.0):
        # True and 1.0 equal 1, but would write JSON that from_jsonl rejects
        with pytest.raises(ValueError, match="^answer must be a bit$"):
            ledger.append("alpha", (0, 1), answer)
    assert ledger.count == 0
    line = '{"kind": "alpha", "args": [0, 1], "answer": 0, "index": 1}'
    with pytest.raises(ValueError, match="entry index 1 does not match position 0"):
        QueryLedger.from_jsonl(line)
    # an index that equals its position but is no JSON integer writes back
    # other bytes
    first = '{"kind": "alpha", "args": [0, 1], "answer": 0, "index": 0}\n'
    second = '{"kind": "alpha", "args": [0, 2], "answer": 0, "index": 1}\n'
    for text, bad in [
        (first + '{"kind": "alpha", "args": [0, 2], "answer": 0, "index": true}', "True"),
        (first + second + '{"kind": "alpha", "args": [1, 2], "answer": 0, "index": 2.0}', "2.0"),
    ]:
        with pytest.raises(ValueError, match=f"entry index {bad} does not match position"):
            QueryLedger.from_jsonl(text)
    # entries no oracle records: each would fail to replay, replay wrongly,
    # or write back other bytes
    for kind, args, answer in [
        ("alpha", [1, 2, 3], 0),
        ("alpha", ["a", 2], 0),
        ("alpha", [1, 1], 1),
        ("alpha", [True, 2], 0),
        ("alpha_m", [0, [0]], 1),
        ("alpha_m", [-1, [0]], 1),
        ("alpha_m", [1, [3, 0]], 0),
        ("beta", [1, [0, 0]], 0),
        ("beta", [1, 2], 0),
        ("alpha", [0, 1], False),
        ("alpha", [0, 1], 1.0),
        ("gamma", [0, 1], 0),
    ]:
        line = json.dumps({"kind": kind, "args": args, "answer": answer, "index": 0})
        with pytest.raises(ValueError):
            QueryLedger.from_jsonl(line)
    with pytest.raises(ValueError, match="needs exactly the keys"):
        QueryLedger.from_jsonl('{"kind": "alpha", "args": [0, 1], "answer": 0}')


def test_jsonl_writer_writes_what_json_dumps_writes():
    # one writer for every entry: a frozenset writes as its sorted members,
    # and a bool vertex as the JSON integer from_jsonl loads, not true/false
    ledger, written = QueryLedger(), []
    for kind, args, answer, json_args in [
        ("alpha", (3, 1), 0, None),
        ("alpha", (True, 2), 1, [1, 2]),
        ("alpha_m", (2, VertexSet.of([0, 5, 130])), 1, None),
        ("beta", (0, VertexSet()), 0, None),
        ("beta", (4, VertexSet.of([1, 3])), 1, None),
        ("beta", (0, frozenset({1, 7, 2})), 0, None),
        ("alpha_m", (False, VertexSet.of([1])), 0, [0, [1]]),
    ]:
        e = ledger.append(kind, args, answer)
        written.append(json_args or (list(e.args) if e.kind == "alpha" else [e.args[0], sorted(e.args[1])]))
    expected = "".join(
        json.dumps({"kind": e.kind, "args": args, "answer": e.answer, "index": i}) + "\n"
        for i, (e, args) in enumerate(zip(ledger, written)))
    assert ledger.to_jsonl() == expected
    assert QueryLedger.from_jsonl(expected).to_jsonl() == expected
    # a vertex that is not an integer raises here, not in from_jsonl
    for kind, args in [("alpha", (1.0, 2)), ("alpha", (0, "3")), ("alpha_m", (2.5, VertexSet.of([0]))),
                       ("beta", (0, frozenset({1.0})))]:
        ledger = QueryLedger()
        ledger.append(kind, args, 0)
        with pytest.raises(TypeError):
            ledger.to_jsonl()


def test_every_query_appends_one_ledger_entry(monkeypatch, figure_partition_graph):
    # perfbench's ledger.* metrics wrap QueryLedger.append, so every query
    # method must reach it exactly once, on every answer path
    calls = []
    original = QueryLedger.append

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(QueryLedger, "append", counting)
    oracle = HonestOracle(figure_partition_graph)
    session_calls = [lambda: oracle.membership_query(0, 4), lambda: oracle.membership_query(1, 0),
                     lambda: oracle.multi_membership_query(5, {0, 3}),
                     lambda: oracle.neighborhood_query(0, [1, 5])]
    for call in session_calls:
        before = len(calls)
        call()
        assert len(calls) == before + 1
    # every pair twice covers each adversary's paths: a separated pair, a
    # free-color move, a search, an inseparable pair and its repeat, a
    # recoloring and a contraction
    for adv in (SeparabilityAdversary(5, 3), UnknownCountAdversary(5, 2), ContractionAdversary(5, 3)):
        start = len(calls)
        for pair in [(x, y) for x in range(5) for y in range(5) if x != y] * 2:
            before = len(calls)
            adv.membership_query(*pair)
            assert len(calls) == before + 1
        assert len(calls) - start == adv.ledger.count == 40
    assert len(calls) == 4 + 3 * 40


def test_replay_against_partition(oracle):
    oracle.membership_query(0, 4)
    oracle.membership_query(0, 1)
    oracle.multi_membership_query(5, {0, 1})
    truth = oracle.hidden_partition
    assert replay_matches_partition(oracle.ledger.entries, truth)
    wrong = Partition.from_blocks([[0, 4], [1, 2], [3, 5]])
    assert not replay_matches_partition(oracle.ledger.entries, wrong)
    # the alpha entries agree with this one, and only the set entry does not
    alpha_only = Partition.from_blocks([[0, 1, 5], [2, 3, 4]])
    assert replay_matches_partition(oracle.ledger.entries[:2], alpha_only)
    assert not replay_matches_partition(oracle.ledger.entries, alpha_only)


def test_replay_on_fresh_session(oracle, figure_partition_graph):
    oracle.membership_query(0, 4)
    oracle.neighborhood_query(5, {0, 1})
    fresh = HonestOracle(figure_partition_graph)
    assert replay_on_session(oracle.ledger.entries, fresh)


def test_replay_partition_rejects_beta():
    ledger = QueryLedger()
    ledger.append("beta", (0, frozenset({1})), 0)
    with pytest.raises(ValueError):
        replay_matches_partition(ledger.entries, Partition.from_labels(range(2)))
    # an entry naming a vertex past the partition is an error, not a silent
    # miss of the set member or a lookup that wraps around
    for kind, args in [("alpha", (0, 4)), ("alpha", (4, 0)), ("alpha_m", (4, VertexSet.of([0]))),
                       ("alpha_m", (0, VertexSet.of([1, 4]))), ("alpha_m", (0, frozenset({5})))]:
        ledger = QueryLedger()
        ledger.append(kind, args, 0)
        with pytest.raises(ValueError, match="outside 0..3"):
            replay_matches_partition(ledger.entries, Partition.from_labels(range(4)))


def test_declare_checks_ground_truth(oracle):
    truth = oracle.hidden_partition
    assert oracle.declare(truth).forced
    verdict = oracle.declare(Partition.from_labels(range(6)))
    assert not verdict.forced and verdict.witness == truth
    # one claim-size check, with one message, for the oracle and every adversary
    for session in (oracle, SeparabilityAdversary(6, 3), UnknownCountAdversary(6, 3),
                    ContractionAdversary(6, 3)):
        for size in (5, 7):
            with pytest.raises(ValueError, match="^claimed partition is over the wrong vertex set$"):
                session.declare(Partition.from_labels(range(size)))


def test_pooled_and_neighborhood_answers_match_brute_force():
    rng = random.Random(2021)
    ones = 0
    for _ in range(60):
        n = rng.randint(2, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        hidden = Graph(n, frozenset(rng.sample(pairs, rng.randint(0, len(pairs) // 3))))
        oracle = HonestOracle(hidden)
        truth = oracle.hidden_partition
        for _ in range(20):
            u = rng.randrange(n)
            s = {v for v in range(n) if v != u and rng.random() < 0.3}
            pooled = oracle.multi_membership_query(u, s)
            assert pooled == int(any(truth.same_block(u, v) for v in s))
            assert oracle.neighborhood_query(u, s) == int(any(v in hidden.neighbors(u) for v in s))
            ones += pooled
        pooled_entries = [e for e in oracle.ledger if e.kind == "alpha_m"]
        for e in pooled_entries:
            u, s = e.args
            assert honest_answer(e, truth) == int(any(truth.same_block(u, v) for v in s))
        assert replay_matches_partition(pooled_entries, truth)
    assert 100 < ones < 1100


@pytest.mark.parametrize("bad", [-1, 6])
def test_set_queries_name_an_out_of_range_member(oracle, bad):
    for query in (oracle.multi_membership_query, oracle.neighborhood_query):
        with pytest.raises(ValueError, match=f"vertex {bad} out of range for n=6"):
            query(0, {1, 2, bad})
        with pytest.raises(ValueError, match=f"vertex {bad} out of range for n=6"):
            query(0, [bad])
    assert oracle.ledger.count == 0


def test_set_queries_range_check_a_vertex_set_mask(oracle):
    for query in (oracle.multi_membership_query, oracle.neighborhood_query):
        for bad, mask in ((6, 1 << 6 | 0b110), (9, 1 << 9 | 1 << 12 | 0b10)):
            with pytest.raises(ValueError, match=f"vertex {bad} out of range for n=6"):
                query(0, VertexSet(mask))
        assert query(0, VertexSet(0b111110)) in (0, 1)
    assert oracle.ledger.count == 2
    assert all(isinstance(e.args[1], VertexSet) for e in oracle.ledger)


def test_set_query_ledgers_round_trip_as_vertex_sets():
    pooled = random_partition_graph(30, 5, seed=3)
    edged = random_edge_graph(20, 45, seed=4)
    runs = [
        (pooled, (count_components_multi, learn_components_multi)),
        (edged, (learn_graph_neighborhood, lambda session, n: verify_graph_neighborhood(session, edged))),
    ]
    for hidden, learners in runs:
        session = HonestOracle(hidden)
        for learner in learners:
            learner(session, hidden.n)
        text = session.ledger.to_jsonl()
        back = QueryLedger.from_jsonl(text)
        assert back.to_jsonl() == text
        assert back.entries == session.ledger.entries
        assert all(isinstance(e.args[1], VertexSet) for e in back)
        assert replay_on_session(back.entries, HonestOracle(hidden))
        if hidden is pooled:
            assert replay_matches_partition(back.entries, session.hidden_partition)


def test_pooled_learner_memory_stays_small():
    # every stored query set is one n-bit int, not a hashed set of vertices
    n, k = 800, 16
    blocks = random_partition_exactly(n, k, random.Random(19)).blocks
    hidden = Graph.from_edges(n, [(b[i], b[i + 1]) for b in blocks for i in range(len(b) - 1)])
    session = HonestOracle(hidden)
    session.hidden_partition.block_mask(0)  # the oracle's own cache, built before the run
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = learn_components_multi(session, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.answer == session.hidden_partition
    assert peak < 8 * 2**20
