import json
import random

import pytest
from hypothesis import given, strategies as st

from graphquery.graphs import Graph, empty_graph
from graphquery.ledger import (
    QueryLedger,
    honest_answer,
    replay_matches_partition,
    replay_on_session,
)
from graphquery.oracles import HonestOracle
from graphquery.partitions import Partition

from conftest import graphs


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


def test_multi_membership_examples(oracle):
    assert oracle.multi_membership_query(5, {0, 1, 2, 3, 4}) == 0  # isolated block
    assert oracle.multi_membership_query(0, {3, 4, 1}) == 1
    assert oracle.multi_membership_query(0, frozenset()) == 0
    assert oracle.ledger.count == 3


def test_multi_membership_rejects_self_in_set(oracle):
    with pytest.raises(ValueError):
        oracle.multi_membership_query(2, {1, 2})


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


def test_ledger_rejects_bad_entries():
    ledger = QueryLedger()
    with pytest.raises(ValueError):
        ledger.append("gamma", (0, 1), 0)
    with pytest.raises(ValueError):
        ledger.append("alpha", (0, 1), 2)
    line = '{"kind": "alpha", "args": [0, 1], "answer": 0, "index": 1}'
    with pytest.raises(ValueError, match="entry index 1 does not match position 0"):
        QueryLedger.from_jsonl(line)


def test_replay_against_partition(oracle):
    oracle.membership_query(0, 4)
    oracle.membership_query(0, 1)
    oracle.multi_membership_query(5, {0, 1})
    truth = oracle.hidden_partition
    assert replay_matches_partition(oracle.ledger.entries, truth)
    wrong = Partition.from_blocks([[0, 4], [1, 2], [3, 5]])
    assert not replay_matches_partition(oracle.ledger.entries, wrong)


def test_replay_on_fresh_session(oracle, figure_partition_graph):
    oracle.membership_query(0, 4)
    oracle.neighborhood_query(5, {0, 1})
    fresh = HonestOracle(figure_partition_graph)
    assert replay_on_session(oracle.ledger.entries, fresh)


def test_replay_partition_rejects_beta():
    ledger = QueryLedger()
    ledger.append("beta", (0, frozenset({1})), 0)
    with pytest.raises(ValueError):
        replay_matches_partition(ledger.entries, Partition.singletons(2))


def test_declare_checks_ground_truth(oracle):
    truth = oracle.hidden_partition
    assert oracle.declare(truth).forced
    verdict = oracle.declare(Partition.singletons(6))
    assert not verdict.forced and verdict.witness == truth


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
