"""The names the benchmark in perfbench/ reaches into graphquery through.

The tier-1 suite does not collect perfbench/, so a change under src/ that
drops one of these names would break the benchmark without failing a test.
An entry may be removed only in the change that also edits perfbench/ to
stop using it.
"""

import inspect

import pytest

from graphquery import adversaries, bounds, coloring, duel, enumeration, graphs, instances
from graphquery import learners, ledger, minimax, oracles, partitions, _canon

BINDINGS = {
    _canon: ("canonical_codes",),
    enumeration: ("canonical_codes", "is_uniquely_k_colorable", "verify_unique_colorable_edge_bound"),
    adversaries: ("find_k_coloring", "proper_partitions", "SeparabilityAdversary",
                  "UnknownCountAdversary", "ContractionAdversary"),
    coloring: ("SEARCH_STATS", "BudgetExceededError"),
    oracles: ("HonestOracle",),
    ledger: ("QueryLedger", "replay_matches_partition"),
    learners: ("learn_partition_representatives", "count_components_multi",
               "learn_components_multi", "learn_graph_neighborhood", "verify_graph_neighborhood"),
    duel: ("run_duel",),
    graphs: ("Graph", "connected_components"),
    # perfbench builds graphs with Graph(n, frozenset) and from_edges, and
    # reads hidden.degree(v) for the neighbour-search and verifier bounds
    graphs.Graph: ("from_edges", "degree"),
    instances: ("worst_case_order",),
    partitions: ("stirling_partition_count",),
    minimax: ("minimax_query_complexity", "information_bound_check"),
    # every bounds function perfbench/workloads.py calls
    bounds: ("membership_known_count", "membership_unknown_count", "contraction_adversary_lower",
             "count_components_queries", "learn_components_ceiling", "find_neighbors_ceiling",
             "verify_accept_queries", "minimax_known_formula", "minimax_unknown_formula"),
}


def test_benchmark_bindings_exist():
    missing = [f"{module.__name__}.{name}" for module, names in BINDINGS.items()
               for name in names if not hasattr(module, name)]
    assert not missing
    g = graphs.Graph.from_edges(5, ((0, 1), (1, 2), (3, 1)))
    assert g == graphs.Graph(5, frozenset({(0, 1), (1, 2), (1, 3)}))
    assert [g.degree(v) for v in range(5)] == [1, 3, 1, 1, 0]
    components = graphs.connected_components(g)
    assert isinstance(components, partitions.Partition) and components.blocks == ((0, 1, 2, 3), (4,))
    assert "nodes" in coloring.SEARCH_STATS
    variants = [cls.variant for cls in (adversaries.SeparabilityAdversary,
                                        adversaries.UnknownCountAdversary,
                                        adversaries.ContractionAdversary)]
    assert variants == ["separability", "unknown-count", "contraction"]
    for cls in (adversaries.SeparabilityAdversary, adversaries.UnknownCountAdversary,
                adversaries.ContractionAdversary):
        assert callable(cls.membership_query) and callable(cls.declare)
    for method in ("membership_query", "multi_membership_query", "neighborhood_query", "declare"):
        assert callable(getattr(oracles.HonestOracle, method))
    assert callable(ledger.QueryLedger.append)
    assert "canonicalize" in inspect.signature(minimax.minimax_query_complexity).parameters


def test_traced_entry_points_are_reached(monkeypatch):
    # perfbench's canon.* and coloring.ukc.* metrics wrap these two names on
    # `enumeration`; the audit must keep calling them there
    calls = {"canonical_codes": 0, "is_uniquely_k_colorable": 0}
    for name in calls:
        original = getattr(enumeration, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(enumeration, name, counting)
    enumeration.verify_unique_colorable_edge_bound(7, 3)
    assert calls == {"canonical_codes": 6, "is_uniquely_k_colorable": 1252}


def test_traced_answer_entry_point_is_reached(monkeypatch):
    # perfbench's coloring.answer.* metrics wrap `adversaries.find_k_coloring`:
    # an answer that takes the search, separable or not, and a read of chi
    # each reach it once, and an answer settled by a free color does not
    calls = []
    original = adversaries.find_k_coloring

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(adversaries, "find_k_coloring", counting)
    adv = adversaries.SeparabilityAdversary(4, 2)  # working coloring (1, 2, 1, 2)
    assert adv.membership_query(0, 2) == 0  # 2 moves to its free color 2
    assert calls == []
    adv = adversaries.SeparabilityAdversary(4, 2)
    adv.membership_query(0, 1)
    adv.membership_query(2, 3)
    assert calls == []
    assert adv.membership_query(0, 2) == 0  # neither 0 nor 2 has a free color
    assert len(calls) == 1
    assert adv.chi.colors == adv.chi.colors == (1, 2, 2, 1)  # computed once, then cached
    assert len(calls) == 2
    # the path 1-0-2-3 colors 0 and 3 alike, so the search proves them
    # inseparable by finding no coloring, and they are contracted
    assert adv.membership_query(0, 3) == 1
    assert calls == [{"high_degree_first": True}, {}, {"high_degree_first": True}]
    assert adv.cls == [0, 1, 2, 0]


def test_traced_set_queries_pass_the_set_at_index_two(monkeypatch):
    # perfbench's oracles.set_elems reads len(args[2]) from both set queries
    calls = []
    for name in ("multi_membership_query", "neighborhood_query"):
        original = getattr(oracles.HonestOracle, name)

        def recording(*args, _name=name, _original=original, **kwargs):
            calls.append((_name, args, kwargs))
            return _original(*args, **kwargs)

        monkeypatch.setattr(oracles.HonestOracle, name, recording)
    learners.learn_components_multi(oracles.HonestOracle(instances.random_partition_graph(20, 4, 1)), 20)
    learners.learn_graph_neighborhood(oracles.HonestOracle(instances.random_edge_graph(12, 20, 2)), 12)
    assert {name for name, _, _ in calls} == {"multi_membership_query", "neighborhood_query"}
    for name, args, kwargs in calls:
        assert not kwargs and len(args) == 3
        assert len(args[2]) == sum(1 for _ in args[2])


def test_wrapping_one_variant_leaves_the_others_alone():
    # perfbench's adversaries.*.answer_s, declare_s and budget_errors metrics
    # wrap each variant's inherited membership_query and declare on that
    # variant's class, with setattr, and restore them with delattr; all three
    # inherit one method of each name, so a wrapper set on one variant must
    # see only that variant's answers and audits
    variants = (adversaries.SeparabilityAdversary, adversaries.UnknownCountAdversary,
                adversaries.ContractionAdversary)
    wrapped = adversaries.UnknownCountAdversary
    claim = partitions.Partition.from_blocks([[0, 1], [2, 3]])
    pairs = [(0, 1), (2, 3), (0, 2), (1, 3)]

    def session(cls):
        adv = cls(4, 2)
        for pair in pairs:
            adv.membership_query(*pair)
        return adv.ledger.count, adv.declare(claim)

    unwrapped = [session(cls) for cls in variants]
    for name, expected in (("membership_query", pairs), ("declare", [(claim,)])):
        owner = next(cls for cls in wrapped.__mro__ if name in vars(cls))
        shared = vars(owner)[name]
        assert all(name not in vars(cls) and getattr(cls, name) is shared for cls in variants)
        calls = []

        def traced(adv, *args, **kwargs):
            calls.append((type(adv), args))
            return shared(adv, *args, **kwargs)

        setattr(wrapped, name, traced)
        try:
            assert [session(cls) for cls in variants] == unwrapped
            assert calls == [(wrapped, args) for args in expected]
            assert all(getattr(cls, name) is shared for cls in variants if cls is not wrapped)
            assert vars(owner)[name] is shared
        finally:
            delattr(wrapped, name)
        assert all(getattr(cls, name) is shared for cls in variants)


def test_traced_calls_see_their_own_nodes(monkeypatch):
    # perfbench's coloring.{answer,audit,ukc}.nodes metrics are deltas of
    # SEARCH_STATS["nodes"] taken around these three names, and a search
    # books its nodes only as it ends or is closed: each traced call must
    # close every search it runs before it returns, so that the deltas add
    # up to all the nodes a run spends, an over-budget run included
    deltas = []
    for owner, name in ((adversaries, "find_k_coloring"), (adversaries, "proper_partitions"),
                        (enumeration, "is_uniquely_k_colorable")):
        original = getattr(owner, name)

        def traced(*args, _original=original, **kwargs):
            nodes = coloring.SEARCH_STATS["nodes"]
            try:
                return _original(*args, **kwargs)
            finally:
                deltas.append(coloring.SEARCH_STATS["nodes"] - nodes)

        monkeypatch.setattr(owner, name, traced)

    def booked(run):
        deltas.clear()
        nodes = coloring.SEARCH_STATS["nodes"]
        result = run()
        spent = coloring.SEARCH_STATS["nodes"] - nodes
        assert deltas and sum(deltas) == spent
        return result, spent

    adv = adversaries.UnknownCountAdversary(4, 3)
    for pair in [(2, 3), (0, 2), (0, 3), (1, 2), (1, 3)]:
        assert adv.membership_query(*pair) == 0
    # no coloring separates 0 from 1: a search proves it by finding none
    answer, spent = booked(lambda: adv.membership_query(0, 1))
    assert answer == 1 and spent > 0
    # chi is no longer the start coloring: a search finds the first one
    chi, spent = booked(lambda: adv.chi)
    assert chi.colors == (1, 1, 2, 3) and spent > 0
    verdict, spent = booked(lambda: adv.declare(partitions.Partition.from_blocks([[0, 1], [2], [3]])))
    assert verdict.forced and spent > 0
    _, spent = booked(lambda: enumeration.verify_unique_colorable_edge_bound(5, 3))
    assert spent > 0

    def over_budget():
        with pytest.raises(coloring.BudgetExceededError):
            adversaries.SeparabilityAdversary(12, 6).declare(partitions.Partition.from_labels(range(12)))

    monkeypatch.setattr(coloring, "DEFAULT_NODE_BUDGET", 10)
    assert booked(over_budget) == (None, 11)
