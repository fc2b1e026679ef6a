from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphquery.graphs import (
    Graph,
    VertexSet,
    connected_components,
    format_edge_list,
    parse_edge_list,
    twin_classes,
)
from graphquery.partitions import Partition

from conftest import brute_force_components, graphs, labelled_graphs, path_graph


def test_graph_rejects_self_loops_and_out_of_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 1)}))  # unnormalized orientation
    with pytest.raises(ValueError):
        Graph(0, frozenset())


def test_from_edges_normalizes_and_dedupes():
    g = Graph.from_edges(4, [(2, 0), (0, 2), (1, 3)])
    assert g.edges == frozenset({(0, 2), (1, 3)})
    assert g.m == 2
    assert 0 in g.neighbors(2)
    assert g.neighbors(0) == frozenset({2})


def test_components_edgeless():
    assert connected_components(Graph(3, frozenset())).blocks == ((0,), (1,), (2,))


def test_components_path_is_connected():
    assert connected_components(path_graph(3)).blocks == ((0, 1, 2),)


def test_components_three_cliques(figure_partition_graph):
    got = connected_components(figure_partition_graph)
    assert got == Partition.from_blocks([[0, 1, 2], [3, 4], [5]])


@given(graphs(max_n=8))
def test_components_match_brute_force_and_are_canonical(g):
    got = connected_components(g)
    assert got == brute_force_components(g)
    assert got == Partition.from_blocks(got.blocks)
    for v in range(g.n):
        nbrs = frozenset(w for e in g.edges if v in e for w in e if w != v)
        assert g.neighbors(v) == nbrs and hash(g.neighbors(v)) == hash(nbrs)
        assert g.degree(v) == len(nbrs)


def test_edge_list_round_trip():
    g = Graph.from_edges(5, [(0, 4), (1, 2)])
    assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_comments_and_blanks():
    text = "# hidden instance\n\n3 2\n0 1\n\n# tail\n1 2\n"
    assert parse_edge_list(text) == Graph.from_edges(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n",
        "3 2\n0 1\n",  # missing an edge line
        "3 1\n1 0\n",  # u >= v
        "3 1\n0 3\n",  # endpoint out of range
        "3 2\n0 1\n0 1\n",  # duplicate
        "3 1\n0 1 2\n",  # three fields
    ],
)
def test_edge_list_rejects_malformed(text):
    message = {"3 1\n0 1 2\n": "^bad edge line '0 1 2'$"}.get(text)
    with pytest.raises(ValueError, match=message):
        parse_edge_list(text)


@given(graphs(max_n=7))
def test_edge_list_round_trip_property(g):
    assert parse_edge_list(format_edge_list(g)) == g


@given(st.frozensets(st.integers(0, 200)))
def test_vertex_set_agrees_with_frozenset(members):
    vs = VertexSet.of(members)
    assert vs == members and members == vs
    assert not vs != members and not members != vs
    assert hash(vs) == hash(members)
    assert {members: "found"}[vs] == {vs: "found"}[members] == "found"
    assert vs != members | {201} and members | {201} != vs
    assert len(vs) == len(members)
    assert list(vs) == sorted(members)
    assert VertexSet.of(vs) is vs and VertexSet(vs.mask) == vs
    for probe in [*sorted(members)[:3], 0, 7, 200, 201, 10**30, -1, -7, "1", None, 1.5, (1,)]:
        assert (probe in vs) == (probe in members)
    for probe in [*sorted(members)[:3], 0, 7, 200, 201, -1]:
        assert (np.int64(probe) in vs) == (np.int64(probe) in members) == (probe in members)


def test_vertex_set_rejects_negatives_and_keeps_set_operators():
    with pytest.raises(ValueError, match="vertex mask must be nonnegative"):
        VertexSet(-1)
    with pytest.raises(ValueError, match="vertex -2 is negative"):
        VertexSet.of([3, -2])
    both = VertexSet.of([1, 2, 3]) & {2, 3, 4}
    assert isinstance(both, VertexSet) and both == {2, 3}
    assert VertexSet() == frozenset() and len(VertexSet()) == 0


def test_twin_classes_on_every_labelled_graph_up_to_five_vertices():
    # the classes partition the vertices, in order of their least member;
    # two vertices share one exactly when they are twins; and each class is
    # a clique or an independent set
    for n in range(1, 6):
        for nbrs in labelled_graphs(n):
            classes = twin_classes(nbrs)
            assert sorted(v for members in classes for v in members) == list(range(n))
            assert classes == sorted(map(sorted, classes)), nbrs
            class_of = {v: i for i, members in enumerate(classes) for v in members}
            for u, v in combinations(range(n), 2):
                twins = nbrs[u] & ~(1 << v) == nbrs[v] & ~(1 << u)
                assert twins == (class_of[u] == class_of[v]), (nbrs, u, v)
            for members in classes:
                assert len({nbrs[u] >> v & 1 for u, v in combinations(members, 2)}) <= 1, nbrs
