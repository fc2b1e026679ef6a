import pytest
from hypothesis import given

from graphquery.graphs import (
    ContractionMap,
    Graph,
    connected_components,
    format_edge_list,
    parse_edge_list,
)
from graphquery.partitions import Partition

from conftest import brute_force_components, graphs, path_graph


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


def test_contraction_map_invariants():
    cm = ContractionMap(5)
    assert len(cm.representatives()) == 5
    cm.union(0, 3)
    assert len(cm.representatives()) == 4
    rep = cm.find(3)
    assert cm.find(rep) == rep
    with pytest.raises(ValueError):
        cm.union(0, 3)


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
    ],
)
def test_edge_list_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_edge_list(text)


@given(graphs(max_n=7))
def test_edge_list_round_trip_property(g):
    assert parse_edge_list(format_edge_list(g)) == g
