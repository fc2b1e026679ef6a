import hashlib
import random
from itertools import combinations, permutations

import numpy as np
import pytest

from graphquery._canon import canonical_codes
from graphquery.coloring import SEARCH_STATS, BudgetExceededError, reset_search_stats
from graphquery import enumeration
from graphquery.enumeration import (
    canonical_code,
    enumerate_graphs,
    verify_unique_colorable_edge_bound,
)
from graphquery.graphs import Graph, complete_graph, empty_graph
from graphquery import bounds

from conftest import cycle_graph


def brute_force_classes(n):
    """Isomorphism classes on n vertices by raw orbit computation."""
    pairs = list(combinations(range(n), 2))
    seen_codes = set()
    reps = []
    for mask in range(1 << len(pairs)):
        edges = frozenset(p for i, p in enumerate(pairs) if (mask >> i) & 1)
        smallest = None
        for perm in permutations(range(n)):
            relabeled = frozenset(
                (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
            )
            key = tuple(sorted(relabeled))
            if smallest is None or key < smallest:
                smallest = key
        if smallest not in seen_codes:
            seen_codes.add(smallest)
            reps.append(Graph(n, edges))
    return reps


def test_counts_match_brute_force_small():
    for n in range(1, 6):
        assert len(enumerate_graphs(n)) == len(brute_force_classes(n))


def test_counts_larger_levels():
    # frozen counts cross-checked once against the brute-force orbit method
    assert len(enumerate_graphs(6)) == 156
    assert len(enumerate_graphs(7)) == 1044


def test_representatives_are_pairwise_nonisomorphic():
    reps = enumerate_graphs(5)
    codes = {canonical_code(g) for g in reps}
    assert len(codes) == len(reps)


def test_canonical_code_is_relabel_invariant():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    for perm in permutations(range(5)):
        relabeled = Graph.from_edges(
            5, [(perm[u], perm[v]) for u, v in g.edges]
        )
        assert canonical_code(relabeled) == canonical_code(g)
    assert canonical_code(g) != canonical_code(cycle_graph(5))


def brute_force_code(adj):
    """The definition: the least row-major upper-triangle bit string over all orderings."""
    n = len(adj)
    pairs = list(combinations(range(n), 2))
    return min(
        int("".join(str(adj[p[i]][p[j]]) for i, j in pairs), 2)
        for p in permutations(range(n))
    )


def _adjacency(g):
    return [[nbrs >> v & 1 for v in range(g.n)] for nbrs in g.adjacency_masks()]


def test_codes_match_brute_force_minimum():
    rng = np.random.default_rng(3)
    batch = []
    for _ in range(40):
        a = np.zeros((6, 6), dtype=np.uint8)
        for i in range(5):
            for j in range(i + 1, 6):
                a[i, j] = a[j, i] = rng.integers(0, 2)
        batch.append(a)
    # seven and eight vertices where candidate ties branch most, and
    # twin-rich graphs where the search keeps one candidate per twin class
    k44 = Graph.from_edges(8, [(u, v) for u in range(4) for v in range(4, 8)])
    k233 = Graph.from_edges(8, [(u, v) for u, v in combinations(range(8), 2)
                                if (u >= 2) + (u >= 5) != (v >= 2) + (v >= 5)])
    two_k4 = Graph.from_edges(8, [*combinations(range(4), 2), *combinations(range(4, 8), 2)])
    star_plus_edge = Graph.from_edges(7, [*((0, v) for v in range(1, 7)), (1, 2)])
    for g in (empty_graph(8), complete_graph(8), cycle_graph(8), k44, k233, two_k4,
              star_plus_edge):
        adj = _adjacency(g)
        expected = brute_force_code(adj)
        assert canonical_code(g) == expected
        assert canonical_codes(np.array([adj], dtype=np.uint8))[0] == expected
    codes = canonical_codes(np.stack(batch))
    assert codes.dtype == np.int64
    assert codes.tolist() == [brute_force_code(a.tolist()) for a in batch]


def test_codes_match_brute_force_on_every_small_labelled_graph():
    assert canonical_code(empty_graph(1)) == 0
    for n in range(2, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1))
            assert canonical_code(g) == brute_force_code(_adjacency(g)), (n, mask)


def test_canonical_code_is_relabel_invariant_at_eight_vertices():
    rng = random.Random(8)
    pairs = list(combinations(range(8), 2))
    for _ in range(60):
        density = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
        edges = [p for p in pairs if rng.random() < density]
        perm = rng.sample(range(8), 8)
        g = Graph.from_edges(8, edges)
        relabelled = Graph.from_edges(8, [(perm[u], perm[v]) for u, v in edges])
        assert canonical_code(relabelled) == canonical_code(g), (edges, perm)


# the first 16 hex digits of sha256(",".join(codes)) for each level: the
# sorted code order sets tight_examples, so no kernel change may move it
LEVEL_DIGESTS = (
    "5feceb66ffc86f38", "83b97b859aa5f81b", "e07a92fb5aaa9795", "ee8879922ff2981c",
    "92c2b3d1c584d2f0", "995555965de9494f", "cb0450eee4c3f597",
)


def test_enumeration_order_is_frozen():
    digests = tuple(
        hashlib.sha256(",".join(map(str, codes)).encode()).hexdigest()[:16]
        for _, codes in enumeration._levels(7, 10**7)
    )
    assert digests == LEVEL_DIGESTS


def test_unique_coloring_search_nodes_are_pinned():
    reset_search_stats()
    verify_unique_colorable_edge_bound(7, 3)
    assert SEARCH_STATS == {"invocations": 1252, "nodes": 19395}


def test_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_graphs(8)
    with pytest.raises(BudgetExceededError):
        enumerate_graphs(6, graph_budget=100)


def test_edge_bound_report_bipartite():
    report = verify_unique_colorable_edge_bound(4, 2)
    assert report.ok
    row = report.rows[-1]
    assert row.n == 4 and row.bound == 3
    assert row.min_edges >= 3
    # trees on 4 vertices are uniquely 2-colorable and tight
    assert row.tight_examples


def test_edge_bound_triangle_is_tight_for_three_colors():
    report = verify_unique_colorable_edge_bound(3, 3)
    row = report.rows[-1]
    assert row.bound == 3 == bounds.unique_coloring_edge_lower(3, 3)
    assert tuple(complete_graph(3).sorted_edges()) in row.tight_examples


def test_edge_bound_holds_up_to_five_for_three_colors():
    report = verify_unique_colorable_edge_bound(5, 3)
    assert report.ok
    assert report.rows[-1].bound == 7


def test_edge_bound_guards():
    with pytest.raises(ValueError):
        verify_unique_colorable_edge_bound(8, 2)
    with pytest.raises(ValueError):
        verify_unique_colorable_edge_bound(5, 4)


def test_report_dict_round_trip():
    report = verify_unique_colorable_edge_bound(3, 2)
    payload = report.to_dict()
    assert payload["k"] == 2 and payload["ok"] is True
    assert len(payload["rows"]) == 3


def test_backend_is_declared():
    import tomllib
    from pathlib import Path

    # numpy is the one batch backend, and the only runtime dependency
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == ["numpy"]
    codes = canonical_codes(np.zeros((2, 3, 3), dtype=np.uint8))
    assert isinstance(codes, np.ndarray) and codes.dtype == np.int64


def test_no_numba_env_flag_selects_numpy():
    import os
    import subprocess
    import sys

    import graphquery

    # the old flag is now ignored: a fresh interpreter runs the numpy path
    # and never imports numba, whether or not the flag is set; the child
    # imports graphquery from where this interpreter found it
    src = os.path.dirname(os.path.dirname(graphquery.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from graphquery.enumeration import enumerate_graphs\n"
         "print(len(enumerate_graphs(5)), 'numba' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "GRAPHQUERY_NO_NUMBA": "1", "PYTHONPATH": path},
    )
    assert out.stdout.split() == ["34", "False"]
