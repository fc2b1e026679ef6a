import hashlib
import json
import random
from itertools import combinations, permutations

import numpy as np
import pytest

from graphquery._canon import canonical_codes, code
from graphquery.coloring import SEARCH_STATS, is_uniquely_k_colorable
from graphquery import enumeration
from graphquery.enumeration import enumerate_graphs, verify_unique_colorable_edge_bound
from graphquery.graphs import Graph, complete_graph, empty_graph, mask_edges
from graphquery import bounds

from conftest import (
    cycle_graph, labelled_graphs, max_degree_levels, reset_search_stats, twin_swap_orbits,
    unscreened_edge_bound,
)


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
    codes = {code(g.adjacency_masks()) for g in reps}
    assert len(codes) == len(reps)


def test_canonical_code_is_relabel_invariant():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    for perm in permutations(range(5)):
        relabeled = Graph.from_edges(
            5, [(perm[u], perm[v]) for u, v in g.edges]
        )
        assert code(relabeled.adjacency_masks()) == code(g.adjacency_masks())
    assert code(g.adjacency_masks()) != code(cycle_graph(5).adjacency_masks())


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
        assert code(g.adjacency_masks()) == expected
        assert canonical_codes(np.array([adj], dtype=np.uint8))[0] == expected
    codes = canonical_codes(np.stack(batch))
    assert codes.dtype == np.int64
    assert codes.tolist() == [brute_force_code(a.tolist()) for a in batch]


def test_codes_match_brute_force_on_every_small_labelled_graph():
    assert code(empty_graph(1).adjacency_masks()) == 0
    for n in range(2, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1))
            assert code(g.adjacency_masks()) == brute_force_code(_adjacency(g)), (n, mask)


def test_canonical_code_is_relabel_invariant_at_eight_vertices():
    rng = random.Random(8)
    pairs = list(combinations(range(8), 2))
    for _ in range(60):
        density = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
        edges = [p for p in pairs if rng.random() < density]
        perm = rng.sample(range(8), 8)
        g = Graph.from_edges(8, edges)
        relabelled = Graph.from_edges(8, [(perm[u], perm[v]) for u, v in edges])
        assert code(relabelled.adjacency_masks()) == code(g.adjacency_masks()), (edges, perm)


# the first 16 hex digits of sha256(",".join(codes)) for each level: the
# sorted code order sets tight_examples, so no kernel change may move it
LEVEL_DIGESTS = (
    "5feceb66ffc86f38", "83b97b859aa5f81b", "e07a92fb5aaa9795", "ee8879922ff2981c",
    "92c2b3d1c584d2f0", "995555965de9494f", "cb0450eee4c3f597",
)


def test_enumeration_order_is_frozen():
    digests = tuple(
        hashlib.sha256(",".join(map(str, codes)).encode()).hexdigest()[:16]
        for _, codes, _ in enumeration._levels(7)
    )
    assert digests == LEVEL_DIGESTS


# sha256 of the (7, 3) edge-bound report as sorted JSON, with its tight
# examples, and of the sorted edge list of every class on 6 vertices: the
# edge lists read off the decoded codes must not move
EDGE_LIST_DIGESTS = (
    "b8387eb0cf2c434a7a69ce4477d51fa3ed1dd5660501f0994249ce623ac26c5a",
    "27097d54943f5162ca3686bd635481e79c5e816b1d9ac24260a1d2a91993921f",
)


def test_edge_lists_are_pinned():
    report = json.dumps(verify_unique_colorable_edge_bound(7, 3).to_dict(), sort_keys=True)
    graphs = "\n".join(str(g.sorted_edges()) for g in enumerate_graphs(6))
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (report, graphs))
    assert digests == EDGE_LIST_DIGESTS


def test_unique_coloring_search_nodes_are_pinned():
    reset_search_stats()
    verify_unique_colorable_edge_bound(7, 3)
    # the degree screen leaves 590 of the 1,252 classes to search
    assert SEARCH_STATS == {"invocations": 590, "nodes": 4210}


def test_degree_screen_drops_only_classes_that_are_not_uniquely_colorable(monkeypatch):
    # the screen reads each level's representatives, which must be the
    # classes of its codes in the same order; every class on at most 7
    # vertices that it keeps from the search has no proper k-colouring, or
    # more than one
    levels = list(enumeration._levels(7))
    for n, codes, reps in levels:
        assert [code(rep) for rep in reps] == codes, n
    searched = []
    original = enumeration.is_uniquely_k_colorable

    def recording(masks, k):
        searched.append((len(masks), code(masks)))
        return original(masks, k)

    monkeypatch.setattr(enumeration, "is_uniquely_k_colorable", recording)
    dropped = {}
    for k in range(2, 8):
        searched.clear()
        verify_unique_colorable_edge_bound(7, k)
        kept = set(searched)
        for n, codes, _ in levels:
            for c in codes:
                if (n, c) not in kept:
                    assert not original(enumeration._code_masks(c, n), k), (n, c, k)
                    dropped[k] = dropped.get(k, 0) + 1
    assert dropped[3] == 662


def test_degree_screen_matches_the_unscreened_reference():
    for k in range(1, 8):
        rows = unscreened_edge_bound(7, k).rows
        for n in range(1, 8):
            assert verify_unique_colorable_edge_bound(n, k) == enumeration.EdgeBoundReport(k, rows[:n]), (n, k)


def test_levels_match_brute_force_codes():
    # the augmentation filter must still reach every class: each level's codes
    # are exactly the codes of all labelled graphs on that many vertices
    levels = {n: codes for n, codes, _ in enumeration._levels(6)}
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        codes = {
            code(Graph(n, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1))
                 .adjacency_masks())
            for mask in range(1 << len(pairs))
        }
        assert levels[n] == sorted(codes), n


def test_levels_match_the_max_degree_rule():
    # the finer rule codes fewer candidates and reaches the same classes
    levels = {n: codes for n, codes, _ in enumeration._levels(7)}
    for n, _, codes in max_degree_levels(7):
        assert levels[n] == codes, n


def _pair(nbrs, v) -> tuple[int, int]:
    """(degree, sum of neighbours' degrees) of v."""
    return nbrs[v].bit_count(), sum(nbrs[u].bit_count() for u in range(len(nbrs)) if nbrs[v] >> u & 1)


def test_augmenting_subsets_keep_exactly_the_maximal_children():
    # for every labelled parent on at most 5 vertices, a twin-orbit subset
    # is kept iff its new vertex's pair is at least every other vertex's
    for n in range(1, 6):
        for nbrs in labelled_graphs(n):
            kept = set(enumeration._augmenting_subsets(nbrs))
            for mask in enumeration._twin_orbit_subsets(nbrs):
                child = tuple(m | (mask >> v & 1) << n for v, m in enumerate(nbrs)) + (mask,)
                own = _pair(child, n)
                assert (mask in kept) == all(_pair(child, v) <= own for v in range(n)), (nbrs, mask)


def _relabel(masks, perm) -> list[int]:
    """The neighbour masks with vertex v renamed perm[v]."""
    return Graph.from_edges(len(masks), [(perm[u], perm[v]) for u, v in mask_edges(masks)]).adjacency_masks()


def test_relabelling_never_changes_a_uniqueness_verdict():
    # the edge-bound check runs on the reversed masks; canonical, reversed
    # and seeded random labels must agree on every class up to 6 vertices
    rng = random.Random(6)
    verdicts = set()
    for n, codes, _ in enumeration._levels(6):
        for c in codes:
            masks = enumeration._code_masks(c, n)
            flipped = enumeration._code_masks(c, n, reverse=True)
            assert flipped == _relabel(masks, range(n - 1, -1, -1)), c
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled = _relabel(masks, perm)
            for k in (2, 3, 4):
                verdict = is_uniquely_k_colorable(masks, k)
                assert is_uniquely_k_colorable(flipped, k) == verdict, (c, k)
                assert is_uniquely_k_colorable(shuffled, k) == verdict, (c, k, perm)
                verdicts.add(verdict)
    assert verdicts == {False, True}


def _count_batches(monkeypatch) -> list[int]:
    """Record the size of every batch `_levels` hands to the kernel."""
    sizes = []
    kernel = enumeration.canonical_codes

    def counting(batch):
        sizes.append(len(batch))
        return kernel(batch)

    monkeypatch.setattr(enumeration, "canonical_codes", counting)
    return sizes


def test_candidates_per_level_are_pinned(monkeypatch):
    # children of one subset per twin orbit in which the new vertex has a
    # maximal (degree, neighbour-degree sum), not every subset
    sizes = _count_batches(monkeypatch)
    for _ in enumeration._levels(7):
        pass
    assert tuple(sizes) == (2, 4, 11, 39, 193, 1436)


def test_edge_bound_row_at_eight_vertices(monkeypatch):
    sizes = _count_batches(monkeypatch)
    report = verify_unique_colorable_edge_bound(8, 3)
    assert sizes[-1] == 16373
    row = report.rows[-1]
    assert (row.n, row.graphs_total, row.unique_count) == (8, 12346, 856)
    assert row.min_edges == row.bound == 13
    assert report.ok
    # the report as sorted JSON, tight examples included: its codes come
    # from the kernel, which the counts alone do not pin
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0dda7b400c0fd3c057f0d9d332dd806f69cdb6fdc2ff8f0ac164e6d693103bf8")


def test_edge_bound_rows_at_eight_vertices_for_more_colors():
    # uniquely k-colorable classes per n = 1..8, pinned from the exhaustive
    # check before twin-orbit augmentation; the sparsest meets the floor
    expected = {
        4: ((1, 1, 1, 1, 1, 3, 12, 127), 18),
        5: ((1, 1, 1, 1, 1, 1, 3, 12), 22),
    }
    for k, (unique, floor) in expected.items():
        report = verify_unique_colorable_edge_bound(8, k)
        assert tuple(r.unique_count for r in report.rows) == unique, k
        row = report.rows[-1]
        assert row.min_edges == row.bound == floor == bounds.membership_known_count(8, k)
        assert report.ok


def test_twin_orbit_subsets_pick_one_per_orbit():
    # for every labelled parent on at most 5 vertices, the subsets `_levels`
    # tries are ascending and hit every twin-swap orbit exactly once
    for n in range(1, 6):
        for nbrs in labelled_graphs(n):
            subsets = enumeration._twin_orbit_subsets(nbrs)
            assert subsets == sorted(subsets), nbrs
            hits = sorted(sum(1 for mask in subsets if mask in orbit)
                          for orbit in twin_swap_orbits(nbrs))
            assert hits == [1] * len(hits) and len(subsets) == len(hits), nbrs


def test_enumeration_guards():
    for n in (0, 9):
        with pytest.raises(ValueError):
            enumerate_graphs(n)


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
    assert row.bound == 3 == bounds.membership_known_count(3, 3)
    assert tuple(complete_graph(3).sorted_edges()) in row.tight_examples


def test_edge_bound_holds_up_to_five_for_three_colors():
    report = verify_unique_colorable_edge_bound(5, 3)
    assert report.ok
    assert report.rows[-1].bound == 7


def test_edge_bound_guards():
    with pytest.raises(ValueError):
        verify_unique_colorable_edge_bound(9, 2)
    with pytest.raises(ValueError):
        verify_unique_colorable_edge_bound(5, 9)
    assert enumeration.EDGE_BOUND_MAX_K == enumeration.ENUMERATION_MAX_N == 8


def test_report_dict_round_trip():
    report = verify_unique_colorable_edge_bound(3, 2)
    payload = report.to_dict()
    assert payload["k"] == 2 and payload["ok"] is True
    assert len(payload["rows"]) == 3


def test_backend_is_declared():
    # numpy is the one batch backend; that it is the only runtime dependency
    # is test_public_surface's check, which skips where tomllib is missing
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
