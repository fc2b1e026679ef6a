"""Shared strategies and brute-force reference helpers for the test suite."""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Iterator

import pytest
from hypothesis import strategies as st

from graphquery.coloring import proper_partitions
from graphquery.graphs import Graph
from graphquery.partitions import Partition


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def partitions_with_exactly(n: int, k: int) -> Iterator[Partition]:
    """All partitions of {0..n-1} into exactly k blocks, in a fixed order."""
    for p in proper_partitions([0] * n, min(k, n)):
        if p.k == k:
            yield p


@st.composite
def graphs(draw, min_n=1, max_n=8, max_density=1.0):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs), max_size=int(len(pairs) * max_density)))if pairs else set()
    return Graph(n, frozenset(edges))


def brute_force_proper_partitions(g: Graph, k: int) -> set[Partition]:
    """All distinct proper color-class partitions with at most k classes,
    found by trying every raw color assignment."""
    found = set()
    for assign in product(range(k), repeat=g.n):
        if all(assign[u] != assign[v] for u, v in g.edges):
            blocks: dict[int, list[int]] = {}
            for v, c in enumerate(assign):
                blocks.setdefault(c, []).append(v)
            found.add(Partition.from_blocks(blocks.values()))
    return found


def brute_force_separable(g: Graph, i: int, j: int, k: int) -> bool:
    """Pair separability by exhaustive coloring enumeration."""
    for assign in product(range(k), repeat=g.n):
        if assign[i] == assign[j]:
            continue
        if all(assign[u] != assign[v] for u, v in g.edges):
            return True
    return False


def brute_force_components(g: Graph) -> Partition:
    """Components via repeated reachability scans."""
    seen = set()
    blocks = []
    for v in range(g.n):
        if v in seen:
            continue
        stack, block = [v], set()
        while stack:
            u = stack.pop()
            if u in block:
                continue
            block.add(u)
            stack.extend(g.neighbors(u))
        seen |= block
        blocks.append(sorted(block))
    return Partition.from_blocks(blocks)


def brute_force_minimax(n: int, k: int | None, kind: str,
                        live: Iterable[Partition] | None = None) -> int:
    """Minimax queries to identify a partition of 0..n-1 into at most k
    blocks (any number if k is None), by plain exhaustive game search.
    Given `live`, the game starts from those candidates instead.

    kind "alpha" queries every pair; "alpha_m" every raw pool (v, S) with S
    a nonempty set of other vertices, answered 1 iff v shares a block with
    some member of S. The value of a live set is the minimum over queries
    that split it of 1 + the larger value of the two halves, memoised on
    the frozenset of live candidates.
    """
    labelings = [
        labels for labels in product(range(n), repeat=n)
        if all(labels[v] <= max(labels[:v], default=-1) + 1 for v in range(n))
        and (k is None or max(labels, default=-1) < k)
    ]
    if live is not None:
        # label each vertex with the index of its block in p.blocks
        start = {tuple(i for _, i in sorted((v, i) for i, b in enumerate(p.blocks) for v in b))
                 for p in live}
        if not start <= set(labelings):
            raise ValueError("live holds a partition outside the candidate universe")
        labelings = sorted(start)
    if kind == "alpha":
        queries = [(v, (u,)) for v, u in combinations(range(n), 2)]
    else:
        queries = [(v, pool) for v in range(n) for size in range(1, n)
                   for pool in combinations([u for u in range(n) if u != v], size)]
    yes_sets = [
        frozenset(c for c in labelings if any(c[v] == c[u] for u in pool))
        for v, pool in queries
    ]
    memo: dict[frozenset, int] = {}

    def value(live: frozenset) -> int:
        if len(live) == 1:
            return 0
        if live not in memo:
            best = None
            for yes_set in yes_sets:
                yes = live & yes_set
                if yes and yes != live:
                    worst = 1 + max(value(yes), value(live - yes))
                    best = worst if best is None else min(best, worst)
            memo[live] = best
        return memo[live]

    return value(frozenset(labelings))


@pytest.fixture
def figure_partition_graph():
    """Cliques on {0,1,2}, {3,4}, {5}: the walkthrough's hidden partition."""
    return Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4)])
