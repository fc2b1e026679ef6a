"""Shared strategies and brute-force reference helpers for the test suite."""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

import pytest
from hypothesis import strategies as st

from graphquery import bounds, enumeration
from graphquery._canon import code
from graphquery.coloring import (
    SEARCH_STATS, Coloring, find_k_coloring, is_uniquely_k_colorable, proper_partitions,
)
from graphquery.graphs import Graph, mask_edges, normalize_edge
from graphquery.ledger import LedgerEntry
from graphquery.partitions import Partition


def reset_search_stats() -> None:
    """Zero `coloring.SEARCH_STATS` in place: the benchmark reads the same dict."""
    for key in SEARCH_STATS:
        SEARCH_STATS[key] = 0


def is_k_separable(g: Graph, i: int, j: int, k: int) -> Coloring | None:
    """A k-coloring separating the nonadjacent pair {i, j}, or None if inseparable.

    Separating i and j is the constraint of an edge i-j, so this colors g
    with that edge added.
    """
    if i == j:
        raise ValueError("separability needs two distinct vertices")
    pair = normalize_edge(i, j)
    if pair in g.edges:
        raise ValueError(f"pair ({i}, {j}) is an edge; separability is undefined")
    return find_k_coloring(Graph(g.n, g.edges | {pair}), k)


def is_refinement(fine: Partition, coarse: Partition) -> bool:
    """True iff every block of fine lies inside some block of coarse."""
    if fine.n != coarse.n:
        raise ValueError("partitions are over different vertex sets")
    return all(fine.block_mask(v) & ~coarse.block_mask(v) == 0 for v in range(fine.n))


def replay_on_session(entries: Sequence[LedgerEntry], session) -> bool:
    """Re-issue every recorded query against a fresh session; True iff
    every answer agrees. The session needs the query method of each
    entry's kind."""
    method = {
        "alpha": "membership_query",
        "alpha_m": "multi_membership_query",
        "beta": "neighborhood_query",
    }
    return all(getattr(session, method[e.kind])(*e.args) == e.answer for e in entries)


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


def labelled_graphs(n: int) -> Iterator[tuple[int, ...]]:
    """Every labelled graph on n vertices, as a tuple of neighbour bitmasks."""
    pairs = list(combinations(range(n), 2))
    for chosen in range(1 << len(pairs)):
        nbrs = [0] * n
        for i, (u, v) in enumerate(pairs):
            if chosen >> i & 1:
                nbrs[u] |= 1 << v
                nbrs[v] |= 1 << u
        yield tuple(nbrs)


def twin_swap_orbits(nbrs: Sequence[int]) -> list[set[int]]:
    """Orbits of the neighbour subsets under swaps of twins, by closure."""
    n = len(nbrs)
    swaps = [(u, v) for u, v in combinations(range(n), 2)
             if nbrs[u] & ~(1 << v) == nbrs[v] & ~(1 << u)]
    orbit_of: dict[int, int] = {}
    orbits: list[set[int]] = []
    for start in range(1 << n):
        if start in orbit_of:
            continue
        orbit, todo = {start}, [start]
        while todo:
            mask = todo.pop()
            for u, v in swaps:
                a, b = mask >> u & 1, mask >> v & 1
                image = mask ^ ((a ^ b) << u | (a ^ b) << v)
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        for mask in orbit:
            orbit_of[mask] = len(orbits)
        orbits.append(orbit)
    return orbits


def max_degree_levels(n_max: int) -> Iterator[tuple[int, list[tuple[int, ...]], list[int]]]:
    """Yield (n, candidates, codes) for n = 2..n_max by plain max-degree
    augmentation, kept as a reference for `enumeration._levels`.

    A representative's child takes one neighbour subset per twin orbit, and
    is a candidate iff its new vertex has maximum degree; the codes are the
    sorted distinct codes of the candidates, and each code's first candidate
    is the representative the next level grows from. Degree is a vertex
    invariant, so this reaches every class, with more candidates than the
    finer test of `_levels`.
    """
    level = [(0,)]
    for size in range(2, n_max + 1):
        new = size - 1
        candidates = []
        for parent in level:
            for mask in enumeration._twin_orbit_subsets(parent):
                child = tuple(nbrs | (mask >> v & 1) << new
                              for v, nbrs in enumerate(parent)) + (mask,)
                if max(nbrs.bit_count() for nbrs in child) == mask.bit_count():
                    candidates.append(child)
        first: dict[int, tuple[int, ...]] = {}
        for child in candidates:
            first.setdefault(code(child), child)
        codes = sorted(first)
        level = [first[c] for c in codes]
        yield size, candidates, codes


def unscreened_edge_bound(n_max: int, k: int) -> enumeration.EdgeBoundReport:
    """`verify_unique_colorable_edge_bound(n_max, k)` without its degree
    screen: every class, decoded in canonical labels, goes to the uniqueness
    search, kept as a reference for the screen."""
    rows = []
    for n, codes, _ in enumeration._levels(n_max):
        bound = bounds.membership_known_count(n, k)
        unique = [c for c in codes if is_uniquely_k_colorable(enumeration._code_masks(c, n), k)]
        edges = [tuple(mask_edges(enumeration._code_masks(c, n))) for c in unique]
        sizes = [c.bit_count() for c in unique]
        tight = tuple(e for e, m in zip(edges, sizes) if m == bound)
        rows.append(enumeration.EdgeBoundRow(
            n, len(codes), len(unique), bound, min(sizes, default=None),
            tight[:enumeration.MAX_TIGHT_EXAMPLES],
            tuple(e for e, m in zip(edges, sizes) if m < bound),
        ))
    return enumeration.EdgeBoundReport(k, tuple(rows))


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


def check_trace_invariants(trace, ell: int) -> None:
    """The recursion-tree invariants of a neighbor search that found `ell`
    neighbors: no tree without a hit; red (answer-0) nodes are leaves with
    a blue parent; no node has two red children; and there are at most
    twice as many nodes as blue ones."""
    nodes = trace.nodes()
    if ell == 0:
        assert nodes == []
        return
    blue = [node for node in nodes if node.is_blue]
    red = [node for node in nodes if not node.is_blue]
    parent_of = {id(c): p for p in nodes for c in p.children}
    for node in red:
        assert not node.children
        parent = parent_of.get(id(node))
        assert parent is not None and parent.is_blue
    for node in nodes:
        assert sum(1 for c in node.children if not c.is_blue) <= 1
    assert len(nodes) <= 2 * len(blue)


def reference_code(nbrs: list[int] | tuple[int, ...]) -> int:
    """The canonical code by the plain partition search, kept as a test oracle.

    The search of `_canon.code` without its tables, its single loop and its
    tie bound: one recursive call per placed vertex, every row built with
    bit_count, and the same twin pruning.
    """
    n = len(nbrs)
    return _reference_best(nbrs, ((1 << n) - 1,), n)


def _reference_split(nbr: int, cells: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for cell in cells:
        ones = cell & nbr
        if ones != cell:
            out.append(cell ^ ones)
        if ones:
            out.append(ones)
    return tuple(out)


def _reference_best(nbrs, cells: tuple[int, ...], size: int) -> int:
    if size <= 2:
        if size < 2:
            return 0
        pair = cells[0] if len(cells) == 1 else cells[0] | cells[1]
        low = pair & -pair
        return 1 if nbrs[low.bit_length() - 1] & (pair ^ low) else 0
    left = size - 1
    first, rest = cells[0], cells[1:]
    low_row = -1
    ties: list[tuple[int, int]] = []
    pending = first
    while pending:
        bit = pending & -pending
        pending ^= bit
        nbr = nbrs[bit.bit_length() - 1]
        row = (1 << (first & nbr).bit_count()) - 1
        for cell in rest:
            row = (row << cell.bit_count()) | ((1 << (cell & nbr).bit_count()) - 1)
        if low_row < 0 or row < low_row:
            low_row, ties = row, [(bit, nbr)]
        elif row == low_row and all((nbr ^ other) & ~(bit | other_bit) for other_bit, other in ties):
            ties.append((bit, nbr))
    tail = min(_reference_best(nbrs, _reference_split(nbr, (first ^ bit,) + rest), left)
               for bit, nbr in ties)
    return (low_row << left * (left - 1) // 2) | tail


@pytest.fixture
def figure_partition_graph():
    """Cliques on {0,1,2}, {3,4}, {5}: the walkthrough's hidden partition."""
    return Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4)])
