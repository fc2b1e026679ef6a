"""Exhaustive graph enumeration up to isomorphism and the unique-coloring edge bound."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._canon import canonical_codes, code
from .coloring import BudgetExceededError, is_uniquely_k_colorable
from .graphs import Graph
from . import bounds

ENUMERATION_MAX_N = 7
EDGE_BOUND_MAX_K = 3
DEFAULT_GRAPH_BUDGET = 10_000_000
# uniquely colorable graphs at the edge floor listed per row of the report
MAX_TIGHT_EXAMPLES = 4


def _code_to_graph(code: int, n: int) -> Graph:
    pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    edges = set()
    for bit, (i, j) in enumerate(pairs):
        if (code >> (len(pairs) - 1 - bit)) & 1:
            edges.add((i, j))
    return Graph(n, frozenset(edges))


def canonical_code(g: Graph) -> int:
    """Isomorphism-invariant integer code of a graph."""
    return code(g.adjacency_masks())


def _levels(n_max: int, graph_budget: int):
    """Yield (n, codes) for n = 1..n_max: the sorted canonical codes of every
    isomorphism class on exactly n vertices.

    Built level by level: every class on i+1 vertices arises from a class on
    i vertices by attaching one new vertex, so extending each representative
    with every neighbor subset and deduplicating by canonical code is
    exhaustive. A representative is a tuple of neighbour bitmasks.
    """
    level = [(0,)]
    produced = 1
    yield 1, [0]
    for size in range(2, n_max + 1):
        new = size - 1
        produced += len(level) << new
        if produced > graph_budget:
            raise BudgetExceededError(
                f"enumeration generated more than {graph_budget} candidate graphs"
            )
        # child `mask` of a parent: the new vertex is adjacent to the set bits
        children = [
            tuple([nbrs | (mask >> v & 1) << new for v, nbrs in enumerate(parent)]) + (mask,)
            for parent in level
            for mask in range(1 << new)
        ]
        # (B, size, size) 0/1 matrices for the batch kernel, which the
        # benchmark times; without it each child would go to code() directly
        bits = np.arange(size, dtype=np.int64)
        batch = (np.array(children, dtype=np.int64)[:, :, None] >> bits & 1).astype(np.uint8)
        codes = canonical_codes(batch)
        keep: dict[int, int] = {}
        for idx, code in enumerate(codes.tolist()):
            if code not in keep:
                keep[code] = idx
        items = sorted(keep.items())
        level = [children[idx] for _, idx in items]
        yield size, [code for code, _ in items]


def enumerate_graphs(n: int, graph_budget: int = DEFAULT_GRAPH_BUDGET) -> list[Graph]:
    """All graphs on exactly n vertices, one representative per isomorphism
    class, in canonical-code order."""
    if not 1 <= n <= ENUMERATION_MAX_N:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUMERATION_MAX_N}")
    for _, codes in _levels(n, graph_budget):
        pass
    return [_code_to_graph(code, n) for code in codes]


@dataclass(frozen=True)
class EdgeBoundRow:
    n: int
    graphs_total: int
    unique_count: int
    bound: int
    min_edges: int | None
    tight_examples: tuple[tuple[tuple[int, int], ...], ...]
    counterexamples: tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True)
class EdgeBoundReport:
    """Exhaustive check that uniquely k-colorable graphs meet the edge floor."""

    k: int
    rows: tuple[EdgeBoundRow, ...]

    @property
    def ok(self) -> bool:
        return all(not row.counterexamples for row in self.rows)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "ok": self.ok,
            "rows": [
                {
                    "n": r.n,
                    "graphs_total": r.graphs_total,
                    "uniquely_colorable": r.unique_count,
                    "edge_bound": r.bound,
                    "min_edges_observed": r.min_edges,
                    "tight_examples": [list(map(list, e)) for e in r.tight_examples],
                    "counterexamples": [list(map(list, e)) for e in r.counterexamples],
                }
                for r in self.rows
            ],
        }


def verify_unique_colorable_edge_bound(
    n_max: int,
    k: int,
    graph_budget: int = DEFAULT_GRAPH_BUDGET,
) -> EdgeBoundReport:
    """Enumerate all graphs with at most n_max vertices (up to isomorphism),
    filter the uniquely k-colorable ones, and check each against the
    (k-1)n - k(k-1)/2 edge floor."""
    if not 1 <= n_max <= ENUMERATION_MAX_N:
        raise ValueError(f"need 1 <= n_max <= {ENUMERATION_MAX_N}")
    if not 1 <= k <= EDGE_BOUND_MAX_K:
        raise ValueError(f"need 1 <= k <= {EDGE_BOUND_MAX_K}")
    rows = []
    for n, codes in _levels(n_max, graph_budget):
        reps = [_code_to_graph(code, n) for code in codes]
        bound = bounds.unique_coloring_edge_lower(n, k)
        unique_count = 0
        min_edges = None
        tight = []
        bad = []
        for g in reps:
            if not is_uniquely_k_colorable(g, k):
                continue
            unique_count += 1
            if min_edges is None or g.m < min_edges:
                min_edges = g.m
            if g.m == bound and len(tight) < MAX_TIGHT_EXAMPLES:
                tight.append(tuple(g.sorted_edges()))
            if g.m < bound:
                bad.append(tuple(g.sorted_edges()))
        rows.append(
            EdgeBoundRow(n, len(reps), unique_count, bound, min_edges, tuple(tight), tuple(bad))
        )
    return EdgeBoundReport(k, tuple(rows))
