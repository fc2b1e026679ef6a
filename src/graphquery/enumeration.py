"""Exhaustive graph enumeration up to isomorphism and the unique-coloring edge bound.

Each level grows from the one below by max-degree augmentation: a new
vertex joins a representative only where it ends up with maximum degree.
That still reaches every class. Deleting a maximum-degree vertex from any
graph on n vertices leaves a graph isomorphic to some representative R on
n-1 vertices; adding the vertex back to R with the matching neighbours
gives a child of R isomorphic to the graph, in which the new vertex again
has maximum degree. The graph budget still counts every neighbour subset
of every representative, as when all of them were built.

A representative's neighbour subsets are also taken one per twin orbit.
Vertices u and v of R are twins when N(u) minus v equals N(v) minus u.
Twinship is an equivalence, each twin class is a clique or an independent
set, and any permutation inside a class is an automorphism of R. An
automorphism of R maps the child with subset S onto the child with its
image of S, so the child depends, up to isomorphism, only on how many
vertices of each class the new vertex sees. One subset per count vector
suffices: the lowest-labelled vertices of each class. The max-degree test
reads only degrees, which automorphisms keep, so it passes on the orbit's
chosen subset whenever it passes anywhere on the orbit, and every class is
still reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from ._canon import canonical_codes
from .coloring import BudgetExceededError, is_uniquely_k_colorable
from .graphs import Graph, mask_edges, twin_classes
from . import bounds

ENUMERATION_MAX_N = 8
EDGE_BOUND_MAX_K = ENUMERATION_MAX_N
DEFAULT_GRAPH_BUDGET = 10_000_000
# uniquely colorable graphs at the edge floor listed per row of the report
MAX_TIGHT_EXAMPLES = 4


@cache
def _bit_edges(n: int) -> tuple[tuple[int, int, int, int], ...]:
    # bit b of a code, least significant first, as (i, 1 << j, j, 1 << i);
    # the most significant bit is the first pair (0, 1) in row-major order
    pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    return tuple((i, 1 << j, j, 1 << i) for i, j in reversed(pairs))


def _code_masks(code: int, n: int) -> list[int]:
    """The neighbour bitmasks of the graph whose row-major upper-triangle bit
    string is `code`: the one decoder of a canonical code."""
    masks = [0] * n
    edges = _bit_edges(n)
    while code:
        low = code & -code
        i, j_bit, j, i_bit = edges[low.bit_length() - 1]
        masks[i] |= j_bit
        masks[j] |= i_bit
        code ^= low
    return masks


def _twin_orbit_subsets(parent: tuple[int, ...]) -> list[int]:
    """One neighbour subset of `parent` per orbit of its twin swaps, ascending.

    Each subset takes the lowest-labelled vertices of every twin class, any
    number of them from none to all (see the module docstring).
    """
    subsets = [0]
    for members in twin_classes(parent):
        prefixes = [0]
        for v in members:
            prefixes.append(prefixes[-1] | 1 << v)
        subsets = [mask | prefix for mask in subsets for prefix in prefixes]
    subsets.sort()
    return subsets


def _levels(n_max: int, graph_budget: int):
    """Yield (n, codes) for n = 1..n_max: the sorted canonical codes of every
    isomorphism class on exactly n vertices.

    Built level by level. A child of a representative on i vertices attaches
    one new vertex to a neighbour subset. Only one subset per twin orbit is
    tried, and of those only the ones in which the new vertex has maximum
    degree are built; deduplicating the children by canonical code is
    exhaustive (see the module docstring). With `top` the parent's maximum
    degree and `tops` the bitmask of vertices that have it, subset `mask`
    qualifies iff popcount(mask) > top, or popcount(mask) == top and `mask`
    avoids `tops`. A representative is a tuple of neighbour bitmasks.

    The graph budget counts every neighbour subset of every parent, built or
    not, and is checked before a level is built.
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
        children = []
        for parent in level:
            degrees = [nbrs.bit_count() for nbrs in parent]
            top = max(degrees)
            tops = sum(1 << v for v, d in enumerate(degrees) if d == top)
            # child `mask`: the new vertex is adjacent to the set bits
            children += [
                tuple([nbrs | (mask >> v & 1) << new for v, nbrs in enumerate(parent)]) + (mask,)
                for mask in _twin_orbit_subsets(parent)
                if (w := mask.bit_count()) > top or w == top and not mask & tops
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
    return [Graph(n, frozenset(mask_edges(_code_masks(code, n)))) for code in codes]


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
        bound = bounds.membership_known_count(n, k)
        unique_count = 0
        min_edges = None
        tight = []
        bad = []
        for code in codes:
            masks = _code_masks(code, n)
            if not is_uniquely_k_colorable(masks, k):
                continue
            unique_count += 1
            m = code.bit_count()
            if min_edges is None or m < min_edges:
                min_edges = m
            if m == bound and len(tight) < MAX_TIGHT_EXAMPLES:
                tight.append(tuple(mask_edges(masks)))
            if m < bound:
                bad.append(tuple(mask_edges(masks)))
        rows.append(
            EdgeBoundRow(n, len(codes), unique_count, bound, min_edges, tuple(tight), tuple(bad))
        )
    return EdgeBoundReport(k, tuple(rows))
