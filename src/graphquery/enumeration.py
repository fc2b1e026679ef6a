"""Exhaustive graph enumeration up to isomorphism and the unique-coloring edge bound.

Each level grows from the one below by augmentation: a new vertex joins a
representative only where it ends up maximising the pair (degree, sum of
its neighbours' degrees), compared lexicographically, ties allowed. Any
vertex invariant would do (McKay, J. Algorithms 1998); this one is cheap
and rejects more children than degree alone. It still reaches every
class. Deleting a vertex that maximises the pair from any graph on n
vertices leaves a graph isomorphic to some representative R on n-1
vertices; adding the vertex back to R with the matching neighbours gives
a child of R isomorphic to the graph, in which the new vertex again
maximises the pair.

A representative's neighbour subsets are also taken one per twin orbit.
Vertices u and v of R are twins when N(u) minus v equals N(v) minus u.
Twinship is an equivalence, each twin class is a clique or an independent
set, and any permutation inside a class is an automorphism of R. An
automorphism of R maps the child with subset S onto the child with its
image of S, so the child depends, up to isomorphism, only on how many
vertices of each class the new vertex sees. One subset per count vector
suffices: the lowest-labelled vertices of each class. That map of children
fixes the new vertex and keeps every vertex invariant, so the augmentation
test passes on the orbit's chosen subset whenever it passes anywhere on
the orbit, and every class is still reached.

The uniqueness check of `verify_unique_colorable_edge_bound` runs on each
class relabelled v -> n-1-v. Canonical order puts a minimum-degree vertex
first, and the colouring search places vertices in label order, so the
reversal starts it on the high-degree vertices, where a dead branch shows
soonest (Brélaz, CACM 1979). A verdict does not depend on labels; tight
examples and counterexamples are read off the canonical masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from ._canon import canonical_codes
from .coloring import is_uniquely_k_colorable
from .graphs import Graph, mask_edges, twin_classes
from . import bounds

ENUMERATION_MAX_N = 8
EDGE_BOUND_MAX_K = ENUMERATION_MAX_N
# uniquely colorable graphs at the edge floor listed per row of the report
MAX_TIGHT_EXAMPLES = 4


@cache
def _bit_edges(n: int, reverse: bool) -> tuple[tuple[int, int, int, int], ...]:
    # bit b of a code, least significant first, as (i, 1 << j, j, 1 << i);
    # the most significant bit is the first pair (0, 1) in row-major order,
    # or (n-1, n-2) when every vertex v is relabelled n-1-v
    pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    if reverse:
        pairs = [(n - 1 - i, n - 1 - j) for i, j in pairs]
    return tuple((i, 1 << j, j, 1 << i) for i, j in reversed(pairs))


def _code_masks(code: int, n: int, reverse: bool = False) -> list[int]:
    """The neighbour bitmasks of the graph whose row-major upper-triangle bit
    string is `code`, with vertex v relabelled n-1-v if `reverse`: the one
    decoder of a canonical code."""
    masks = [0] * n
    edges = _bit_edges(n, reverse)
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


def _augmenting_subsets(parent: tuple[int, ...]) -> list[int]:
    """The neighbour subsets, one per twin orbit and ascending, whose child
    of `parent` gives the new vertex a maximal (degree, sum of neighbours'
    degrees) pair, ties allowed (see the module docstring).

    The new vertex's degree w = popcount(mask) is maximal iff w > top, the
    parent's maximum degree, or w == top and `mask` avoids the vertices of
    degree top. Only rivals, the vertices whose child degree is also w, can
    then beat its sum: those of degree w outside `mask` and of degree w - 1
    inside it. A rival's sum in the child is its parent sum, plus its
    neighbours in `mask`, plus w when it is in `mask`; the new vertex's sum
    is the parent degrees over `mask`, plus w.
    """
    degrees = [nbrs.bit_count() for nbrs in parent]
    top = max(degrees)
    # by_degree[d]: the vertices of degree d; by_degree[top + 1] stays empty
    by_degree = [0] * (top + 2)
    for v, d in enumerate(degrees):
        by_degree[d] |= 1 << v
    sums = [sum([d for u, d in enumerate(degrees) if nbrs >> u & 1]) for nbrs in parent]
    kept = []
    for mask in _twin_orbit_subsets(parent):
        w = mask.bit_count()
        if w < top or w == top and mask & by_degree[top]:
            continue
        if w <= top + 1:
            rivals = by_degree[w] & ~mask | by_degree[w - 1] & mask
            own = 0
            for v, d in enumerate(degrees):
                if mask >> v & 1:
                    own += d
            # plain loops: this test runs on most candidates of a level
            while rivals:
                low = rivals & -rivals
                v = low.bit_length() - 1
                if sums[v] + (parent[v] & mask).bit_count() > (own if mask & low else own + w):
                    break
                rivals ^= low
            if rivals:  # one beat the new vertex
                continue
        kept.append(mask)
    return kept


def _levels(n_max: int):
    """Yield (n, codes) for n = 1..n_max: the sorted canonical codes of every
    isomorphism class on exactly n vertices.

    Built level by level. A child of a representative on i vertices attaches
    one new vertex to a neighbour subset. Only one subset per twin orbit is
    tried, and of those only the ones in which the new vertex maximises
    (degree, sum of neighbours' degrees) are built (`_augmenting_subsets`).
    Deleting a vertex that maximises the pair from any graph leaves a graph
    isomorphic to a representative, and adding it back gives a child that
    passes, so deduplicating the children by canonical code is exhaustive
    (see the module docstring). A representative is a tuple of neighbour
    bitmasks.
    """
    level = [(0,)]
    yield 1, [0]
    for size in range(2, n_max + 1):
        new = size - 1
        children = []
        for parent in level:
            # child `mask`: the new vertex is adjacent to the set bits
            children += [
                tuple([nbrs | (mask >> v & 1) << new for v, nbrs in enumerate(parent)]) + (mask,)
                for mask in _augmenting_subsets(parent)
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


def enumerate_graphs(n: int) -> list[Graph]:
    """All graphs on exactly n vertices, one representative per isomorphism
    class, in canonical-code order."""
    if not 1 <= n <= ENUMERATION_MAX_N:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUMERATION_MAX_N}")
    for _, codes in _levels(n):
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


def verify_unique_colorable_edge_bound(n_max: int, k: int) -> EdgeBoundReport:
    """Enumerate all graphs with at most n_max vertices (up to isomorphism),
    filter the uniquely k-colorable ones, and check each against the
    (k-1)n - k(k-1)/2 edge floor."""
    if not 1 <= n_max <= ENUMERATION_MAX_N:
        raise ValueError(f"need 1 <= n_max <= {ENUMERATION_MAX_N}")
    if not 1 <= k <= EDGE_BOUND_MAX_K:
        raise ValueError(f"need 1 <= k <= {EDGE_BOUND_MAX_K}")
    rows = []
    for n, codes in _levels(n_max):
        bound = bounds.membership_known_count(n, k)
        unique_count = 0
        min_edges = None
        tight = []
        bad = []
        for code in codes:
            # high-degree vertices first; see the module docstring
            if not is_uniquely_k_colorable(_code_masks(code, n, reverse=True), k):
                continue
            unique_count += 1
            m = code.bit_count()
            if min_edges is None or m < min_edges:
                min_edges = m
            if m == bound and len(tight) < MAX_TIGHT_EXAMPLES:
                tight.append(tuple(mask_edges(_code_masks(code, n))))
            if m < bound:
                bad.append(tuple(mask_edges(_code_masks(code, n))))
        rows.append(
            EdgeBoundRow(n, len(codes), unique_count, bound, min_edges, tuple(tight), tuple(bad))
        )
    return EdgeBoundReport(k, tuple(rows))
