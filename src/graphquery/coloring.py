"""Deterministic proper k-coloring search, pair separability, and unique colorability.

One backtracking search, `_search_colorings`, serves every entry point. It
colors vertices in ascending label order and tries colors in ascending
order, opening a new color only after all lower ones are in use, so it
yields each proper color-class partition once and always in the same
(lexicographic) order; callers rely on that order for their colorings,
witnesses and verdicts. The search keeps, per color, the bitmask of
vertices adjacent to that color, and cuts a branch as soon as some uncolored
vertex has every color blocked (forward checking). The cut only drops
subtrees without solutions, so it saves nodes but never changes the output.

The searches are still exponential and intended for desk-scale inputs only;
every entry point takes a node budget and aborts with BudgetExceededError
when the search tree outgrows it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, normalize_edge
from .partitions import Partition

DEFAULT_NODE_BUDGET = 5_000_000

# Instrumentation: every backtracking search bumps these. Polynomial-time
# code paths must leave them untouched (tests rely on that).
SEARCH_STATS = {"invocations": 0, "nodes": 0}


def reset_search_stats() -> None:
    SEARCH_STATS["invocations"] = 0
    SEARCH_STATS["nodes"] = 0


class BudgetExceededError(RuntimeError):
    """The configured node-expansion budget was exhausted."""


@dataclass(frozen=True)
class Coloring:
    """Assignment of colors 1..palette_size to vertices 0..n-1."""

    colors: tuple[int, ...]
    palette_size: int

    def __post_init__(self):
        if self.palette_size < 1:
            raise ValueError("palette must have at least one color")
        for c in self.colors:
            if not 1 <= c <= self.palette_size:
                raise ValueError(f"color {c} outside palette 1..{self.palette_size}")

    @property
    def n(self) -> int:
        return len(self.colors)

    def color_of(self, v: int) -> int:
        return self.colors[v]

    def classes(self) -> Partition:
        """Partition into the nonempty color classes."""
        blocks: dict[int, list[int]] = {}
        for v, c in enumerate(self.colors):
            blocks.setdefault(c, []).append(v)
        return Partition.from_blocks(blocks.values())

    def is_proper(self, g: Graph) -> bool:
        return all(self.colors[u] != self.colors[v] for u, v in g.edges)


def _search_colorings(g: Graph, k: int, limit, node_budget):
    """Backtracking over color-class partitions, with forward checking.

    Vertices are assigned in ascending label order and colors in ascending
    palette order; a vertex may introduce color c only when colors 1..c-1
    already appear. This visits each proper color-class partition exactly
    once, so outputs are deterministic and palette permutations are never
    enumerated. Yields solutions as color tuples until `limit` of them.

    `near[c]` is the bitmask of vertices adjacent to some vertex colored c,
    so v may take c iff bit v of near[c] is clear. After a color is placed,
    a later vertex set in every near[1..k] has no color left, and the
    branch is cut there. Such a subtree holds no solution, so the cut
    changes neither the solutions nor their order, only the nodes spent.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    SEARCH_STATS["invocations"] += 1
    n = g.n
    masks = g.adjacency_masks()

    colors = [0] * n
    near = [0] * (k + 1)
    found = 0
    budget = [node_budget]

    def dead_after(v: int) -> int:
        """Vertices after v with every color 1..k blocked."""
        common = -1 << (v + 1)
        for c in range(1, k + 1):
            common &= near[c]
        return common

    def rec(v: int, used: int):
        nonlocal found
        if v == n:
            found += 1
            yield tuple(colors)
            return
        bit = 1 << v
        mask = masks[v]
        top = min(used + 1, k)
        for c in range(1, top + 1):
            before = near[c]
            if before & bit:
                continue
            budget[0] -= 1
            SEARCH_STATS["nodes"] += 1
            if budget[0] < 0:
                raise BudgetExceededError(
                    f"coloring search exceeded {node_budget} node expansions"
                )
            colors[v] = c
            near[c] = before | mask
            now_used = max(used, c)
            # with fewer than k colors in use, near[k] is still empty
            if now_used < k or not dead_after(v):
                yield from rec(v + 1, now_used)
            near[c] = before
            if limit is not None and found >= limit:
                return
        colors[v] = 0

    try:
        yield from rec(0, 0)
    finally:
        # rec's closure refers to rec itself; breaking that cycle lets
        # reference counting free the search state without the cyclic GC
        rec = None


def find_k_coloring(g: Graph, k: int, node_budget: int = DEFAULT_NODE_BUDGET) -> Coloring | None:
    """First proper k-coloring of g in the fixed search order, or None."""
    for colors in _search_colorings(g, k, limit=1, node_budget=node_budget):
        return Coloring(colors, k)
    return None


def proper_partitions(
    g: Graph,
    k: int,
    limit: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[Partition]:
    """Distinct proper color-class partitions of g with at most k classes.

    With `limit` set, stops as soon as that many have been found.
    """
    out = []
    for colors in _search_colorings(g, k, limit=limit, node_budget=node_budget):
        out.append(Coloring(colors, k).classes())
    return out


def is_uniquely_k_colorable(g: Graph, k: int, node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """True iff g has exactly one proper k-coloring up to palette permutation.

    Equivalently: exactly one induced color-class partition. Counting stops
    early after a second partition turns up.
    """
    return len(proper_partitions(g, k, limit=2, node_budget=node_budget)) == 1


def is_k_separable(
    g: Graph,
    i: int,
    j: int,
    k: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Coloring | None:
    """A k-coloring separating the nonadjacent pair {i, j}, or None if inseparable.

    Separating i and j is the constraint of an edge i-j, so this colors g
    with that edge added.
    """
    if i == j:
        raise ValueError("separability needs two distinct vertices")
    pair = normalize_edge(i, j)
    if pair in g.edges:
        raise ValueError(f"pair ({i}, {j}) is an edge; separability is undefined")
    return find_k_coloring(Graph(g.n, g.edges | {pair}), k, node_budget=node_budget)
