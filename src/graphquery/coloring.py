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

On the edgeless graph (`[0] * n`) nothing is cut, and the search yields
every partition into at most k blocks once, as its restricted growth string
plus 1, in lexicographic order. It is the only partition enumerator: the
alpha_m minimax game indexes its candidates in that order.

`find_k_coloring(..., after=p)` resumes that order instead of starting it:
it returns the first proper coloring that comes after every coloring
beginning with the prefix p. The search replays p[:-1], tries the colors
above p[-1] at the last prefix vertex, and then walks back up the prefix.
Replayed prefix vertices are not expanded, so they cost no nodes. A caller
that knows every coloring up to the end of p's subtree is improper (the
adversaries do; see `adversaries._SeparabilityRule`) gets the cold search's
answer for a fraction of its nodes.

The search is a lazy generator with no limit of its own: a caller stops
reading once it has what it needs (`find_k_coloring` after one coloring,
`proper_partitions` after `limit` partitions), and the search spends no
node past the last solution read.

The searches are still exponential and intended for desk-scale inputs only;
every entry point takes a node budget and aborts with BudgetExceededError
when the search tree outgrows it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .graphs import Graph, normalize_edge
from .partitions import Partition

DEFAULT_NODE_BUDGET = 5_000_000

# Instrumentation: every backtracking search bumps these, including the
# alpha_m minimax game's candidate enumeration (one invocation per game).
# Polynomial-time code paths must leave them untouched (tests rely on that).
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

    def classes(self) -> Partition:
        """Partition into the nonempty color classes."""
        return Partition.from_labels(self.colors)

    def is_proper(self, g: Graph) -> bool:
        return all(self.colors[u] != self.colors[v] for u, v in g.edges)


def _search_colorings(masks: list[int], k: int, node_budget, after=()):
    """Backtracking over color-class partitions, with forward checking.

    `masks[v]` is the bitmask of v's neighbors. Vertices are assigned in
    ascending label order and colors in ascending palette order; a vertex
    may introduce color c only when colors 1..c-1 already appear. This
    visits each proper color-class partition exactly once, so outputs are
    deterministic and palette permutations are never enumerated. Yields
    solutions as color tuples, lazily: the caller stops it by reading no
    further. A nonempty `after` starts the search just past every coloring
    that begins with it.

    `near[c]` is the bitmask of vertices adjacent to some vertex colored c,
    so v may take c iff bit v of near[c] is clear. After a color is placed,
    a later vertex set in every near[1..k] has no color left, and the
    branch is cut there. Such a subtree holds no solution, so the cut
    changes neither the solutions nor their order, only the nodes spent.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    n = len(masks)
    if len(after) > n:
        raise ValueError(f"prefix of {len(after)} colors for {n} vertices")
    used = 0
    for c in after:
        if not 0 < c <= k or c > used + 1:
            raise ValueError(f"{tuple(after)} is not a search path with {k} colors")
        if c > used:
            used = c
    SEARCH_STATS["invocations"] += 1

    colors = [0] * n
    near = [0] * (k + 1)
    budget = [node_budget]

    def dead_after(v: int) -> int:
        """Vertices after v with every color 1..k blocked."""
        common = -1 << (v + 1)
        for c in range(1, k + 1):
            common &= near[c]
        return common

    def rec(v: int, used: int, first: int = 1):
        if v == n:
            yield tuple(colors)
            return
        bit = 1 << v
        mask = masks[v]
        top = min(used + 1, k)
        for c in range(first, top + 1):
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
        colors[v] = 0

    try:
        if not after:
            yield from rec(0, 0)
            return
        # replay after[:-1], remembering what each step overwrote
        undo = []
        used = 0
        for v in range(len(after) - 1):
            c = after[v]
            undo.append((c, near[c], used))
            colors[v] = c
            near[c] |= masks[v]
            if c > used:
                used = c
        # next colors at the last prefix vertex, then at each one above it
        for v in range(len(after) - 1, -1, -1):
            yield from rec(v, used, after[v] + 1)
            if not v:
                return
            c, near[c], used = undo.pop()
    finally:
        # rec's closure refers to rec itself; breaking that cycle lets
        # reference counting free the search state without the cyclic GC
        rec = None


def find_k_coloring(
    g: Graph | list[int],
    k: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    after: tuple[int, ...] = (),
) -> Coloring | None:
    """First proper k-coloring of g in the fixed search order, or None.

    g is a Graph or its list of adjacency bitmasks (which is only read).
    With `after` set, the first coloring past every one that begins with
    that prefix, or None when there is none.
    """
    masks = g.adjacency_masks() if isinstance(g, Graph) else g
    for colors in _search_colorings(masks, k, node_budget, after):
        return Coloring(colors, k)
    return None


def proper_partitions(
    g: Graph | list[int],
    k: int,
    limit: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[Partition]:
    """Distinct proper color-class partitions of g with at most k classes.

    g is a Graph or its list of adjacency bitmasks (which is only read).
    With `limit` set, stops as soon as that many have been found.
    """
    masks = g.adjacency_masks() if isinstance(g, Graph) else g
    search = _search_colorings(masks, k, node_budget)
    return [Partition.from_labels(colors) for colors in islice(search, limit)]


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
