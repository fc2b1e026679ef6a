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

Label order is the default, and every caller that reads a coloring, a
partition or a count keeps it. A caller that only needs to know whether a
coloring exists may ask `find_k_coloring` for high-degree first instead:
it relabels the vertices once, in non-increasing degree order with ties by
label, runs the same search and maps the coloring back to the caller's
labels. Whether a coloring exists does not depend on the order, but a
search that places high-degree vertices first fails much sooner on a graph
with no coloring (Brélaz, CACM 1979), most of all when isolated or
low-degree vertices have low labels.

On the edgeless graph (`[0] * n`) nothing is cut, and the search yields
every partition into at most k blocks once, as its restricted growth string
plus 1, in lexicographic order. It is the only partition enumerator: the
alpha_m minimax game indexes its candidates in that order.

The search is a lazy generator with no limit of its own: the loop yields
each solution as it reaches it, a caller stops reading once it has what it
needs (`find_k_coloring` after one coloring, `proper_partitions` after
`limit` partitions), and the search spends no node past the last solution
read.

A search books one invocation in `SEARCH_STATS` as it starts, and all its
nodes at once as it ends: when it is exhausted, when it overruns the node
budget, or when it is closed. A search its caller stops reading is closed
as its last reference goes; the entry points below hold theirs only in
locals, so every search they run is booked before they return. A caller
that holds a suspended search itself sees its nodes only once it closes
it.

The searches are still exponential and intended for desk-scale inputs only.
Every search reads the module constant `DEFAULT_NODE_BUDGET` when it starts
and aborts with BudgetExceededError once it expands more nodes than that.
Its memory does not grow with the palette: a search never opens more than
n colors, whatever k is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import islice
from operator import and_

from .graphs import Graph
from .partitions import Partition

DEFAULT_NODE_BUDGET = 5_000_000

# Instrumentation: every backtracking search bumps these, including the
# alpha_m minimax game's candidate enumeration (one invocation per game).
# A search books its invocation as it starts and its nodes once, as it is
# exhausted, closed or overruns the budget, so a suspended search's nodes
# are not here yet. Polynomial-time code paths must leave them untouched
# (tests rely on that).
SEARCH_STATS = {"invocations": 0, "nodes": 0}


class BudgetExceededError(RuntimeError):
    """A search expanded more than `DEFAULT_NODE_BUDGET` nodes."""


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


def _search_colorings(masks: list[int], k: int):
    """Backtracking over color-class partitions, with forward checking.

    `masks[v]` is the bitmask of v's neighbors. Vertices are assigned in
    ascending label order and colors in ascending palette order; a vertex
    may introduce color c only when colors 1..c-1 already appear. This
    visits each proper color-class partition exactly once, so outputs are
    deterministic and palette permutations are never enumerated. Yields
    solutions as color tuples, lazily: the caller stops it by reading no
    further.

    The countdown `budget` counts the nodes; `node_budget - budget` is
    booked into `SEARCH_STATS["nodes"]` once, in a `finally` that runs when
    the search is exhausted, raises BudgetExceededError or is closed
    (explicitly, or as its last reference goes). Until then a suspended
    search's nodes are not in `SEARCH_STATS`.

    The state is flat, per vertex: `colors[v]` (0 while unplaced),
    `saved[v]`, the value of near[colors[v]] before v took that color, and
    `used[v]`, the number of colors in use before v (held in the local `u`
    while v is placed). Each step of the loop takes v's color back and
    gives v its next free one, then goes down to v + 1, or back up to
    v - 1 when v has no color left.

    `near[c]` is the bitmask of vertices adjacent to some vertex colored c,
    so v may take c iff bit v of near[c] is clear. After a color is placed,
    a later vertex set in every near[1..k] has no color left, and the
    branch is cut there. Such a subtree holds no solution, so the cut
    changes neither the solutions nor their order, only the nodes spent.
    `near` has a slot per color the search can open, min(k, n), plus
    near[0] = -1, so the check is one AND over the whole list; it runs only
    once all k colors are in use, so only when k <= n.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    n = len(masks)
    colors, saved, used = [0] * n, [0] * n, [0] * n
    # at most n colors ever open; near[0] stays -1, the AND's identity
    near = [0] * (min(k, n) + 1)
    near[0] = -1
    SEARCH_STATS["invocations"] += 1
    if not n:
        yield ()
        return

    # read as the search starts, so that a test can patch the constant
    node_budget = budget = DEFAULT_NODE_BUDGET
    try:
        v = 0
        while v >= 0:
            c = colors[v]
            if c:
                near[c] = saved[v]
            bit = 1 << v
            u = used[v]
            top = u + 1 if u < k else k
            c += 1
            while c <= top and near[c] & bit:
                c += 1
            if c > top:
                colors[v] = 0
                v -= 1
                continue
            budget -= 1
            if budget < 0:
                raise BudgetExceededError(
                    f"coloring search exceeded {node_budget} node expansions"
                )
            colors[v] = c
            saved[v] = near[c]
            near[c] |= masks[v]
            if c > u:
                u = c
            # with fewer than k colors in use, near[k] is still empty
            if u == k and reduce(and_, near, -1 << (v + 1)):
                continue
            if v + 1 == n:
                yield tuple(colors)
            else:
                v += 1
                used[v] = u
    finally:
        SEARCH_STATS["nodes"] += node_budget - budget


def _by_degree(masks: list[int]) -> tuple[list[int] | None, list[int]]:
    """The rank of each vertex in non-increasing degree order, ties by
    label, and the masks relabelled so that vertex v becomes rank[v]; or
    None and the masks themselves when the labels are in that order."""
    degrees = [m.bit_count() for m in masks]
    if degrees == sorted(degrees, reverse=True):
        return None, masks
    # a reversed sort keeps equal degrees in label order
    order = sorted(range(len(masks)), key=degrees.__getitem__, reverse=True)
    rank = [0] * len(masks)
    for i, v in enumerate(order):
        rank[v] = i
    relabelled = []
    for v in order:
        m = masks[v]
        acc = 0
        while m:
            low = m & -m
            acc |= 1 << rank[low.bit_length() - 1]
            m ^= low
        relabelled.append(acc)
    return rank, relabelled


def find_k_coloring(
    g: Graph | list[int], k: int, *, high_degree_first: bool = False
) -> Coloring | None:
    """First proper k-coloring of g in the fixed search order, or None.

    g is a Graph or its list of adjacency bitmasks (which is only read).
    With `high_degree_first`, the search places the vertices in
    non-increasing degree order, ties by label, instead of label order.
    It returns None on exactly the same inputs, and otherwise some proper
    coloring in g's own labels, not necessarily the first in label order.
    """
    masks = g.adjacency_masks() if isinstance(g, Graph) else g
    rank = None
    if high_degree_first:
        rank, masks = _by_degree(masks)
    for colors in _search_colorings(masks, k):
        if rank is not None:
            colors = tuple([colors[r] for r in rank])
        return Coloring(colors, k)
    return None


def proper_partitions(
    g: Graph | list[int], k: int, limit: int | None = None
) -> list[Partition]:
    """Distinct proper color-class partitions of g with at most k classes.

    g is a Graph or its list of adjacency bitmasks (which is only read).
    With `limit` set, stops as soon as that many have been found.
    """
    masks = g.adjacency_masks() if isinstance(g, Graph) else g
    search = _search_colorings(masks, k)
    return [Partition.from_labels(colors) for colors in islice(search, limit)]


def is_uniquely_k_colorable(g: Graph | list[int], k: int) -> bool:
    """True iff g has exactly one proper k-coloring up to palette permutation.

    Equivalently: exactly one induced color-class partition. g is a Graph or
    its list of adjacency bitmasks (which is only read). Counting stops
    early after a second partition turns up, and builds no Partition.
    """
    masks = g.adjacency_masks() if isinstance(g, Graph) else g
    return sum(1 for _ in islice(_search_colorings(masks, k), 2)) == 1
