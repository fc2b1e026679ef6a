"""Simple undirected graphs on dense integer labels, vertex sets as
bitmasks, components, contraction, and edge-list I/O.

A graph stores its edges; the one form derived from them is a cached tuple
of neighbour bitmasks, which answers neighbourhoods, degrees and components.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import Iterable, Sequence

from .partitions import Partition, check_vertex

Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    """Return the edge as an ordered pair (min, max)."""
    if u == v:
        raise ValueError(f"self-loop {u!r} is not a valid edge")
    return (u, v) if u < v else (v, u)


def bits(mask: int):
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class VertexSet(Set):
    """Immutable set of vertices stored as one int bitmask: bit v is set iff
    v is a member.

    It compares and hashes equal to the frozenset with the same members.
    The set queries pass and store their sets in this form, so a query set
    costs one big int, and intersecting it with a neighbourhood or a
    component is one AND.
    """

    __slots__ = ("mask",)

    def __init__(self, mask: int = 0):
        if mask < 0:
            raise ValueError(f"vertex mask must be nonnegative, got {mask}")
        self.mask = mask

    @classmethod
    def of(cls, vertices: Iterable[int]) -> VertexSet:
        """The set of the given vertices; a VertexSet is returned as it is."""
        if isinstance(vertices, VertexSet):
            return vertices
        mask = 0
        try:
            for v in vertices:
                mask |= 1 << index(v)
        except ValueError:  # a negative shift
            raise ValueError(f"vertex {v} is negative") from None
        return cls(mask)

    @classmethod
    def within(cls, vertices: Iterable[int], n: int) -> VertexSet:
        """The given vertices, checked to lie in 0..n-1; an error names the least
        member past n of a VertexSet, or else the first bad member."""
        if isinstance(vertices, VertexSet):
            beyond = vertices.mask >> n
            if beyond:
                check_vertex(n + (beyond & -beyond).bit_length() - 1, n)
            return vertices
        members = list(vertices)
        if members and (min(members) < 0 or max(members) >= n):
            for v in members:
                check_vertex(v, n)
        return cls.of(members)

    _from_iterable = of  # what the Set operators build their results with

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self):
        """The members in ascending order."""
        return bits(self.mask)

    def __contains__(self, v) -> bool:
        """Membership of any integer, numpy ints included; False for the rest."""
        try:
            v = index(v)
        except TypeError:
            return False
        return v >= 0 and bool(self.mask >> v & 1)

    __hash__ = Set._hash

    def __repr__(self) -> str:
        return f"VertexSet.of({list(self)})"


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Edges are stored as a frozenset of (u, v) pairs with u < v; loops and
    duplicates are rejected at construction; neighbour masks derive from them.
    """

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) invalid for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]] = ()) -> Graph:
        """Build a graph, normalizing edge orientation."""
        return cls(n, frozenset(normalize_edge(u, v) for u, v in edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)  # from a list, see adversaries._QuotientAdversary.__init__

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighbor bitmasks (bit v set iff v adjacent), in a new list."""
        return list(self._masks)

    def neighbors(self, v: int) -> VertexSet:
        if 0 <= v < self.n:
            return VertexSet(self._masks[v])
        check_vertex(v, self.n)

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def clique_union_graph(blocks: Iterable[Iterable[int]], n: int) -> Graph:
    """Disjoint union of cliques, one per block; realizes a partition as components."""
    edges = []
    for block in blocks:
        bs = sorted(block)
        for i in range(len(bs)):
            for j in range(i + 1, len(bs)):
                edges.append((bs[i], bs[j]))
    return Graph.from_edges(n, edges)


def connected_components(g: Graph) -> Partition:
    """Partition of the vertex set into maximal connected sets, canonical form:
    each flood fill starts at the least unplaced vertex, so no sort is needed."""
    masks = g._masks
    blocks = []
    unseen = (1 << g.n) - 1
    while unseen:
        placed = unseen
        todo = unseen & -unseen  # reached vertices whose neighbours are unread
        unseen ^= todo
        while todo:
            low = todo & -todo
            todo ^= low
            reached = masks[low.bit_length() - 1] & unseen
            unseen ^= reached
            todo |= reached
        blocks.append(tuple(bits(placed ^ unseen)))
    return Partition(tuple(blocks))


def mask_edges(masks: Sequence[int]) -> list[Edge]:
    """The sorted edges of the graph whose neighbour bitmasks are `masks`."""
    return [(u, v) for u, nbrs in enumerate(masks) for v in bits(nbrs) if u < v]


def twin_classes(masks: Sequence[int]) -> list[list[int]]:
    """The twin classes of the graph whose neighbour bitmasks are `masks`:
    each class's members ascending, the classes in order of their least member.

    u and v are twins when N(u) minus v equals N(v) minus u. Twinship is an
    equivalence, each class is a clique or an independent set, and any
    permutation inside a class is an automorphism of the graph.
    """
    classes: list[list[int]] = []
    for v, nbrs in enumerate(masks):
        for members in classes:
            u = members[0]
            if not (nbrs ^ masks[u]) & ~(1 << u | 1 << v):
                members.append(v)
                break
        else:
            classes.append([v])
    return classes


def contract(h: Sequence[int], a: int, b: int) -> tuple[int, ...]:
    """H / ab for non-adjacent a < b: b merged into a, the vertices above b
    moved down one label.

    H is a graph as neighbour bitmasks. The minimax alpha game and every
    adversary contract their auxiliary graph with it.
    """
    low = (1 << b) - 1
    bit_a, bit_b = 1 << a, 1 << b
    out = []
    for v, nbrs in enumerate(h):
        if v == b:
            continue
        if v == a:
            nbrs |= h[b]
        elif nbrs & bit_b:
            nbrs |= bit_a
        out.append(nbrs & low | nbrs >> 1 & ~low)
    return tuple(out)


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    First meaningful line is "n m", followed by m lines "u v" with
    0 <= u < v < n. Blank lines and lines starting with "#" are ignored.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines.append(line)
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n m', got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = set()
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < v < n):
            raise ValueError(f"edge line {line!r} violates 0 <= u < v < n")
        if (u, v) in edges:
            raise ValueError(f"duplicate edge {line!r}")
        edges.add((u, v))
    return Graph(n, frozenset(edges))


def format_edge_list(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(out) + "\n"


def read_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())
