"""Simple undirected graphs on dense integer labels, components, contraction, and edge-list I/O."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .partitions import Partition

Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    """Return the edge as an ordered pair (min, max)."""
    if u == v:
        raise ValueError(f"self-loop {u!r} is not a valid edge")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Edges are stored as a frozenset of (u, v) pairs with u < v; loops and
    duplicates are rejected at construction.
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
    def adjacency(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple([frozenset(s) for s in adj])  # from a list, see adversaries._initial_state

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighbor bitmasks (bit v set iff v adjacent)."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

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
    """Partition of the vertex set into maximal connected sets, canonical form."""
    dsu = ContractionMap(g.n)
    for u, v in g.edges:
        if dsu.find(u) != dsu.find(v):
            dsu.union(u, v)
    return Partition.from_blocks(dsu.classes())


class ContractionMap:
    """Disjoint-set forest over original vertex labels.

    find() is idempotent on representatives and each successful union
    merges exactly two classes.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one element")
        self.n = n
        self._parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def same(self, x: int, y: int) -> bool:
        return self.find(x) == self.find(y)

    def union(self, x: int, y: int) -> int:
        """Merge the classes of x and y; the smaller label becomes representative."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            raise ValueError(f"{x} and {y} are already identified")
        if ry < rx:
            rx, ry = ry, rx
        self._parent[ry] = rx
        return rx

    def representatives(self) -> list[int]:
        return sorted({self.find(v) for v in range(self.n)})

    def classes(self) -> list[list[int]]:
        by_rep: dict[int, list[int]] = {}
        for v in range(self.n):
            by_rep.setdefault(self.find(v), []).append(v)
        return [sorted(vs) for _, vs in sorted(by_rep.items())]


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
