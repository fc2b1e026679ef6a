"""Learning and verification algorithms instrumented with exact query counts.

Every learner takes a session object (an honest oracle or an adversary),
issues queries through it, and reports the ledger delta as `queries_used`.
Learners keep no state of their own, so one session may host several runs
sequentially; concurrent learners need separate sessions. The set queries
receive their sets as `graphs.VertexSet` bitmasks, built with big-int
operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import Graph, VertexSet, bits
from .partitions import Partition


class OracleInconsistencyError(RuntimeError):
    """The oracle's answers cannot all be true of any one hidden graph."""


@dataclass(frozen=True)
class TraceNode:
    """One probed vertex set in a neighbor-search recursion tree.

    answer 1 is "blue" (the set contains a neighbor), 0 is "red". The root
    of a multi-element search is never queried; its answer is deduced from
    its children and `queried` is False there.
    """

    subset: tuple[int, ...]
    answer: int
    queried: bool
    children: tuple[TraceNode, ...] = ()

    @property
    def is_blue(self) -> bool:
        return self.answer == 1


@dataclass(frozen=True)
class RecursionTrace:
    """Recursion tree of one neighbor search; empty when no neighbor was found."""

    root: TraceNode | None

    def nodes(self) -> list[TraceNode]:
        if self.root is None:
            return []
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.children)
        return out

    def blue_nodes(self) -> list[TraceNode]:
        """Nodes answered 1; public because the paper's recursion-tree
        analysis counts blue and red nodes."""
        return [nd for nd in self.nodes() if nd.is_blue]

    def red_nodes(self) -> list[TraceNode]:
        """Nodes answered 0, the paper's red nodes (see `blue_nodes`)."""
        return [nd for nd in self.nodes() if not nd.is_blue]


@dataclass(frozen=True)
class LearnResult:
    answer: object
    queries_used: int
    trace: RecursionTrace | None = None


def _as_order(n: int, order: Sequence[int] | None) -> list[int]:
    if order is None:
        return list(range(n))
    order = list(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of 0..n-1")
    return order


def learn_partition_representatives(session, n, k_known=None, order=None) -> LearnResult:
    """Classify each vertex against a growing set of component representatives.

    Vertices are processed in `order` (ascending by default). An unclassified
    vertex is queried against the representatives in discovery order and
    joins the first one that answers 1; if all answer 0 it becomes a new
    representative. When `k_known` is given and all k representatives exist,
    the final representative is never queried: k-1 zeros already pin the
    vertex to it, and no further representative is ever hypothesized.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if k_known is not None and not 1 <= k_known <= n:
        raise ValueError(f"k_known must lie in 1..{n}")
    order = _as_order(n, order)
    start = session.ledger.count
    reps: list[int] = []
    blocks: list[list[int]] = []
    for v in order:
        if not reps:
            reps.append(v)
            blocks.append([v])
            continue
        skip_last = k_known is not None and len(reps) == k_known
        candidates = reps[:-1] if skip_last else reps
        placed = False
        for i, r in enumerate(candidates):
            if session.membership_query(r, v):
                blocks[i].append(v)
                placed = True
                break
        if not placed:
            if skip_last:
                blocks[-1].append(v)
            else:
                reps.append(v)
                blocks.append([v])
    if k_known is not None and len(reps) != k_known:
        raise OracleInconsistencyError(
            f"found {len(reps)} representatives but the oracle promised {k_known} components"
        )
    return LearnResult(Partition.from_blocks(blocks), session.ledger.count - start)


def learn_partition_all_pairs(session, n) -> LearnResult:
    """Query every pair not already implied equal by earlier 1-answers.

    cls[v] is the bitmask of v's known class. A 1-answer merges two classes;
    a pair inside one class is skipped (its answer is forced), all else asked.
    """
    if n < 1:
        raise ValueError("n must be positive")
    start = session.ledger.count
    cls = [1 << v for v in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if cls[u] >> v & 1:
                continue
            if session.membership_query(u, v):
                merged = cls[u] | cls[v]
                for w in bits(merged):
                    cls[w] = merged
    return LearnResult(Partition.from_labels(cls), session.ledger.count - start)


def count_components_multi(session, n) -> LearnResult:
    """Count components with one pooled membership query per vertex.

    Sweeps the vertices in ascending order, keeping a shrinking survivor
    set; a vertex sharing a component with another survivor is deleted.
    Exactly n queries, the last survivor of each component remains.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return LearnResult(0, 0)
    start = session.ledger.count
    alive = (1 << n) - 1
    for v in range(n):
        alive ^= 1 << v
        if not session.multi_membership_query(v, VertexSet(alive)):
            alive |= 1 << v
    return LearnResult(alive.bit_count(), session.ledger.count - start)


def learn_components_multi(session, n) -> LearnResult:
    """Learn the full partition with pooled membership queries.

    Each new vertex is first queried against the union of all known classes;
    on 1 its class is located by halving the class list, querying only the
    first half of each split (a 0 implies the second half for free).
    """
    if n < 1:
        raise ValueError("n must be positive")
    start = session.ledger.count
    classes = [1]  # one vertex bitmask per class, in discovery order
    for v in range(1, n):
        # every earlier vertex already sits in a class
        if session.multi_membership_query(v, VertexSet((1 << v) - 1)) == 0:
            classes.append(1 << v)
            continue
        candidates = list(range(len(classes)))
        while len(candidates) > 1:
            half = candidates[: (len(candidates) + 1) // 2]
            pooled = 0
            for i in half:
                pooled |= classes[i]
            if session.multi_membership_query(v, VertexSet(pooled)):
                candidates = half
            else:
                candidates = candidates[len(half):]
        classes[candidates[0]] |= 1 << v
    blocks = [list(VertexSet(mask)) for mask in classes]
    return LearnResult(Partition.from_blocks(blocks), session.ledger.count - start)


def _split(part: list[int], mask: int) -> tuple[tuple[list[int], int], tuple[list[int], int]]:
    """Halves of a sorted part with their masks; the first half takes the
    ceil(|S|/2) lowest labels, so its mask is the bits below the second's."""
    cut = (len(part) + 1) // 2
    low = mask & ((1 << part[cut]) - 1)
    return (part[:cut], low), (part[cut:], mask ^ low)


def find_neighbors(session, v, subset: Iterable[int]) -> LearnResult:
    """Find N(v) within a set by recursive halving.

    The top-level set is never queried as a whole: it is split immediately
    and each half probed, so a vertex with no neighbor in the set costs
    exactly 2 queries (1 if the set is a singleton). Halves answering 0 are
    discarded wholesale; halves answering 1 are split further, down to
    singletons. The returned trace keeps one node per probed set plus a
    deduced root, and is empty when no neighbor was found.
    """
    part = sorted(set(subset))
    if not part:
        raise ValueError("the probed set must be nonempty")
    if v in part:
        raise ValueError("the probed set must not contain the vertex itself")
    start = session.ledger.count
    blue: list[int] = []

    def probe(sub: list[int], mask: int) -> TraceNode:
        bit = session.neighborhood_query(v, VertexSet(mask))
        if bit == 0:
            return TraceNode(tuple(sub), 0, True)
        if len(sub) == 1:
            blue.append(sub[0])
            return TraceNode(tuple(sub), 1, True)
        left, right = _split(sub, mask)
        return TraceNode(tuple(sub), 1, True, (probe(*left), probe(*right)))

    mask = VertexSet.of(part).mask
    if len(part) == 1:
        node = probe(part, mask)
        root = node if node.is_blue else None
    else:
        left, right = _split(part, mask)
        lnode, rnode = probe(*left), probe(*right)
        if lnode.is_blue or rnode.is_blue:
            root = TraceNode(tuple(part), 1, False, (lnode, rnode))
        else:
            root = None
    return LearnResult(
        frozenset(blue), session.ledger.count - start, trace=RecursionTrace(root)
    )


def learn_graph_neighborhood(session, n) -> LearnResult:
    """Reconstruct the hidden graph by running the neighbor search from every vertex.

    Discovered adjacency must be symmetric; a mismatch means the oracle's
    answers are not consistent with any one graph.
    """
    if n < 1:
        raise ValueError("n must be positive")
    start = session.ledger.count
    neighbor_sets: dict[int, frozenset[int]] = {}
    for v in range(n):
        rest = [u for u in range(n) if u != v]
        if not rest:
            neighbor_sets[v] = frozenset()
            continue
        neighbor_sets[v] = find_neighbors(session, v, rest).answer
    for u in range(n):
        for v in neighbor_sets[u]:
            if u not in neighbor_sets[v]:
                raise OracleInconsistencyError(
                    f"oracle reported {v} adjacent to {u} but not conversely"
                )
    edges = frozenset(
        (u, v) for u in range(n) for v in neighbor_sets[u] if u < v
    )
    return LearnResult(Graph(n, edges), session.ledger.count - start)


def verify_graph_neighborhood(session, candidate: Graph) -> LearnResult:
    """Check a candidate graph against the hidden one, rejecting on first failure.

    Phase 1 confirms each candidate edge with a singleton probe (m queries).
    Phase 2 scans, per vertex, the whole candidate non-neighborhood with one
    query expecting 0; vertices adjacent to everything else are skipped, so
    acceptance costs exactly m plus the number of unskipped vertices.
    """
    n = candidate.n
    start = session.ledger.count
    for u, v in candidate.sorted_edges():
        if session.neighborhood_query(u, VertexSet(1 << v)) != 1:
            return LearnResult(False, session.ledger.count - start)
    everyone = (1 << n) - 1
    for v, nbrs in enumerate(candidate.adjacency_masks()):
        rest = everyone & ~nbrs & ~(1 << v)
        if not rest:
            continue
        if session.neighborhood_query(v, VertexSet(rest)) != 0:
            return LearnResult(False, session.ledger.count - start)
    return LearnResult(True, session.ledger.count - start)
