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
    """One probed VertexSet in a neighbor-search recursion tree.

    answer 1 is "blue" (the set contains a neighbor), 0 is "red". The root
    of a multi-element search is never queried; its answer is deduced from
    its children and `queried` is False there.
    """

    subset: VertexSet
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


def _check_session_size(session, n: int) -> None:
    """Raise ValueError, before any query, unless the session has n vertices."""
    if n != session.n:
        raise ValueError(f"n={n} but the session has {session.n} vertices")


def learn_partition_representatives(session, n, k_known=None, order=None) -> LearnResult:
    """Classify each vertex against the first vertex of every block found so far.

    Vertices are processed in `order` (ascending by default). A block's first
    vertex is its representative. An unclassified vertex is queried against
    the blocks in discovery order and joins the first one that answers 1; if
    all answer 0 it opens a new block. When `k_known` is given and k blocks
    are open, the last block is never queried: k-1 zeros already pin the
    vertex to it, and no further block is ever hypothesized.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if k_known is not None and not 1 <= k_known <= n:
        raise ValueError(f"k_known must lie in 1..{n}")
    _check_session_size(session, n)
    order = _as_order(n, order)
    start = session.ledger.count
    blocks: list[list[int]] = []
    for v in order:
        full = len(blocks) == k_known
        for block in blocks[:-1] if full else blocks:
            if session.membership_query(block[0], v):
                block.append(v)
                break
        else:
            if full:
                blocks[-1].append(v)
            else:
                blocks.append([v])
    if k_known is not None and len(blocks) != k_known:
        raise OracleInconsistencyError(
            f"found {len(blocks)} representatives but the oracle promised {k_known} components"
        )
    return LearnResult(Partition.from_blocks(blocks), session.ledger.count - start)


def learn_partition_all_pairs(session, n) -> LearnResult:
    """Query every pair not already implied equal by earlier 1-answers.

    cls[v] is the bitmask of v's known class. A 1-answer merges two classes;
    a pair inside one class is skipped (its answer is forced), all else asked.
    """
    if n < 1:
        raise ValueError("n must be positive")
    _check_session_size(session, n)
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
    _check_session_size(session, n)
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
    _check_session_size(session, n)
    start = session.ledger.count
    classes = [1]  # one vertex bitmask per class, in discovery order
    for v in range(1, n):
        # every earlier vertex already sits in a class
        if session.multi_membership_query(v, VertexSet((1 << v) - 1)) == 0:
            classes.append(1 << v)
            continue
        lo, hi = 0, len(classes)
        while hi - lo > 1:
            mid = (lo + hi + 1) // 2  # the first half takes the odd class
            pooled = 0
            for mask in classes[lo:mid]:
                pooled |= mask
            if session.multi_membership_query(v, VertexSet(pooled)):
                hi = mid
            else:
                lo = mid
        classes[lo] |= 1 << v
    blocks = [list(VertexSet(mask)) for mask in classes]
    return LearnResult(Partition.from_blocks(blocks), session.ledger.count - start)


def _halves(s: VertexSet) -> tuple[VertexSet, VertexSet]:
    """The halves of s; the first takes its ceil(|s|/2) lowest members."""
    high = s.mask
    for _ in range((len(s) + 1) // 2):
        high &= high - 1  # clears the lowest member
    return VertexSet(s.mask ^ high), VertexSet(high)


def find_neighbors(session, v, subset: Iterable[int]) -> LearnResult:
    """Find N(v) within a set by recursive halving.

    The top-level set is never queried as a whole: it is split immediately
    and each half probed, so a vertex with no neighbor in the set costs
    exactly 2 queries (1 if the set is a singleton). Halves answering 0 are
    discarded wholesale; halves answering 1 are split further, down to
    singletons. The returned trace keeps one node per probed set plus a
    deduced root, and is empty when no neighbor was found. The set is
    checked against the session's vertices before any query.
    """
    s = VertexSet.within(subset, session.n)
    if not s:
        raise ValueError("the probed set must be nonempty")
    if v in s:
        raise ValueError("the probed set must not contain the vertex itself")
    start = session.ledger.count
    blue: list[int] = []

    def probe(sub: VertexSet) -> TraceNode:
        if session.neighborhood_query(v, sub) == 0:
            return TraceNode(sub, 0, True)
        if len(sub) == 1:
            blue.append(sub.mask.bit_length() - 1)
            return TraceNode(sub, 1, True)
        return TraceNode(sub, 1, True, tuple(map(probe, _halves(sub))))

    if len(s) == 1:
        node = probe(s)
        root = node if node.is_blue else None
    else:
        lnode, rnode = map(probe, _halves(s))
        if lnode.is_blue or rnode.is_blue:
            root = TraceNode(s, 1, False, (lnode, rnode))
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
    _check_session_size(session, n)
    start = session.ledger.count
    neighbor_sets: dict[int, frozenset[int]] = {}
    everyone = (1 << n) - 1
    for v in range(n):
        rest = VertexSet(everyone ^ 1 << v)
        neighbor_sets[v] = find_neighbors(session, v, rest).answer if rest else frozenset()
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
    if n != session.n:
        raise ValueError("candidate and hidden graphs have different vertex counts")
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
