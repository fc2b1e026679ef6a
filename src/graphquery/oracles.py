"""Honest query-counting oracles backed by a fixed hidden graph.

The set queries take any iterable of vertices. Each set is normalised once,
to a `graphs.VertexSet` bitmask, which is also the form the ledger stores,
so an answer is one AND of that mask with the query vertex's component
(alpha_m) or neighbourhood (beta) mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, VertexSet, connected_components
from .ledger import QueryLedger
from .partitions import Partition


@dataclass(frozen=True)
class AuditVerdict:
    """Outcome of a declaration: forced, or refuted with a witness partition.

    The witness, when present, is a second partition consistent with every
    answer given, proving the learner could not have known its claim.
    """

    forced: bool
    witness: Partition | None
    detail: str

    def __bool__(self) -> bool:
        return self.forced


class HonestOracle:
    """Session answering membership, multiple-membership, and neighborhood queries.

    All answers derive from one fixed hidden graph; repeating a query always
    returns the same bit, and every call lands in the ledger.
    """

    def __init__(self, hidden: Graph):
        self.hidden = hidden
        self.n = hidden.n
        self.hidden_partition = connected_components(hidden)
        self._nbr_masks = hidden.adjacency_masks()
        self.ledger = QueryLedger()

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def _checked_set(self, subset: Iterable[int]) -> VertexSet:
        """The set as a VertexSet, every member checked to be a vertex."""
        if isinstance(subset, VertexSet):
            beyond = subset.mask >> self.n
            if beyond:  # name the least bad member
                self._check_vertex(self.n + (beyond & -beyond).bit_length() - 1)
            return subset
        members = list(subset)
        if members and (min(members) < 0 or max(members) >= self.n):
            for v in members:  # name the first bad member, as a per-member check would
                self._check_vertex(v)
        return VertexSet.of(members)

    def membership_query(self, u: int, v: int) -> int:
        """1 iff u and v lie in the same component of the hidden graph."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError("membership query needs two distinct vertices")
        answer = int(self.hidden_partition.same_block(u, v))
        self.ledger.append("alpha", (u, v), answer)
        return answer

    def multi_membership_query(self, u: int, subset: Iterable[int]) -> int:
        """1 iff u shares a component with some member of the set; empty set gives 0."""
        self._check_vertex(u)
        s = self._checked_set(subset)
        if u in s:
            raise ValueError(f"query vertex {u} must not belong to the set")
        answer = int(bool(s.mask & self.hidden_partition.block_mask(u)))
        self.ledger.append("alpha_m", (u, s), answer)
        return answer

    def neighborhood_query(self, v: int, subset: Iterable[int]) -> int:
        """1 iff v has an edge into the set; empty set gives 0."""
        self._check_vertex(v)
        s = self._checked_set(subset)
        if v in s:
            raise ValueError(f"query vertex {v} must not belong to the set")
        answer = int(bool(s.mask & self._nbr_masks[v]))
        self.ledger.append("beta", (v, s), answer)
        return answer

    def declare(self, claimed: Partition) -> AuditVerdict:
        """Check a final claim against the ground truth."""
        if claimed.n != self.n:
            raise ValueError("claimed partition is over the wrong vertex set")
        if claimed == self.hidden_partition:
            return AuditVerdict(True, None, "claim matches the hidden components")
        return AuditVerdict(False, self.hidden_partition, "claim differs from the hidden components")
