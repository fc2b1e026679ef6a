"""Honest query-counting oracles backed by a fixed hidden graph.

The set queries take any iterable of vertices. Each set is normalised and
checked once, by `graphs.VertexSet.within`, to the bitmask the ledger
stores, so an answer is one AND of that mask with the query vertex's
component (alpha_m) or neighbourhood (beta) mask. Vertices are checked by
`partitions.check_vertex` and pairs by `check_pair` before any ledgering,
and a declared partition's size by `check_claim`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, VertexSet, connected_components
from .ledger import QueryLedger
from .partitions import Partition, check_claim, check_pair, check_vertex


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
        self._block_masks = self.hidden_partition._block_masks
        self._nbr_masks = hidden.adjacency_masks()
        self.ledger = QueryLedger()

    def membership_query(self, u: int, v: int) -> int:
        """1 iff u and v lie in the same component of the hidden graph."""
        if not (0 <= u < self.n > v >= 0 and u != v):
            check_pair(u, v, self.n)
        masks = self._block_masks
        answer = int(masks[u] == masks[v])
        self.ledger.append("alpha", (u, v), answer)
        return answer

    def multi_membership_query(self, u: int, subset: Iterable[int]) -> int:
        """1 iff u shares a component with some member of the set; empty set gives 0."""
        return self._set_query("alpha_m", u, subset, self._block_masks)

    def neighborhood_query(self, v: int, subset: Iterable[int]) -> int:
        """1 iff v has an edge into the set; empty set gives 0."""
        return self._set_query("beta", v, subset, self._nbr_masks)

    def _set_query(self, kind: str, v: int, subset: Iterable[int], masks: list[int]) -> int:
        """The one set-query body: 1 iff the set meets masks[v], v's mask for that kind."""
        if not 0 <= v < self.n:
            check_vertex(v, self.n)
        s = VertexSet.within(subset, self.n)
        if v in s:
            raise ValueError(f"query vertex {v} must not belong to the set")
        answer = int(bool(s.mask & masks[v]))
        self.ledger.append(kind, (v, s), answer)
        return answer

    def declare(self, claimed: Partition) -> AuditVerdict:
        """Check a final claim against the ground truth."""
        check_claim(claimed, self.n)
        if claimed == self.hidden_partition:
            return AuditVerdict(True, None, "claim matches the hidden components")
        return AuditVerdict(False, self.hidden_partition, "claim differs from the hidden components")
