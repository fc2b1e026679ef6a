"""Adaptive adversaries that answer membership queries while committing to nothing.

The two search adversaries share one separability rule. It keeps an
auxiliary simple graph whose edges record "different component" answers,
plus a proper k-coloring chi whose color classes are, at every moment, a
real partition consistent with everything said so far. A same-colored pair
is answered "yes" only when no proper k-coloring of the auxiliary graph
separates it; such pairs are recorded once as forced edges. The rule has
two sibling variants, which differ only in what the learner knows and in
where the coloring starts:

- SeparabilityAdversary: the component count k is public, 2 <= k <= n, and
  the coloring starts balanced.
- UnknownCountAdversary: k is fixed at construction but hidden, 1 <= k <= n,
  and every vertex starts with color 1. Its audit additionally requires the
  claim to equal the components of the forced edges.

ContractionAdversary is the polynomial-time alternative: instead of
separability searches it recolors low-degree endpoints and contracts
high-degree ones.

A learner's final claim is audited by `declare`, and all three audits end in
one rule: the claim is *forced* only if it is the single consistent
partition, and otherwise the audit hands back a consistent partition other
than the claim as a witness.
"""

from __future__ import annotations

from .coloring import Coloring, find_k_coloring, proper_partitions
from .graphs import ContractionMap, Edge, Graph, connected_components, normalize_edge
from .ledger import QueryLedger
from .oracles import AuditVerdict
from .partitions import Partition


def _validated_pair(x: int, y: int, n: int) -> tuple[int, int]:
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError(f"vertices must lie in 0..{n - 1}")
    if x == y:
        raise ValueError("membership query needs two distinct vertices")
    return normalize_edge(x, y)


def _initial_state(n: int, k: int, initial_coloring, initial_edges) -> tuple[Graph, Coloring]:
    """Validated starting edges and proper coloring; the coloring defaults to balanced."""
    graph = Graph.from_edges(n, initial_edges or ())
    # built from a list, not a generator: CPython resizes a tuple it builds
    # from a generator, and its per-length tuple free lists then keep one
    # more block each time, so many adversaries in one process grow its memory
    colors = tuple(initial_coloring) if initial_coloring else tuple([v % k + 1 for v in range(n)])
    if len(colors) != n:
        raise ValueError(f"initial coloring has {len(colors)} entries for {n} vertices")
    chi = Coloring(colors, k)
    if not chi.is_proper(graph):
        raise ValueError("initial coloring is not proper on the initial edges")
    return graph, chi


def _audit(claimed: Partition, parts: list[Partition], unique_detail: str) -> AuditVerdict:
    """Verdict on a claim given up to two consistent partitions (a limit-2 search).

    Forced iff `parts` is the single consistent partition and equals the
    claim; otherwise the witness is a consistent partition other than the
    claim, or the single one when the claim differs from it.
    """
    if len(parts) == 1:
        if claimed == parts[0]:
            return AuditVerdict(True, None, unique_detail)
        return AuditVerdict(False, parts[0], "claim differs from the single consistent partition")
    witness = parts[0] if parts[0] != claimed else parts[1]
    return AuditVerdict(False, witness, "a second consistent partition exists")


class _SeparabilityRule:
    """State and answer rule shared by the two search adversaries.

    Rules on a query (x, y):
      - different colors: record the edge, answer 0;
      - same color and the pair is k-separable in the auxiliary graph:
        record the edge, switch to a separating coloring, answer 0;
      - same color and inseparable: leave the auxiliary graph alone, record
        the pair (once) as a forced edge, answer 1.

    Re-asking an edge answers 0 again and re-asking an inseparable pair
    answers 1 again; duplicates still count in the ledger. The two variants
    subclass this as siblings, so patching one variant's methods (as a
    tracer does) never reaches the other.

    `masks` holds the auxiliary graph's adjacency bitmasks, kept in step
    with `edges`. Once a search has set chi, chi is the first proper
    coloring of the auxiliary graph in the search order, and it stays first:
      - a new edge that chi already separates keeps it first, because every
        coloring of G plus that edge is also a coloring of G;
      - an inseparable pair leaves G alone;
      - for a same-colored pair u < v, every coloring before chi's path
        chi[0..v] is improper for G, and every one inside that path's
        subtree gives u and v one color,
    so the first coloring of G plus uv is the first one after that subtree,
    and the search resumes there (`find_k_coloring(after=...)`). A start
    coloring that no search produced is not known to be first, so the first
    search of such an adversary starts cold.
    """

    def __init__(self, n: int, k: int, graph: Graph, chi: Coloring, chi_is_first: bool):
        self.n = n
        self.k = k
        self.edges: set[Edge] = set(graph.edges)
        self.masks = graph.adjacency_masks()
        self.forced_edges: set[Edge] = set()
        self.chi = chi
        self.chi_is_first = chi_is_first
        self.ledger = QueryLedger()

    def graph_view(self) -> Graph:
        return Graph(self.n, frozenset(self.edges))

    def forced_graph_view(self) -> Graph:
        return Graph(self.n, frozenset(self.forced_edges))

    def chi_partition(self) -> Partition:
        return self.chi.classes()

    def membership_query(self, x: int, y: int) -> int:
        pair = _validated_pair(x, y, self.n)
        u, v = pair
        colors = self.chi.colors
        masks = self.masks
        masks[u] |= 1 << v
        masks[v] |= 1 << u
        answer = 0
        if colors[u] != colors[v]:  # also true of every recorded edge
            self.edges.add(pair)
        else:
            after = colors[: v + 1] if self.chi_is_first else ()
            separating = None
            try:
                separating = find_k_coloring(masks, self.k, after=after)
            finally:
                if separating is None:  # inseparable, or the search gave up
                    masks[u] &= ~(1 << v)
                    masks[v] &= ~(1 << u)
            if separating is None:
                self.forced_edges.add(pair)
                answer = 1
            else:
                self.edges.add(pair)
                self.chi = separating
                self.chi_is_first = True
        new = self.chi.colors
        if new is colors:
            # chi was proper on the old edges; only a new edge can break that
            assert answer or new[u] != new[v]
        else:
            # masks equal the edges, so chi is proper iff no vertex has a
            # neighbor inside its own color class
            classes = [0] * (self.k + 1)
            for w, c in enumerate(new):
                classes[c] |= 1 << w
            assert not any(nbrs & classes[c] for nbrs, c in zip(masks, new))
        self.ledger.append("alpha", (x, y), answer)
        return answer


class SeparabilityAdversary(_SeparabilityRule):
    """Answers for a hidden graph known to have exactly k components, 2 <= k <= n.

    The coloring starts balanced unless `initial_coloring` is given; it must
    be proper on `initial_edges`.
    """

    variant = "separability"

    def __init__(self, n: int, k: int, initial_coloring=None, initial_edges=None):
        if not 2 <= k <= n:
            raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
        graph, chi = _initial_state(n, k, initial_coloring, initial_edges)
        super().__init__(n, k, graph, chi, chi_is_first=False)

    def declare(self, claimed: Partition) -> AuditVerdict:
        """Forced iff the auxiliary graph pins down a single consistent partition.

        The consistent partitions are exactly the proper color-class
        partitions of the auxiliary graph (pairs answered 1 are inseparable,
        so every such partition keeps them together automatically).
        """
        if claimed.n != self.n:
            raise ValueError("claimed partition is over the wrong vertex set")
        parts = proper_partitions(self.graph_view(), self.k, limit=2)
        return _audit(claimed, parts, "auxiliary graph has a unique consistent partition")


class UnknownCountAdversary(_SeparabilityRule):
    """Variant for learners that do not know the component count.

    k is a construction parameter the learner never sees, 1 <= k <= n. The
    coloring starts with every vertex colored 1, and the forced edges form
    the certificate graph whose components the audit inspects.
    """

    variant = "unknown-count"

    def __init__(self, n: int, k: int):
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        # all-1 is the first coloring of the edgeless graph
        super().__init__(n, k, Graph(n, frozenset()), Coloring((1,) * n, k), chi_is_first=True)

    def declare(self, claimed: Partition) -> AuditVerdict:
        """Forced iff the claim is the only partition (of any block count) that fits.

        The certificate components always fit and refine every consistent
        partition, so the claim must equal them; the auxiliary graph must
        additionally admit no second proper partition.
        """
        if claimed.n != self.n:
            raise ValueError("claimed partition is over the wrong vertex set")
        certificate = connected_components(self.forced_graph_view())
        if certificate != claimed:
            return AuditVerdict(
                False, certificate, "certificate components form a consistent refinement"
            )
        parts = proper_partitions(self.graph_view(), self.k, limit=2)
        return _audit(claimed, parts, "certificate components and auxiliary graph agree")


class ContractionAdversary:
    """Polynomial-time adversary: no coloring search, only degree bookkeeping.

    Works on the contracted auxiliary graph. A vertex is *big* when its
    degree in the current simple quotient is at least k-1, else *small*. On a
    same-colored query, a small endpoint (the first argument when both are
    small) is recolored to another admissible color; when both endpoints are
    big they are contracted and the answer is 1.
    """

    variant = "contraction"

    def __init__(self, n: int, k: int, initial_coloring=None, initial_edges=None):
        if not 2 <= k <= n:
            raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
        self.n = n
        self.k = k
        graph, chi = _initial_state(n, k, initial_coloring, initial_edges)
        self.contraction = ContractionMap(n)
        self.adj: dict[int, set[int]] = {v: set(graph.adjacency[v]) for v in range(n)}
        self.color: dict[int, int] = dict(enumerate(chi.colors))
        self.ledger = QueryLedger()

    def _rep(self, v: int) -> int:
        return self.contraction.find(v)

    def _is_big(self, rep: int) -> bool:
        return len(self.adj[rep]) >= self.k - 1

    def _recolor(self, rep: int, avoid: int) -> None:
        blocked = {self.color[u] for u in self.adj[rep]}
        blocked.add(avoid)
        for c in range(1, self.k + 1):
            if c not in blocked:
                self.color[rep] = c
                return
        raise AssertionError("small vertex lost all admissible colors")

    def _add_edge(self, a: int, b: int) -> None:
        self.adj[a].add(b)
        self.adj[b].add(a)

    def _contract(self, a: int, b: int) -> None:
        root = self.contraction.union(a, b)
        gone = b if root == a else a
        for u in self.adj[gone]:
            self.adj[u].discard(gone)
            if u != root:
                self.adj[u].add(root)
                self.adj[root].add(u)
        self.adj[root].discard(root)
        self.adj[root].discard(gone)
        del self.adj[gone]
        del self.color[gone]

    def membership_query(self, x: int, y: int) -> int:
        _validated_pair(x, y, self.n)
        rx, ry = self._rep(x), self._rep(y)
        if rx == ry:
            raise ValueError(f"vertices {x} and {y} are already identified")
        if self.color[rx] != self.color[ry]:
            self._add_edge(rx, ry)
            answer = 0
        elif not self._is_big(rx):
            self._recolor(rx, avoid=self.color[ry])
            self._add_edge(rx, ry)
            answer = 0
        elif not self._is_big(ry):
            self._recolor(ry, avoid=self.color[rx])
            self._add_edge(rx, ry)
            answer = 0
        else:
            self._contract(rx, ry)
            answer = 1
        self.ledger.append("alpha", (x, y), answer)
        return answer

    def quotient_view(self) -> Graph:
        """Current contracted auxiliary graph with reps relabeled densely."""
        reps = self.contraction.representatives()
        index = {rep: i for i, rep in enumerate(reps)}
        edges = {
            (min(index[a], index[b]), max(index[a], index[b]))
            for a in reps
            for b in self.adj[a]
        }
        return Graph(len(reps), frozenset(edges))

    def chi_partition(self) -> Partition:
        """Color classes lifted through the contraction map to original labels."""
        blocks: dict[int, list[int]] = {}
        for v in range(self.n):
            blocks.setdefault(self.color[self._rep(v)], []).append(v)
        return Partition.from_blocks(blocks.values())

    def declare(self, claimed: Partition) -> AuditVerdict:
        if claimed.n != self.n:
            raise ValueError("claimed partition is over the wrong vertex set")
        parts = proper_partitions(self.quotient_view(), self.k, limit=2)
        # quotient vertex i is the i-th class in ascending representative order
        classes = self.contraction.classes()
        lifted = [
            Partition.from_blocks([v for i in block for v in classes[i]] for block in p.blocks)
            for p in parts
        ]
        return _audit(claimed, lifted, "contracted graph has a unique consistent partition")
