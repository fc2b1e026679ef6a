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


def _bits(mask: int):
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _initial_state(n: int, k: int, initial_coloring, initial_edges) -> tuple[list[int], Coloring]:
    """Neighbour bitmasks of the validated starting edges, and a proper
    coloring of them; the coloring defaults to balanced."""
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
    return graph.adjacency_masks(), chi


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

    `masks` holds the auxiliary graph's neighbour bitmasks, its only stored
    form; `edges` and `graph_view()` are read from it. Once a search has set
    chi, chi is the first proper coloring of the auxiliary graph in the
    search order, and it stays first:
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

    def __init__(self, n: int, k: int, masks: list[int], chi: Coloring, chi_is_first: bool):
        self.n = n
        self.k = k
        self.masks = masks
        self.forced_edges: set[Edge] = set()
        self.chi = chi
        self.chi_is_first = chi_is_first
        self.ledger = QueryLedger()

    @property
    def edges(self) -> frozenset[Edge]:
        """The auxiliary graph's edges, read from the masks."""
        return frozenset((u, v) for u, nbrs in enumerate(self.masks) for v in _bits(nbrs) if u < v)

    def graph_view(self) -> Graph:
        return Graph(self.n, self.edges)

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
        if colors[u] == colors[v]:  # never true of a recorded edge
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
                self.chi = separating
                self.chi_is_first = True
        new = self.chi.colors
        if new is colors:
            # chi was proper on the old edges; only a new edge can break that
            assert answer or new[u] != new[v]
        else:
            # chi is proper iff no vertex has a neighbor inside its own
            # color class
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
        masks, chi = _initial_state(n, k, initial_coloring, initial_edges)
        super().__init__(n, k, masks, chi, chi_is_first=False)

    def declare(self, claimed: Partition) -> AuditVerdict:
        """Forced iff the auxiliary graph pins down a single consistent partition.

        The consistent partitions are exactly the proper color-class
        partitions of the auxiliary graph (pairs answered 1 are inseparable,
        so every such partition keeps them together automatically).
        """
        if claimed.n != self.n:
            raise ValueError("claimed partition is over the wrong vertex set")
        parts = proper_partitions(self.masks, self.k, limit=2)
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
        super().__init__(n, k, [0] * n, Coloring((1,) * n, k), chi_is_first=True)

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
        parts = proper_partitions(self.masks, self.k, limit=2)
        return _audit(claimed, parts, "certificate components and auxiliary graph agree")


class ContractionAdversary:
    """Polynomial-time adversary: no coloring search, only degree bookkeeping.

    Works on the contracted auxiliary graph. A vertex is *big* when its
    degree in the current simple quotient is at least k-1, else *small*. On a
    same-colored query, a small endpoint (the first argument when both are
    small) is recolored to another admissible color; when both endpoints are
    big they are contracted and the answer is 1.

    The quotient is stored as neighbour bitmasks and colors, both indexed by
    representative label: `masks[r]` holds the representatives adjacent to
    class r, and `color[r]` is r's color. A label that is no longer a
    representative has mask 0, and its color is never read again.
    """

    variant = "contraction"

    def __init__(self, n: int, k: int, initial_coloring=None, initial_edges=None):
        if not 2 <= k <= n:
            raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
        self.n = n
        self.k = k
        self.masks, chi = _initial_state(n, k, initial_coloring, initial_edges)
        self.color = list(chi.colors)
        self.contraction = ContractionMap(n)
        self.ledger = QueryLedger()

    def membership_query(self, x: int, y: int) -> int:
        _validated_pair(x, y, self.n)
        find = self.contraction.find
        rx, ry = find(x), find(y)
        if rx == ry:
            raise ValueError(f"vertices {x} and {y} are already identified")
        masks, color = self.masks, self.color
        answer = 0
        if color[rx] == color[ry]:
            small = rx if masks[rx].bit_count() < self.k - 1 else ry
            if masks[small].bit_count() < self.k - 1:
                # recolor: the least color held by no neighbor and not by the
                # other endpoint, which shares small's color. Fewer than k-1
                # neighbors leave one free (bit 0 stands for the unused 0).
                blocked = 1 | 1 << color[small]
                for w in _bits(masks[small]):
                    blocked |= 1 << color[w]
                color[small] = (~blocked & (blocked + 1)).bit_length() - 1
                assert color[small] <= self.k, "small vertex lost all admissible colors"
            else:
                # contract: same-colored classes are not adjacent, so the
                # merged mask holds neither of them
                root = self.contraction.union(rx, ry)
                gone = rx + ry - root
                masks[root] |= masks[gone]
                for w in _bits(masks[gone]):
                    masks[w] = masks[w] & ~(1 << gone) | 1 << root
                masks[gone] = 0
                answer = 1
        if not answer:
            masks[rx] |= 1 << ry
            masks[ry] |= 1 << rx
        self.ledger.append("alpha", (x, y), answer)
        return answer

    def chi_partition(self) -> Partition:
        """Color classes lifted through the contraction map to original labels."""
        color, find = self.color, self.contraction.find
        return Partition.from_labels([color[find(v)] for v in range(self.n)])

    def declare(self, claimed: Partition) -> AuditVerdict:
        if claimed.n != self.n:
            raise ValueError("claimed partition is over the wrong vertex set")
        # quotient vertex i is the i-th class in ascending representative order
        reps = self.contraction.representatives()
        index = {rep: i for i, rep in enumerate(reps)}
        quotient = [sum(1 << index[w] for w in _bits(self.masks[rep])) for rep in reps]
        parts = proper_partitions(quotient, self.k, limit=2)
        classes = self.contraction.classes()
        lifted = [
            Partition.from_blocks([v for i in block for v in classes[i]] for block in p.blocks)
            for p in parts
        ]
        return _audit(claimed, lifted, "contracted graph has a unique consistent partition")
