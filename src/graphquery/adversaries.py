"""Adaptive adversaries that answer membership queries while committing to nothing.

The two search adversaries share one separability rule. It keeps an
auxiliary simple graph whose edges record "different component" answers,
and answers a pair 0 iff the pair is k-separable there, that is, iff some
proper k-coloring of the auxiliary graph gives its endpoints different
colors. A separable pair becomes an edge; an inseparable one is answered 1
and recorded once as a forced edge. The color classes of every proper
k-coloring are then a real partition consistent with everything said so
far, and the adversary reports one of them, chi, which depends on the
auxiliary graph alone. The rule has two sibling variants, which differ
only in what the learner knows and in where chi starts:

- SeparabilityAdversary: the component count k is public, 2 <= k <= n, and
  chi starts balanced.
- UnknownCountAdversary: k is fixed at construction but hidden, 1 <= k <= n,
  and every vertex starts with color 1. Its audit additionally requires the
  claim to equal the components of the forced edges.

ContractionAdversary is the polynomial-time alternative: instead of
separability searches it recolors low-degree endpoints and contracts
high-degree ones. It keeps the contracted auxiliary graph densely labelled,
in the one form the minimax alpha game uses, and contracts it with the
same `graphs.contract`.

A learner's final claim is audited by `declare`, and all three audits run
through the one function `_audit`: the claim is *forced* only if it is the
single consistent partition, and otherwise the audit hands back a
consistent partition other than the claim as a witness.
"""

from __future__ import annotations

from operator import and_

from .coloring import Coloring, find_k_coloring, proper_partitions
from .graphs import Edge, Graph, connected_components, contract, normalize_edge
from .ledger import QueryLedger
from .oracles import AuditVerdict
from .partitions import Partition, check_vertex


def _validated_pair(x: int, y: int, n: int) -> tuple[int, int]:
    """The pair as an edge; the one place a bad membership query raises. The
    query methods test `0 <= x < n > y >= 0 and x != y` inline and call
    this only when that fails."""
    if not (0 <= x < n and 0 <= y < n):
        check_vertex(x, n)
        check_vertex(y, n)
    if x == y:
        raise ValueError("membership query needs two distinct vertices")
    return normalize_edge(x, y)


def _class_masks(colors, k: int) -> list[int]:
    """classes[c] is the bitmask of the vertices colored c; classes[0] is empty."""
    classes = [0] * (k + 1)
    for w, c in enumerate(colors):
        classes[c] |= 1 << w
    return classes


def _is_proper(masks: list[int], colors, classes: list[int]) -> bool:
    """True iff no vertex has a neighbour inside its own color class: every
    vertex's neighbour mask is ANDed with its class mask, at C level."""
    return not any(map(and_, masks, map(classes.__getitem__, colors)))


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


def _audit(adv, claimed: Partition, unique_detail: str, cls=None,
           certificate=None) -> AuditVerdict:
    """The one audit: a limit-2 search of `adv`'s auxiliary graph, lifted
    through `cls` (vertex v lies in class cls[v]) when given.

    Forced iff the search finds a single consistent partition and it equals
    the claim; otherwise the witness is a consistent partition other than
    the claim, or the single one when the claim differs from it. A
    `certificate` that differs from the claim refutes it before the search.
    """
    if claimed.n != adv.n:
        raise ValueError("claimed partition is over the wrong vertex set")
    if certificate is not None and certificate != claimed:
        return AuditVerdict(
            False, certificate, "certificate components form a consistent refinement"
        )
    parts = proper_partitions(adv.masks, adv.k, limit=2)
    if cls is not None:
        parts = [Partition.from_labels([p.block_mask(c) for c in cls]) for p in parts]
    if len(parts) == 1:
        if claimed == parts[0]:
            return AuditVerdict(True, None, unique_detail)
        return AuditVerdict(False, parts[0], "claim differs from the single consistent partition")
    witness = parts[0] if parts[0] != claimed else parts[1]
    return AuditVerdict(False, witness, "a second consistent partition exists")


class _SeparabilityRule:
    """State and answer rule shared by the two search adversaries.

    The rule rests on one lemma: the answer is 0 iff the pair is
    k-separable in the auxiliary graph G, that is, iff G plus the pair is
    k-colorable. On a query (u, v):
      - separable: record the edge uv, answer 0;
      - inseparable: leave G alone, record the pair (once) as a forced
        edge, answer 1.
    Re-asking an edge answers 0 again and re-asking an inseparable pair
    answers 1 again, from `forced_edges` and without a search, since G only
    grows; duplicates still count in the ledger. The two variants
    subclass this as siblings, so patching one variant's methods (as a
    tracer does) never reaches the other.

    `masks` holds G's neighbour bitmasks, its only form. The decision is
    made against a *working* proper coloring `color`, with `classes[c]` the
    bitmask of the vertices colored c:
      1. u and v have different colors: the pair is separated already;
      2. v, or failing that u, has a color that none of its neighbours in
         G + uv holds: move it there;
      3. otherwise a cold search of G + uv decides, and the coloring it
         finds, if any, becomes the working one.
    After every change to the working coloring, each vertex's neighbour mask
    is checked against its own color class, so a clash anywhere in G fails,
    not only one at the moved vertex. `classes` is kept beside `color` rather
    than rebuilt, because that check and every free-color move read it on
    each answer.

    The answers, masks and forced edges depend only on separability, not on
    which coloring is the working one, and neither does `chi`, the coloring
    reported to callers. It is the start coloring until the first answer-0
    pair that the start colors alike, and from then on the first proper
    coloring of G in the search order, computed when read and cached in
    `_chi`. A new edge that the cached chi already separates keeps it
    first, because every coloring of G plus that edge is a coloring of G;
    so only an edge that chi colors alike drops the cache. An inseparable
    pair leaves G, and so chi, alone.
    """

    def __init__(self, n: int, k: int, masks: list[int], chi: Coloring):
        self.n = n
        self.k = k
        self.masks = masks
        self.forced_edges: set[Edge] = set()
        self.color = list(chi.colors)
        self.classes = _class_masks(self.color, k)
        self._chi: Coloring | None = chi  # None: the next read searches
        self.ledger = QueryLedger()

    @property
    def chi(self) -> Coloring:
        if self._chi is None:
            chi = find_k_coloring(self.masks, self.k)
            # the working coloring is proper, so G has a first coloring
            assert chi is not None
            assert _is_proper(self.masks, chi.colors, _class_masks(chi.colors, self.k))
            self._chi = chi
        return self._chi

    def forced_graph_view(self) -> Graph:
        return Graph(self.n, frozenset(self.forced_edges))

    def chi_partition(self) -> Partition:
        return self.chi.classes()

    def _recolor(self, w: int) -> bool:
        """Move w to the least color that none of its neighbours holds, if any."""
        nbrs, classes = self.masks[w], self.classes
        for c in range(1, self.k + 1):
            if not nbrs & classes[c]:
                bit = 1 << w
                classes[self.color[w]] ^= bit
                classes[c] |= bit
                self.color[w] = c
                return True
        return False

    def membership_query(self, x: int, y: int) -> int:
        n = self.n
        if 0 <= x < n > y >= 0 and x != y:
            pair = (x, y) if x < y else (y, x)
        else:
            pair = _validated_pair(x, y, n)
        u, v = pair
        same = self.color[u] == self.color[v]  # never true of a recorded edge
        if same and pair in self.forced_edges:  # G only grows: still inseparable
            self.ledger.append("alpha", (x, y), 1)
            return 1
        masks = self.masks
        masks[u] |= 1 << v
        masks[v] |= 1 << u
        answer = 0
        if same:
            # the other endpoint blocks the shared color, so a move leaves it
            if not (self._recolor(v) or self._recolor(u)):
                separating = None
                try:
                    separating = find_k_coloring(masks, self.k)
                finally:
                    if separating is None:  # inseparable, or the search gave up
                        masks[u] &= ~(1 << v)
                        masks[v] &= ~(1 << u)
                if separating is None:
                    self.forced_edges.add(pair)
                    answer = 1
                else:
                    self.color = list(separating.colors)
                    self.classes = _class_masks(self.color, self.k)
            assert answer or _is_proper(masks, self.color, self.classes)
        if not answer and self._chi is not None and self._chi.colors[u] == self._chi.colors[v]:
            self._chi = None
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
        super().__init__(n, k, masks, chi)

    def declare(self, claimed: Partition) -> AuditVerdict:
        """Forced iff the auxiliary graph pins down a single consistent partition.

        The consistent partitions are exactly the proper color-class
        partitions of the auxiliary graph (pairs answered 1 are inseparable,
        so every such partition keeps them together automatically).
        """
        return _audit(self, claimed, "auxiliary graph has a unique consistent partition")


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
        super().__init__(n, k, [0] * n, Coloring((1,) * n, k))

    def declare(self, claimed: Partition) -> AuditVerdict:
        """Forced iff the claim is the only partition (of any block count) that fits.

        The certificate components always fit and refine every consistent
        partition, so the claim must equal them; the auxiliary graph must
        additionally admit no second proper partition.
        """
        certificate = connected_components(self.forced_graph_view())
        return _audit(self, claimed, "certificate components and auxiliary graph agree",
                      certificate=certificate)


class ContractionAdversary:
    """Polynomial-time adversary: no coloring search, only degree bookkeeping.

    Works on the contracted auxiliary graph. A vertex is *big* when its
    degree in the current simple quotient is at least k-1, else *small*. On a
    same-colored query, a small endpoint (the first argument when both are
    small) is recolored to another admissible color; when both endpoints are
    big they are contracted and the answer is 1. A pair inside one class was
    contracted before, and answers 1 again.

    The quotient is stored the way the minimax alpha game stores its
    auxiliary graph: classes are labelled 0, 1, ... in order of their least
    vertex, `masks[i]` holds the classes adjacent to class i, `color[i]` is
    its color, and `cls[v]` is the class of vertex v. A contraction is
    `graphs.contract`, which keeps that order, so `declare` searches the
    masks as stored.
    """

    variant = "contraction"

    def __init__(self, n: int, k: int, initial_coloring=None, initial_edges=None):
        if not 2 <= k <= n:
            raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
        self.n = n
        self.k = k
        self.masks, chi = _initial_state(n, k, initial_coloring, initial_edges)
        self.color = list(chi.colors)
        self.cls = list(range(n))
        self.ledger = QueryLedger()

    def membership_query(self, x: int, y: int) -> int:
        n = self.n
        if not (0 <= x < n > y >= 0 and x != y):
            _validated_pair(x, y, n)
        cx, cy = self.cls[x], self.cls[y]
        masks, color = self.masks, self.color
        answer = int(cx == cy)
        if not answer and color[cx] == color[cy]:
            small = cx if masks[cx].bit_count() < self.k - 1 else cy
            if masks[small].bit_count() < self.k - 1:
                # recolor: the least color held by no neighbor and not by the
                # other endpoint, which shares small's color. Fewer than k-1
                # neighbors leave one free (bit 0 stands for the unused 0).
                blocked = 1 | 1 << color[small]
                nbrs = masks[small]
                while nbrs:
                    low = nbrs & -nbrs
                    blocked |= 1 << color[low.bit_length() - 1]
                    nbrs ^= low
                color[small] = (~blocked & (blocked + 1)).bit_length() - 1
                assert color[small] <= self.k, "small vertex lost all admissible colors"
            else:
                # contract: same-colored classes are not adjacent, as contract needs
                a, b = min(cx, cy), max(cx, cy)
                self.masks = list(contract(masks, a, b))
                del color[b]
                self.cls = [a if c == b else c - (c > b) for c in self.cls]
                answer = 1
        if not answer:
            masks[cx] |= 1 << cy
            masks[cy] |= 1 << cx
        self.ledger.append("alpha", (x, y), answer)
        return answer

    def chi_partition(self) -> Partition:
        """Color classes lifted through `cls` to original labels."""
        color = self.color
        return Partition.from_labels([color[c] for c in self.cls])

    def declare(self, claimed: Partition) -> AuditVerdict:
        return _audit(self, claimed, "contracted graph has a unique consistent partition",
                      cls=self.cls)
