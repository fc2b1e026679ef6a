"""Adaptive adversaries that answer membership queries while committing to nothing.

Every adversary keeps one auxiliary graph, whose edges record "different
component" answers, in one form: its quotient by the pairs answered 1, the
form in which the minimax alpha game stores its auxiliary graph. Classes
are labelled 0, 1, ... in order of their least vertex, `cls[v]` is the
class of vertex v, `masks[i]` holds the classes adjacent to class i, and
`color[i]` is class i's working color, proper on the quotient. A pair
inside one class is answered 1. A pair across two differently colored
classes becomes an edge and is answered 0. A contraction is
`graphs.contract`, which keeps the labelling order, so `chi` and the audits
read the masks as stored and lift what they find through `cls`. The cold
search behind an answer only decides whether a coloring exists, so it runs
high-degree first (`find_k_coloring(..., high_degree_first=True)`), which
proves an inseparable pair in far fewer nodes than label order.

The variants differ only in the rule for a pair of two same-colored
classes. Two of them answer a pair 0 iff it is k-separable, that is, iff
some proper k-coloring of the auxiliary graph gives its endpoints different
colors, and contract an inseparable pair. Every proper k-coloring colors an
inseparable pair alike, so the contraction keeps every coloring, answer
and audit. The color classes of every proper k-coloring are then a real
partition consistent with everything said so far, and the adversary
reports one of them, chi, which depends on the auxiliary graph alone:

- SeparabilityAdversary: the component count k is public, 2 <= k <= n, and
  chi starts balanced.
- UnknownCountAdversary: k is fixed at construction but hidden, 1 <= k <= n,
  and every vertex starts with color 1. Its audit additionally requires the
  claim to equal the classes.

ContractionAdversary is the polynomial-time alternative: instead of
separability searches it recolors low-degree classes and contracts
high-degree ones.

The one base class builds and checks every start state, and holds the one
audit, `declare`: a claim is *forced* only if it is the single consistent
partition, and otherwise the audit hands back a consistent partition other
than the claim as a witness. A variant declares its id, k range, forced
bound and forced-verdict detail as class constants; the hidden-count
variant adds the certificate the claim must equal.
"""

from __future__ import annotations

from operator import and_

from . import bounds
from .coloring import Coloring, find_k_coloring, proper_partitions
from .graphs import Graph, contract
from .ledger import QueryLedger
from .oracles import AuditVerdict
from .partitions import Partition, check_claim, check_pair


def _class_masks(colors, k: int) -> list[int]:
    """classes[c] is the bitmask of the entries colored c; classes[0] is empty."""
    classes = [0] * (k + 1)
    for w, c in enumerate(colors):
        classes[c] |= 1 << w
    return classes


def _is_proper(masks: list[int], colors, classes: list[int]) -> bool:
    """True iff no entry has a neighbour inside its own color class: every
    neighbour mask is ANDed with its class mask, at C level."""
    return not any(map(and_, masks, map(classes.__getitem__, colors)))


class _QuotientAdversary:
    """State, query path and audit shared by the three adversaries.

    The state is the quotient (`masks`, `cls`) and its working proper
    coloring `color`, with `classes[c]` the bitmask of the classes colored
    c. `classes` is kept beside `color` rather than rebuilt, because the
    properness check and every free-color move read it. On a query (x, y)
    with classes a and b:
      1. a == b: answer 1 and change nothing;
      2. a and b have different colors: record the edge ab, answer 0;
      3. otherwise record the edge and ask the variant's `_separates`. If
         it recolors the quotient so that a and b differ, answer 0. If not,
         take the edge back, contract a and b, and answer 1.
    After every recoloring, each class's neighbour mask is checked against
    its own color class, so a clash anywhere fails, not only one at a moved
    class. A repeat counts in the ledger like any other query. The variants
    subclass this as siblings, so patching one variant's methods (as a
    tracer does) never reaches another. The start state is the given edges,
    none by default, and a proper coloring of them, balanced by default.
    """

    variant: str  # the adversary id that duels and reports use
    forced_detail: str  # the detail of a forced verdict
    lower_bound: staticmethod  # the `bounds` function (n, k) -> queries it forces
    min_k = 2  # the least component count it accepts

    def __init__(self, n: int, k: int, initial_coloring=None, initial_edges=None):
        if not self.min_k <= k <= n:
            raise ValueError(f"need {self.min_k} <= k <= n, got k={k}, n={n}")
        masks = Graph.from_edges(n, initial_edges).adjacency_masks() if initial_edges else [0] * n
        # built from a list, not a generator: CPython resizes a tuple it builds
        # from a generator, and its per-length tuple free lists then keep one
        # more block each time, so many adversaries in one process grow its memory
        colors = tuple(initial_coloring) if initial_coloring else tuple([v % k + 1 for v in range(n)])
        if len(colors) != n:
            raise ValueError(f"initial coloring has {len(colors)} entries for {n} vertices")
        start = Coloring(colors, k)
        classes = _class_masks(colors, k)
        if not _is_proper(masks, colors, classes):
            raise ValueError("initial coloring is not proper on the initial edges")
        self.n = n
        self.k = k
        self.masks = masks
        self.color = list(colors)
        self.classes = classes
        self.cls = list(range(n))
        self.ledger = QueryLedger()
        self._chi = start  # `_SeparabilityRule`'s chi cache starts here

    def _recolor(self, i: int) -> bool:
        """Move class i to the least color that none of its neighbours holds, if any."""
        nbrs, classes = self.masks[i], self.classes
        for c in range(1, self.k + 1):
            if not nbrs & classes[c]:
                bit = 1 << i
                classes[self.color[i]] ^= bit
                classes[c] |= bit
                self.color[i] = c
                return True
        return False

    def _contract(self, a: int, b: int) -> None:
        """Merge two non-adjacent, same-colored classes into the lower label."""
        if a > b:
            a, b = b, a
        self.masks = list(contract(self.masks, a, b))
        del self.color[b]
        # class b becomes a, and the classes above it move down one label,
        # in cls and, as `contract` relabels them, in the color class masks
        relabel = [*range(b), a, *range(b, len(self.color))]
        self.cls = list(map(relabel.__getitem__, self.cls))
        low = (1 << b) - 1
        self.classes = [m & low | m >> 1 & ~low for m in self.classes]

    def membership_query(self, x: int, y: int) -> int:
        n = self.n
        if not (0 <= x < n > y >= 0 and x != y):
            check_pair(x, y, n)
        a, b = self.cls[x], self.cls[y]
        if a == b:
            answer = 1
        else:
            answer = 0
            masks = self.masks
            masks[a] |= 1 << b
            masks[b] |= 1 << a
            if self.color[a] == self.color[b]:
                separated = False
                try:
                    separated = self._separates(x, y)
                finally:
                    if not separated:  # inseparable, or the search gave up
                        masks[a] &= ~(1 << b)
                        masks[b] &= ~(1 << a)
                if separated:
                    assert _is_proper(masks, self.color, self.classes)
                else:
                    self._contract(a, b)
                    answer = 1
        self.ledger.append("alpha", (x, y), answer)
        return answer

    def _certificate(self) -> Partition | None:
        """A consistent partition the claim must equal, if the variant keeps one."""
        return None

    def declare(self, claimed: Partition) -> AuditVerdict:
        """The one audit: a limit-2 search of the quotient, lifted through
        `cls` (vertex v lies in class cls[v]) once some pair was contracted;
        before that the quotient is the vertex graph itself.

        Forced iff the search finds a single consistent partition and it
        equals the claim; otherwise the witness is a consistent partition
        other than the claim, or the single one when the claim differs from
        it. A certificate that differs from the claim refutes it before the
        search.
        """
        check_claim(claimed, self.n)
        certificate = self._certificate()
        if certificate is not None and certificate != claimed:
            return AuditVerdict(
                False, certificate, "certificate components form a consistent refinement"
            )
        parts = proper_partitions(self.masks, self.k, limit=2)
        if len(self.masks) < self.n:  # some classes were contracted
            parts = [Partition.from_labels([p.block_mask(c) for c in self.cls]) for p in parts]
        if len(parts) == 1:
            if claimed == parts[0]:
                return AuditVerdict(True, None, self.forced_detail)
            return AuditVerdict(False, parts[0], "claim differs from the single consistent partition")
        witness = parts[0] if parts[0] != claimed else parts[1]
        return AuditVerdict(False, witness, "a second consistent partition exists")


class _SeparabilityRule(_QuotientAdversary):
    """The rule of the two search adversaries: the answer is 0 iff the pair
    is k-separable in the auxiliary graph G, that is, iff G plus the pair is
    k-colorable. With the edge between the two same-colored classes added,
    the class of the pair's larger vertex, or failing that the other class,
    moves to a color that none of its neighbours holds; otherwise a cold
    search of the quotient decides, and the coloring it finds, if any,
    becomes the working one. That search only decides colorability, so it
    places the classes in non-increasing degree order, ties by label: with
    the isolated classes last, a proof that no coloring exists ends soon.

    The answers and the quotient depend only on separability, not on which
    coloring is the working one, and neither does `chi`, the coloring of
    the vertices reported to callers. It is the start coloring until the
    first answer-0 pair that the start colors alike, and from then on the
    first proper coloring of G in label order. Lifting through `cls` keeps
    label order, so that is the first coloring of the quotient, lifted. G
    only grows, so a cached chi that is still proper on it is still first;
    `chi` searches, in label order, only when it is read and the cached one
    is no longer proper. The answer search's order thus moves only the
    working coloring and the nodes spent.
    """

    @property
    def chi(self) -> Coloring:
        cls, cached = self.cls, self._chi.colors
        # one cached color per class, in label order: cls meets class i
        # before class i + 1
        colors = list(dict(zip(cls, cached)).values())
        # proper on G iff alike on every class and proper on the quotient
        if (tuple([colors[c] for c in cls]) != cached
                or not _is_proper(self.masks, colors, _class_masks(colors, self.k))):
            first = find_k_coloring(self.masks, self.k)
            # the working coloring is proper, so G has a first coloring
            assert first is not None
            self._chi = Coloring(tuple([first.colors[c] for c in cls]), self.k)
        return self._chi

    def chi_partition(self) -> Partition:
        return self.chi.classes()

    def _separates(self, x: int, y: int) -> bool:
        a, b = self.cls[x], self.cls[y]
        if x > y:
            a, b = b, a
        # the other class blocks the shared color, so a move leaves it
        if self._recolor(b) or self._recolor(a):
            return True
        separating = find_k_coloring(self.masks, self.k, high_degree_first=True)
        if separating is None:
            return False
        self.color = list(separating.colors)
        self.classes = _class_masks(self.color, self.k)
        return True


class SeparabilityAdversary(_SeparabilityRule):
    """Answers for a hidden graph known to have exactly k components, 2 <= k <= n.

    The coloring starts balanced unless `initial_coloring` is given; it must
    be proper on `initial_edges`. The consistent partitions are exactly the
    proper color-class partitions of the auxiliary graph (pairs answered 1
    are inseparable, so every such partition keeps them together), so a
    claim is forced iff the auxiliary graph pins down a single one.
    """

    variant = "separability"
    forced_detail = "auxiliary graph has a unique consistent partition"
    lower_bound = staticmethod(bounds.membership_known_count)


class UnknownCountAdversary(_SeparabilityRule):
    """Variant for learners that do not know the component count.

    k is a construction parameter the learner never sees, 1 <= k <= n. The
    coloring starts with every vertex colored 1, and the classes, the
    components of the pairs answered 1, are the certificate the audit
    inspects. They always fit and refine every consistent partition, so a
    claim is forced iff it equals them and the auxiliary graph admits no
    second proper partition: it is the only partition, of any block count,
    that fits.
    """

    variant = "unknown-count"
    forced_detail = "certificate components and auxiliary graph agree"
    lower_bound = staticmethod(bounds.membership_unknown_count)
    min_k = 1

    def __init__(self, n: int, k: int):
        # all-1 is the first coloring of the edgeless graph
        super().__init__(n, k, (1,) * n)

    def _certificate(self) -> Partition:
        return Partition.from_labels(self.cls)


class ContractionAdversary(_QuotientAdversary):
    """Polynomial-time adversary: no coloring search, only degree bookkeeping.

    A class is *big* when its degree in the quotient, not counting the
    queried pair, is at least k-1, else *small*. On a same-colored query, a
    small class (the first argument's when both are small) moves to another
    admissible color; when both classes are big they are contracted and the
    answer is 1.
    """

    variant = "contraction"
    forced_detail = "contracted graph has a unique consistent partition"
    lower_bound = staticmethod(bounds.contraction_adversary_lower)

    def _separates(self, x: int, y: int) -> bool:
        # the new edge counts in both degrees, so small means below k here;
        # fewer than k neighbours always leave a small class a free color
        masks, k = self.masks, self.k
        small = self.cls[x] if masks[self.cls[x]].bit_count() < k else self.cls[y]
        return masks[small].bit_count() < k and self._recolor(small)

    def chi_partition(self) -> Partition:
        """Color classes lifted through `cls` to original labels."""
        color = self.color
        return Partition.from_labels([color[c] for c in self.cls])
