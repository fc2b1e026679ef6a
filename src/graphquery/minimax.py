"""Exact minimax query complexity of partition learning, at desk scale.

The game: the learner picks a query, the adversary picks an answer that
keeps at least one candidate partition alive, and the learner stops once a
single candidate remains. With a known block count k the candidate universe
is every partition into at most k blocks. (k pairwise-separated vertices
pin the count to exactly k, so the learner's deductions with public k are
unchanged, and the universe stays meaningful at k = n.) With k unknown it
is every partition.

One windowed search, `_Game`, solves every game. It is generic over its
states: a game supplies `key(state)`, which names a state in the memos, and
`splits(state, count)`, which lists the informative queries on a state
with `count` live candidates and the two states each leaves. It may leave
out a query whose two states have the same keys as a listed query's, as
the alpha game does for twin swaps.

Alpha (pairwise) games are played on the auxiliary graph H. Its vertices
are the classes of vertices known to be together (the pairs answered 1,
closed transitively), and two classes are adjacent when a pair between
them was answered 0. The game on H is exact:
  - The live partitions correspond one-to-one with the partitions of H
    into at most k independent sets. A live partition keeps every class
    together and separates every answered-0 pair, so it is the lift of
    such a partition of H; and every such lift agrees with every answer.
    With k unknown that is every proper partition, the game of k = n.
  - A query inside a class, or across an edge of H, has the same answer
    on every live partition, so it is uninformative. A query across a
    non-adjacent pair ab splits H into H + ab (answer 0) and H / ab
    (answer 1), and every informative query is one of these.
  - A relabelling of H maps its live sets and its moves onto those of the
    relabelled graph, so the value depends only on H's isomorphism class.
The memos are therefore keyed by (vertices of H, canonical code of H),
from `_canon.code`, whose codes are equal exactly for isomorphic graphs.
The live count is the number of partitions of H into at most k
independent sets, found by the colouring search and cached per labelled
state. Deletion-contraction, count(H) = count(H + ab) + count(H / ab),
makes each move cost one search.
Moves are listed one per orbit of twin swaps. Swapping two twins of H
(classes whose neighbourhoods agree apart from each other) is an
automorphism of H, so the moves of one orbit leave isomorphic children,
with the same counts and values. `splits` keeps (T[0], T[1]) inside an
independent twin class T, and (S[0], T[0]) across twin classes S and T
that are not adjacent (`graphs.twin_classes`). Each is its orbit's first
move in the scan order (b ascending, then a), so the stable size sort
keeps the kept moves in their old order. A dropped move's calls would all
be memo hits, so the memos end the same. With k unknown at n = 6 the game
makes 794 contractions and 598 `code` calls instead of 1,318 and 1,011.
H is stored as a tuple of neighbour bitmasks over its classes, labelled in
order of their least vertex, and H / ab is `graphs.contract`, which keeps
that order. Every adversary stores its quotient in the same form and
contracts it with the same function.

Alpha_m (pooled) games keep bitmask states over the candidate list: a
state is the mask of live candidates, its key is the mask itself, and its
count is the mask's popcount. The candidate list is the colouring search on
the edgeless graph, whose colour tuples are the partitions' restricted
growth strings plus 1. One symmetric table, `together[u][v]`, holds the
mask of the tuples giving u and v one colour, and a pool's mask is the OR
of its members' entries in the query vertex's row.

The search is windowed (alpha-beta; Knuth & Moore, "An analysis of
alpha-beta pruning", 1975). `_Game.value(state, count, beta)` returns the
exact value when it is below `beta`, and otherwise a lower bound that is
at least `beta`. A move is worth trying only if both of its answers cost
less than `best - 1`, so each child is searched with that window, the
larger half first, and a child that fails high cuts the move without its
exact value. Two memos keep what the search proved: `exact` holds exact
values only, and `lower` holds the lower bounds that failing high proved.
A fail-high result must never enter `exact`. A state's floor is the larger
of ceil(log2 count) and its stored lower bound; a call whose floor reaches
its window returns at once, and the move loop stops once `best` reaches
it. The root is searched with no window, so the value it returns is exact.

States with at most 3 candidates return count - 1 without a search, and
without a key. That holds for this learning game only: any two distinct
partitions are split by some query, and a stop needs one live candidate,
so 3 candidates cost ceil(log2 3) = 2. A game that stops earlier, such as
one that only has to learn the block count, must search such states
itself.

Both memos belong to one `_Game`, which one `minimax_query_complexity`
call builds and drops, so no solver state outlives a call.
"""

from __future__ import annotations

import math
from operator import itemgetter

from ._canon import code
from .coloring import _search_colorings
from .graphs import contract, twin_classes
from . import bounds

ALPHA_MAX_N = 7
ALPHA_M_MAX_N = 8


class InstanceTooLargeError(ValueError):
    """The requested game exceeds the configured state-space guard."""


class _Game:
    """The windowed search over one game's states.

    `key(state)` names a state in the memos. `splits(state, count)` lists
    the informative queries on a state with `count` live candidates, each
    as (larger count, larger half, smaller count, smaller half). It may
    list one query per orbit of the state's automorphisms, as the alpha
    game does for twin swaps: a query left out leaves halves with the same
    keys and counts as a listed one, so its calls would only hit the memos.
    """

    def __init__(self, key, splits):
        self.key = key
        self.splits = splits
        self.exact: dict = {}
        self.lower: dict = {}

    def value(self, state, count: int, beta: float = math.inf) -> int:
        """The game value of `state` if it is below `beta`, else a lower
        bound on it that is at least `beta`."""
        if count <= 3:
            # 1 candidate: done; 2: any query splitting them; 3: any
            # splitting query leaves 1 or 2, and ceil(log2 3) = 2
            return count - 1
        key = self.key(state)
        hit = self.exact.get(key)
        if hit is not None:
            return hit
        floor = max((count - 1).bit_length(), self.lower.get(key, 0))
        if floor >= beta:
            return floor
        splits = self.splits(state, count)
        if not splits:
            raise AssertionError("no informative query splits a multi-candidate set")
        # balanced splits first: they bound the answer quickly, and the
        # window best - 1 then cuts the rest
        best = beta
        for size, large, small_size, small in sorted(splits, key=itemgetter(0)):
            # the answer leaving `large` alive still needs ceil(log2 size)
            # queries, and later splits have larger halves still
            if 1 + (size - 1).bit_length() >= best:
                break
            first = self.value(large, size, best - 1)
            if first + 1 >= best:
                continue
            second = self.value(small, small_size, best - 1)
            if second + 1 >= best:
                continue
            best = 1 + max(first, second)
            if best <= floor:
                break
        if best < beta:
            self.exact[key] = best
            self.lower.pop(key, None)
            return best
        # every move costs at least beta: a lower bound, never an exact value
        self.lower[key] = beta
        return beta


def _alpha_game(n: int, k: int) -> tuple[_Game, tuple[int, ...], int]:
    """The pairwise game on auxiliary graphs, its root (n classes, no edges)
    and the root's candidate count."""
    counts: dict[tuple[int, ...], int] = {}

    def count(h: tuple[int, ...]) -> int:
        # partitions of H into at most k independent sets
        found = counts.get(h)
        if found is None:
            found = counts[h] = sum(1 for _ in _search_colorings(h, k))
        return found

    def splits(h: tuple[int, ...], total: int) -> list:
        # one move per orbit of twin swaps, the orbit's first in (b, a)
        # order (see the module docstring)
        moves = []
        classes = twin_classes(h)
        for i, members in enumerate(classes):
            a = members[0]
            if len(members) > 1 and not h[a] >> members[1] & 1:
                moves.append((members[1], a))
            moves += [(t[0], a) for t in classes[i + 1:] if not h[a] >> t[0] & 1]
        moves.sort()
        out = []
        for b, a in moves:
            merged = contract(h, a, b)
            ones = count(merged)
            # deletion-contraction: every live partition of H either
            # separates a and b (H + ab) or joins them (H / ab)
            zeros = total - ones
            if not ones or not zeros:
                continue
            plus = list(h)
            plus[a] |= 1 << b
            plus[b] |= 1 << a
            plus = tuple(plus)
            if ones > zeros:
                out.append((ones, merged, zeros, plus))
            else:
                out.append((zeros, plus, ones, merged))
        return out

    keys: dict[tuple[int, ...], tuple[int, int]] = {}

    def key(h: tuple[int, ...]) -> tuple[int, int]:
        found = keys.get(h)
        if found is None:
            found = keys[h] = (len(h), code(h))
        return found

    root = (0,) * n
    return _Game(key, splits), root, count(root)


def _alpha_m_game(n: int, k: int | None) -> tuple[_Game, int, int]:
    """The pooled game on candidate bitmasks, its root (every candidate) and
    the root's candidate count. Candidate i is the i-th colouring of the
    edgeless graph; listing them is one search in `SEARCH_STATS`."""
    cands = list(_search_colorings([0] * n, n if k is None else k))
    # together[u][v], symmetric: the bitmask of candidates keeping u and v together
    together = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            m = 0
            for i, c in enumerate(cands):
                if c[u] == c[v]:
                    m |= 1 << i
            together[u][v] = together[v][u] = m

    def splits(mask: int, count: int) -> list:
        # One query vertex per known-together class, and pools built from one
        # representative per class: classmates answer identically on every
        # live candidate, so nothing else is informative. "Together on every
        # live candidate" is an intersection of equivalence relations, so it
        # is transitive, and a class's least member represents it.
        vertices = [v for v in range(n) if all(mask & ~together[u][v] for u in range(v))]
        # every (v, S) with S a nonempty subset of the other representatives;
        # each pool's mask extends the mask of S minus its lowest member, and
        # each split is keyed by its larger half (the other is mask ^ large)
        halves: dict[int, int] = {}
        for v in vertices:
            others = [together[v][u] for u in vertices if u != v]
            partial = [0]  # partial[choice]: the pool of the subset `choice`
            for choice in range(1, 1 << len(others)):
                low = choice & -choice
                pool = partial[choice ^ low] | others[low.bit_length() - 1]
                partial.append(pool)
                one = mask & pool
                if one == 0 or one == mask:
                    continue
                zero = mask ^ one
                ones = one.bit_count()
                if ones * 2 > count or (ones * 2 == count and one > zero):
                    halves[one] = ones
                else:
                    halves[zero] = count - ones
        return [(size, large, count - size, mask ^ large) for large, size in halves.items()]

    return _Game(lambda mask: mask, splits), (1 << len(cands)) - 1, len(cands)


def minimax_query_complexity(
    n: int,
    k: int | None = None,
    oracle_kind: str = "alpha",
    *,
    canonicalize: bool = False,
) -> int:
    """Optimal worst-case queries to identify the hidden partition.

    oracle_kind "alpha" plays pairwise membership queries; "alpha_m" plays
    pooled queries (v, S). For alpha_m, pools are restricted to unions of
    classes the live candidates already force together; this loses nothing
    because any pool answers identically to its class closure (the tests
    check it against a plain search over raw pools).

    canonicalize changes nothing: alpha games are always solved over
    isomorphism classes of the auxiliary graph, and alpha_m games over raw
    candidate masks. The keyword is kept only because the benchmark's
    minimax-games workload still passes canonicalize=True and its tracer
    reads the argument; it goes once that workload stops passing it.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if oracle_kind not in ("alpha", "alpha_m"):
        raise ValueError(f"unknown oracle kind {oracle_kind!r}")
    guard = ALPHA_MAX_N if oracle_kind == "alpha" else ALPHA_M_MAX_N
    if n > guard:
        raise InstanceTooLargeError(
            f"{oracle_kind} game with n={n} exceeds the guard n <= {guard}"
        )
    if k is not None and not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}")
    game, root, count = _new_game(n, k, oracle_kind)
    return game.value(root, count)


def _new_game(n: int, k: int | None, oracle_kind: str) -> tuple[_Game, object, int]:
    """A fresh game, its root state and the root's candidate count."""
    if oracle_kind == "alpha":
        # with k unknown every partition is a candidate: the game of k = n
        return _alpha_game(n, n if k is None else k)
    return _alpha_m_game(n, k)


def information_bound_check(n: int, k: int | None) -> tuple[int, int]:
    """(ceil(log2 #partitions into exactly k blocks), exact pooled-query minimax).

    The count is S(n, k), or the Bell number B(n) when k is None. The game
    ranges over a larger universe, every partition into at most k blocks
    (see the module docstring), so the first number is a weaker floor than
    the game's own ceil(log2 #candidates). At (5, 3) the bound is
    ceil(log2 25) = 5, the game's universe holds 1 + 15 + 25 = 41
    partitions, and the value is 6. The first number can never exceed the
    second; a violation would falsify the solver and raises immediately.
    The game is solved first, so a bad n or k fails with its message.
    """
    value = minimax_query_complexity(n, k, "alpha_m")
    lower = bounds.information_lower_unknown(n) if k is None else bounds.information_lower(n, k)
    if lower > value:
        raise RuntimeError(
            f"information bound {lower} exceeds computed minimax {value} at n={n}, k={k}"
        )
    return lower, value
