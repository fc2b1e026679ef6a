"""Exact minimax query complexity of partition learning, at desk scale.

The game: the learner picks a query, the adversary picks an answer that
keeps at least one candidate partition alive, and the learner stops once a
single candidate remains. The value is computed by exhaustive search with
memoization on candidate sets encoded as bitmasks.

The search is windowed (alpha-beta; Knuth & Moore, "An analysis of
alpha-beta pruning", 1975). `_Game.value(mask, beta)` returns the exact
value when it is below `beta`, and otherwise a lower bound that is at least
`beta`. A move is worth trying only if both of its answers cost less than
`best - 1`, so each child is searched with that window, the larger half
first, and a child that fails high cuts the move without its exact value.
Two memos keep what the search proved: `exact` holds exact values only,
and `lower` holds the lower bounds that failing high proved. A fail-high
result must never enter `exact`. A set's floor is the larger of
ceil(log2 count) and its stored lower bound; a call whose floor reaches its
window returns at once, and the move loop stops once `best` reaches it. The
root is searched with no window, so the value it returns is exact. Alpha
(6, k unknown) went from 0.80 s to 0.31 s, and alpha (7, 3) from 0.32 s to
0.037 s (2-vCPU Xeon VM, Python 3.11.7).

Sets of at most 3 candidates return count - 1 without a search. That holds
for this learning game only: any two distinct partitions are split by some
query, and a stop needs one live candidate, so 3 candidates cost
ceil(log2 3) = 2. A game that stops earlier, such as one that only has to
learn the block count, must search such sets itself.

Both memos belong to one `_Game`, which one `minimax_query_complexity`
call builds and drops, so no solver state outlives a call. They are keyed
by the live-candidate mask itself, with no symmetry reduction. Mapping each
mask to its minimum over all n! vertex relabelings made every alpha and
alpha_m game up to n=6 whose solve takes over a millisecond 9x-316x slower
(alpha n=6, k=3: 1.98 s against 0.035 s; n=6, k unknown: 20.0 s against
1.52 s), and at n=7, k=3 building its tables alone took 27 s against a
0.61 s solve (2-vCPU Xeon VM, Python 3.11.7). Each lookup remapped its mask
n! times, which cost more than the repeated solves it saved.

With a known block count k the candidate universe is every partition into
at most k blocks. (k pairwise-separated vertices pin the count to exactly
k, so the learner's deductions with public k are unchanged, and the
universe stays meaningful at k = n.) With k unknown it is every partition.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .graphs import ContractionMap
from .partitions import Partition, all_partitions, partitions_with_at_most
from . import bounds

ALPHA_KNOWN_MAX_N = 7
# at n = ALPHA_KNOWN_MAX_N only k <= this: alpha (7, 5), (7, 6) and (7, 7)
# take 41-54 s each (2-vCPU Xeon VM, Python 3.11.7), (7, 4) about 9 s
ALPHA_KNOWN_MAX_K_AT_MAX_N = 4
ALPHA_UNKNOWN_MAX_N = 6
ALPHA_M_MAX_N = 5


class InstanceTooLargeError(ValueError):
    """The requested game exceeds the configured state-space guard."""


def _candidates(n: int, k: int | None) -> list[Partition]:
    if k is None:
        return list(all_partitions(n))
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}")
    return list(partitions_with_at_most(n, k))


def _pair_masks(cands: list[Partition], n: int) -> dict[tuple[int, int], int]:
    """For each vertex pair, the bitmask of candidates keeping it together."""
    masks = {}
    for u in range(n):
        for v in range(u + 1, n):
            m = 0
            for i, p in enumerate(cands):
                if p.same_block(u, v):
                    m |= 1 << i
            masks[(u, v)] = m
    return masks


class _Game:
    def __init__(self, moves_fn):
        self.moves_fn = moves_fn
        self.exact: dict[int, int] = {}
        self.lower: dict[int, int] = {}

    def value(self, mask: int, beta: float = math.inf) -> int:
        """The game value of `mask` if it is below `beta`, else a lower
        bound on it that is at least `beta`."""
        count = mask.bit_count()
        if count <= 3:
            # 1 candidate: done; 2: any query splitting them; 3: any
            # splitting query leaves 1 or 2, and ceil(log2 3) = 2
            return count - 1
        hit = self.exact.get(mask)
        if hit is not None:
            return hit
        floor = max((count - 1).bit_length(), self.lower.get(mask, 0))
        if floor >= beta:
            return floor
        # each split keyed by its larger half; the other half is mask ^ large
        splits: dict[int, int] = {}
        for move_mask in self.moves_fn(mask):
            one = mask & move_mask
            if one == 0 or one == mask:
                continue
            zero = mask ^ one
            ones = one.bit_count()
            if ones * 2 > count or (ones * 2 == count and one > zero):
                splits[one] = ones
            else:
                splits[zero] = count - ones
        if not splits:
            raise AssertionError("no informative query splits a multi-candidate set")
        # balanced splits first: they bound the answer quickly, and the
        # window best - 1 then cuts the rest
        best = beta
        for large, size in sorted(splits.items(), key=itemgetter(1)):
            # the answer leaving `large` alive still needs ceil(log2 size)
            # queries, and later splits have larger halves still
            if 1 + (size - 1).bit_length() >= best:
                break
            first = self.value(large, best - 1)
            if first + 1 >= best:
                continue
            second = self.value(mask ^ large, best - 1)
            if second + 1 >= best:
                continue
            best = 1 + max(first, second)
            if best <= floor:
                break
        if best < beta:
            self.exact[mask] = best
            self.lower.pop(mask, None)
            return best
        # every move costs at least beta: a lower bound, never an exact value
        self.lower[mask] = beta
        return beta


def _alpha_moves(pair_masks):
    masks = list(pair_masks.values())

    def moves(_mask):
        return masks

    return moves


def _alpha_m_moves(n, pair_masks):
    def moves(mask):
        # One query vertex per known-together class, and pools built from one
        # representative per class: classmates answer identically on every
        # live candidate, so nothing else is informative.
        together = ContractionMap(n)
        for (u, v), pm in pair_masks.items():
            if mask & ~pm == 0 and not together.same(u, v):
                together.union(u, v)
        vertices = together.representatives()
        # every (v, S) with S a nonempty subset of the other representatives;
        # each pool's mask extends the mask of S minus its lowest member
        out = []
        for v in vertices:
            others = [u for u in vertices if u != v]
            partial = {0: 0}
            for choice in range(1, 1 << len(others)):
                low = choice & -choice
                u = others[low.bit_length() - 1]
                pool = partial[choice ^ low] | pair_masks[(u, v) if u < v else (v, u)]
                partial[choice] = pool
                out.append(pool)
        return out

    return moves


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

    canonicalize changes nothing: every value is computed on raw candidate
    masks. The keyword is kept only because the benchmark's minimax-games
    workload still passes canonicalize=True and its tracer reads the
    argument; it goes once that workload stops passing it.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if oracle_kind not in ("alpha", "alpha_m"):
        raise ValueError(f"unknown oracle kind {oracle_kind!r}")
    if oracle_kind == "alpha":
        guard = ALPHA_KNOWN_MAX_N if k is not None else ALPHA_UNKNOWN_MAX_N
    else:
        guard = ALPHA_M_MAX_N
    if n > guard:
        raise InstanceTooLargeError(
            f"{oracle_kind} game with n={n} exceeds the guard n <= {guard}"
        )
    top_k = ALPHA_KNOWN_MAX_K_AT_MAX_N
    if oracle_kind == "alpha" and n == ALPHA_KNOWN_MAX_N and k is not None and top_k < k <= n:
        raise InstanceTooLargeError(
            f"alpha game with n={n}, k={k} exceeds the guard k <= {top_k} at n={n}"
        )
    cands, game = _new_game(n, k, oracle_kind)
    return game.value((1 << len(cands)) - 1)


def _new_game(n: int, k: int | None, oracle_kind: str) -> tuple[list[Partition], _Game]:
    """The candidate universe, in bit order, and a fresh game over it."""
    cands = _candidates(n, k)
    pair_masks = _pair_masks(cands, n)
    if oracle_kind == "alpha":
        moves_fn = _alpha_moves(pair_masks)
    else:
        moves_fn = _alpha_m_moves(n, pair_masks)
    return cands, _Game(moves_fn)


def information_bound_check(n: int, k: int) -> tuple[int, int]:
    """(ceil(log2 #k-block-partitions), exact pooled-query minimax).

    The first can never exceed the second; a violation would falsify the
    solver and raises immediately.
    """
    lower = bounds.information_lower(n, k)
    value = minimax_query_complexity(n, k, "alpha_m")
    if lower > value:
        raise RuntimeError(
            f"information bound {lower} exceeds computed minimax {value} at n={n}, k={k}"
        )
    return lower, value
