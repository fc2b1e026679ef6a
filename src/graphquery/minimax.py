"""Exact minimax query complexity of partition learning, at desk scale.

The game: the learner picks a query, the adversary picks an answer that
keeps at least one candidate partition alive, and the learner stops once a
single candidate remains. The value is computed by exhaustive search with
memoization on candidate sets encoded as bitmasks.

The memo is keyed by the live-candidate mask itself, with no symmetry
reduction. Mapping each mask to its minimum over all n! vertex relabelings
made every alpha and alpha_m game up to n=6 whose solve takes over a
millisecond 9x-316x slower (alpha n=6, k=3: 1.98 s against 0.035 s; n=6,
k unknown: 20.0 s against 1.52 s), and at n=7, k=3 building its tables
alone took 27 s against a 0.61 s solve (2-vCPU Xeon VM, Python 3.11.7).
Each lookup remapped its mask n! times, which cost more than the repeated
solves it saved.

With a known block count k the candidate universe is every partition into
at most k blocks. (k pairwise-separated vertices pin the count to exactly
k, so the learner's deductions with public k are unchanged, and the
universe stays meaningful at k = n.) With k unknown it is every partition.
"""

from __future__ import annotations

from .graphs import ContractionMap
from .partitions import Partition, all_partitions, partitions_with_at_most
from . import bounds

ALPHA_KNOWN_MAX_N = 7
ALPHA_UNKNOWN_MAX_N = 6
ALPHA_M_MAX_N = 5
UNRESTRICTED_POOL_MAX_N = 4


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
        self.memo: dict[int, int] = {}

    def value(self, mask: int) -> int:
        count = mask.bit_count()
        if count == 1:
            return 0
        if count == 2:
            # any two distinct partitions are split by some query
            return 1
        hit = self.memo.get(mask)
        if hit is not None:
            return hit
        splits = set()
        for move_mask in self.moves_fn(mask):
            one = mask & move_mask
            zero = mask & ~move_mask
            if one == 0 or zero == 0:
                continue
            splits.add((one, zero) if one < zero else (zero, one))
        if not splits:
            raise AssertionError("no informative query splits a multi-candidate set")
        # balanced splits first: they bound the answer quickly and let the
        # adversary-max short-circuit prune the rest
        ordered = sorted(splits, key=lambda s: abs(s[0].bit_count() - s[1].bit_count()))
        best = None
        for small, large in ordered:
            if best is not None:
                # one answer leaves `large` alive and binary answers can at
                # best halve it, so this move costs at least the floor below
                floor = 1 + (max(large.bit_count(), small.bit_count()) - 1).bit_length()
                if floor >= best:
                    continue
            first = self.value(small)
            if best is not None and first + 1 >= best:
                continue
            worst = 1 + max(first, self.value(large))
            if best is None or worst < best:
                best = worst
                if best == 1:
                    break
        self.memo[mask] = best
        return best


def _alpha_moves(pair_masks):
    masks = list(pair_masks.values())

    def moves(_mask):
        return masks

    return moves


def _alpha_m_moves(n, pair_masks, restrict_pools):
    def pools(vertices):
        # every (v, S) with S a nonempty subset of the other vertices; each
        # pool's mask extends the mask of S minus its lowest member
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

    def restricted(mask):
        # One query vertex per known-together class, and pools built from one
        # representative per class: classmates answer identically on every
        # live candidate, so nothing else is informative.
        together = ContractionMap(n)
        for (u, v), pm in pair_masks.items():
            if mask & ~pm == 0 and not together.same(u, v):
                together.union(u, v)
        return pools(together.representatives())

    def unrestricted(_mask):
        return pools(range(n))

    return restricted if restrict_pools else unrestricted


def minimax_query_complexity(
    n: int,
    k: int | None = None,
    oracle_kind: str = "alpha",
    *,
    restrict_pools: bool = True,
    canonicalize: bool = False,
) -> int:
    """Optimal worst-case queries to identify the hidden partition.

    oracle_kind "alpha" plays pairwise membership queries; "alpha_m" plays
    pooled queries (v, S). For alpha_m, pools are restricted to unions of
    classes the live candidates already force together; this loses nothing
    because any pool answers identically to its class closure. Set
    restrict_pools=False (tiny n only) to search raw pools and check that.

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
    if not restrict_pools and n > UNRESTRICTED_POOL_MAX_N:
        raise InstanceTooLargeError(
            f"unrestricted pools allowed only for n <= {UNRESTRICTED_POOL_MAX_N}"
        )
    cands = _candidates(n, k)
    pair_masks = _pair_masks(cands, n)
    if oracle_kind == "alpha":
        moves_fn = _alpha_moves(pair_masks)
    else:
        moves_fn = _alpha_m_moves(n, pair_masks, restrict_pools)
    game = _Game(moves_fn)
    return game.value((1 << len(cands)) - 1)


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
