"""Set partitions in canonical form, and counting.

Partitions are enumerated by the colouring search: on the edgeless graph,
`coloring._search_colorings([0] * n, k)` yields every partition into
at most k blocks once, as its restricted growth string plus 1, in
lexicographic order; `coloring.proper_partitions([0] * n, k)` returns them
as `Partition`s.

S(n, k) lives in one table, `_completions`: `stirling_partition_count`
reads it, and the uniform sampler in `instances` draws from it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable


def check_vertex(v: int, n: int) -> None:
    """Raise ValueError unless v is one of the vertices 0..n-1; the one vertex
    check, which a hot accessor calls only when its own comparison fails."""
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range for n={n}")


def check_pair(u: int, v: int, n: int) -> None:
    """The one membership-pair check. A session's query tests `0 <= u < n >
    v >= 0 and u != v` inline and calls this only when that test fails."""
    check_vertex(u, n)
    check_vertex(v, n)
    if u == v:
        raise ValueError("membership query needs two distinct vertices")


def check_claim(claimed: Partition, n: int) -> None:
    """The one claim-size check of every session's `declare`: the claimed
    partition must be over the session's n vertices."""
    if claimed.n != n:
        raise ValueError("claimed partition is over the wrong vertex set")


@dataclass(frozen=True)
class Partition:
    """Partition of {0..n-1} into disjoint nonempty blocks.

    Canonical form: each block sorted ascending, blocks ordered by their
    smallest element. Equality and hashing rely on the canonical form.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # one pass: each block ascends inside 0..n-1, the blocks' first
        # members ascend, and the bitmask `seen` of the vertices so far
        # catches a repeat, so n distinct vertices below n cover 0..n-1.
        # A vertex becomes a bit only once it lies between its block's
        # ends, so a stray huge label is rejected, never allocated.
        n = sum(map(len, self.blocks))
        seen = 0
        first = -1
        ordered = True
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            if block[0] <= first:
                ordered = False
            first = prev = block[0]
            last = block[-1]
            if first < 0 or last >= n:
                raise ValueError("blocks must cover 0..n-1 exactly")
            for v in block:
                if not prev <= v <= last:
                    raise ValueError("blocks must be sorted; use from_blocks()")
                bit = 1 << v
                if seen & bit:
                    raise ValueError(f"vertex {v} appears twice")
                seen |= bit
                prev = v
        if not ordered:
            raise ValueError("blocks must be ordered by smallest element; use from_blocks()")

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> Partition:
        canon = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else -1)
        return cls(tuple(canon))

    @classmethod
    def from_labels(cls, labels: Iterable[Hashable]) -> Partition:
        """The partition whose blocks hold the vertices sharing a label;
        vertex v has label labels[v].

        Blocks come out in order of first appearance, each ascending, so
        they are already ordered by their smallest vertex.
        """
        blocks: dict[Hashable, list[int]] = {}
        for v, label in enumerate(labels):
            blocks.setdefault(label, []).append(v)
        return cls(tuple([tuple(block) for block in blocks.values()]))

    @cached_property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def k(self) -> int:
        return len(self.blocks)

    @cached_property
    def _block_masks(self) -> list[int]:
        """The one per-vertex form: entry v is the mask of v's block."""
        masks = [0] * self.n
        for block in self.blocks:
            mask = 0
            for v in block:
                mask |= 1 << v
            for v in block:
                masks[v] = mask
        return masks

    def block_mask(self, v: int) -> int:
        """The bitmask of the block holding v (bit w set iff w is in it)."""
        if 0 <= v < self.n:
            return self._block_masks[v]
        check_vertex(v, self.n)

    def same_block(self, u: int, v: int) -> bool:
        n = self.n
        if 0 <= u < n > v >= 0:  # both in 0..n-1
            masks = self._block_masks
            return masks[u] == masks[v]
        check_vertex(u, n)
        check_vertex(v, n)

    def to_json(self) -> str:
        """The blocks as JSON arrays of arrays in canonical form: the
        partition format the README documents for storing partitions."""
        return json.dumps([list(b) for b in self.blocks])


def _completions(n: int, k: int) -> list[list[int]]:
    """table[r][o]: ways to place r labeled elements onto o existing blocks
    so that exactly k blocks exist at the end, for r <= n and o <= k."""
    table = [[int(o == k) for o in range(k + 1)]]
    for _ in range(n):
        prev = table[-1]
        table.append([o * prev[o] + (prev[o + 1] if o < k else 0) for o in range(k + 1)])
    return table


def stirling_partition_count(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k nonempty blocks.

    Returns 0 when k > n, or when k = 0 < n; S(0, 0) = 1.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if k > n:  # the table would give 0 too, after building k + 1 columns
        return 0
    return _completions(n, k)[n][0]
