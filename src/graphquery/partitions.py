"""Set partitions in canonical form, refinement checks and counting.

Partitions are enumerated by the colouring search: on the edgeless graph,
`coloring._search_colorings([0] * n, k, budget)` yields every partition into
at most k blocks once, as its restricted growth string plus 1, in
lexicographic order; `coloring.proper_partitions([0] * n, k)` returns them
as `Partition`s.
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


@dataclass(frozen=True)
class Partition:
    """Partition of {0..n-1} into disjoint nonempty blocks.

    Canonical form: each block sorted ascending, blocks ordered by their
    smallest element. Equality and hashing rely on the canonical form.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            if list(block) != sorted(block):
                raise ValueError("blocks must be sorted; use from_blocks()")
            for v in block:
                if v in seen:
                    raise ValueError(f"vertex {v} appears twice")
                seen.add(v)
        n = len(seen)
        if seen != set(range(n)):
            raise ValueError("blocks must cover 0..n-1 exactly")
        if [b[0] for b in self.blocks] != sorted(b[0] for b in self.blocks):
            raise ValueError("blocks must be ordered by smallest element; use from_blocks()")

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> Partition:
        canon = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else -1)
        return cls(tuple(canon))

    @classmethod
    def singletons(cls, n: int) -> Partition:
        return cls(tuple((v,) for v in range(n)))

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

    @classmethod
    def from_json(cls, text: str) -> Partition:
        """Inverse of `to_json`, so that partitions stored in the README's
        format load back."""
        return cls.from_blocks(json.loads(text))


def is_refinement(fine: Partition, coarse: Partition) -> bool:
    """True iff every block of fine lies inside some block of coarse."""
    if fine.n != coarse.n:
        raise ValueError("partitions are over different vertex sets")
    return not any(f & ~c for f, c in zip(fine._block_masks, coarse._block_masks))


def stirling_partition_count(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k nonempty blocks.

    Returns 0 when k > n, or when k = 0 < n; S(0, 0) = 1.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if k > n:
        return 0
    if n == 0:
        return 1
    if k == 0:
        return 0
    # row DP on S(i, j) = j*S(i-1, j) + S(i-1, j-1)
    row = [1] + [0] * k
    for i in range(1, n + 1):
        new = [0] * (k + 1)
        for j in range(1, min(i, k) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]
