"""Set partitions in canonical form, refinement checks, enumeration, and counting."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


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
    def single_block(cls, n: int) -> Partition:
        return cls((tuple(range(n)),))

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def k(self) -> int:
        return len(self.blocks)

    @cached_property
    def _block_index(self) -> dict[int, int]:
        return {v: i for i, block in enumerate(self.blocks) for v in block}

    def block_index(self, v: int) -> int:
        return self._block_index[v]

    def block_of(self, v: int) -> tuple[int, ...]:
        return self.blocks[self._block_index[v]]

    def same_block(self, u: int, v: int) -> bool:
        return self._block_index[u] == self._block_index[v]

    def to_json(self) -> str:
        return json.dumps([list(b) for b in self.blocks])

    @classmethod
    def from_json(cls, text: str) -> Partition:
        return cls.from_blocks(json.loads(text))


def is_refinement(fine: Partition, coarse: Partition) -> bool:
    """True iff every block of fine lies inside some block of coarse."""
    if fine.n != coarse.n:
        raise ValueError("partitions are over different vertex sets")
    for block in fine.blocks:
        target = coarse.block_index(block[0])
        if any(coarse.block_index(v) != target for v in block[1:]):
            return False
    return True


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


def _growth_strings(n: int, max_blocks: int) -> Iterator[list[int]]:
    """Restricted growth strings over n elements using at most max_blocks labels."""
    assign = [0] * n

    def rec(i: int, used: int) -> Iterator[list[int]]:
        if i == n:
            yield assign
            return
        top = min(used + 1, max_blocks)
        for c in range(top):
            assign[i] = c
            yield from rec(i + 1, max(used, c + 1))

    if n == 0:
        yield []
    else:
        yield from rec(0, 0)


def _string_to_partition(assign: list[int]) -> Partition:
    blocks: dict[int, list[int]] = {}
    for v, c in enumerate(assign):
        blocks.setdefault(c, []).append(v)
    return Partition.from_blocks(blocks.values())


def partitions_with_at_most(n: int, kmax: int) -> Iterator[Partition]:
    """All partitions of {0..n-1} into at most kmax blocks, in a fixed order."""
    if n < 1:
        raise ValueError("n must be positive")
    if kmax < 1:
        raise ValueError("kmax must be positive")
    for assign in _growth_strings(n, kmax):
        yield _string_to_partition(assign)


def all_partitions(n: int) -> Iterator[Partition]:
    """All partitions of {0..n-1} (any block count)."""
    yield from partitions_with_at_most(n, n)
