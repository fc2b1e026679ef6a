"""Canonical adjacency codes: the kernel behind isomorphism-free enumeration.

A graph's canonical code is the minimum, over all vertex orderings, of its
upper-triangle adjacency bits packed row-major into an integer (most
significant bit first). Two graphs are isomorphic iff their codes match.

The minimum is found by a search over ordered partitions instead of a scan
of all n! orderings. A state is a tuple of cell bitmasks holding the
vertices not yet placed; every ordering consistent with it lists the cells
in order, and all vertices of a cell are adjacent to the same placed
vertices. The next vertex v must come from the first cell. Its row holds
its bits towards every later vertex, so within each cell the row is
smallest when v's non-neighbours come before its neighbours, and that split
is the only way to reach the smallest row. Splitting every cell that way
gives the next state, in which the row is fixed.

Rows are placed most significant first, so the minimum code starts with
the smallest row any candidate v can reach; only the candidates that tie on
it are searched further. The bits still open depend on the state alone, so
each state's best tail is memoised. The result is exactly the scan's code.
"""

from __future__ import annotations

import numpy as np


def code(nbrs: list[int] | tuple[int, ...]) -> int:
    """Canonical code of the graph whose vertex v has neighbour bitmask nbrs[v]."""
    memo: dict[tuple[int, ...], int] = {}

    def best(cells: tuple[int, ...], size: int) -> int:
        # minimum code of the rows of the `size` vertices still open in this state
        if size <= 1:
            return 0
        found = memo.get(cells)
        if found is not None:
            return found
        first = cells[0]
        low_row = -1
        ties = []
        pending = first
        while pending:
            bit = pending & -pending
            pending ^= bit
            nbr = nbrs[bit.bit_length() - 1]
            row = 0
            split = []
            for cell in (first ^ bit,) + cells[1:]:
                ones = cell & nbr
                zeros = cell ^ ones
                width = ones.bit_count()
                row = (row << cell.bit_count()) | ((1 << width) - 1)
                if zeros:
                    split.append(zeros)
                if ones:
                    split.append(ones)
            if low_row < 0 or row < low_row:
                low_row, ties = row, [split]
            elif row == low_row:
                ties.append(split)
        left = size - 1
        tail = min(best(tuple(split), left) for split in ties)
        found = (low_row << left * (left - 1) // 2) | tail
        memo[cells] = found
        return found

    return best(((1 << len(nbrs)) - 1,), len(nbrs))


def canonical_codes(adj: np.ndarray) -> np.ndarray:
    """Canonical codes for a batch of symmetric 0/1 adjacency matrices, shape (B, n, n)."""
    if adj.ndim != 3 or adj.shape[1] != adj.shape[2]:
        raise ValueError("expected a (batch, n, n) adjacency array")
    n = adj.shape[1]
    if n > 8:
        raise ValueError("canonical search supports n <= 8")
    if adj.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    # one neighbour bitmask per vertex: bit j of masks[b, v] is adj[b, v, j]
    masks = np.asarray(adj, dtype=np.int64) @ (np.int64(1) << np.arange(n, dtype=np.int64))
    return np.array([code(nbrs) for nbrs in masks.tolist()], dtype=np.int64)
