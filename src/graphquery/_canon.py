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
it are searched further. The result is exactly the scan's code. States
are not memoised: two branches of one search almost never reach the same
state (65 of 49,622 branching states over the level-7 enumeration
candidates), so a memo would be nearly pure overhead.

Twin pruning. Two tied candidates u, v of the first cell are twins when
N(u) minus v equals N(v) minus u. They lie in one cell, so they already
agree on the placed vertices, and comparing their whole neighbour masks
less u and v tests the open ones. The transposition (u v) is then an
automorphism of the graph. It fixes every placed vertex and every cell,
and it maps the state after placing u onto the state after placing v.
Automorphic states have the same best tail, so only one candidate per
twin class is searched. Twins have equal rows, so the test only runs
among the candidates that tie on the smallest row.

Fast paths. A state with two open vertices has one bit left, their
adjacency, and returns it. A state whose first cell is a single vertex
does not branch: its row and next state are computed directly.
"""

from __future__ import annotations

import numpy as np


def code(nbrs: list[int] | tuple[int, ...]) -> int:
    """Canonical code of the graph whose vertex v has neighbour bitmask nbrs[v]."""
    n = len(nbrs)
    return _best(nbrs, ((1 << n) - 1,), n)


def _split(nbr: int, cells: tuple[int, ...]) -> tuple[int, ...]:
    # each cell's non-neighbours of the placed vertex, then its neighbours
    out = []
    for cell in cells:
        ones = cell & nbr
        if ones != cell:
            out.append(cell ^ ones)
        if ones:
            out.append(ones)
    return tuple(out)


def _best(nbrs, cells: tuple[int, ...], size: int) -> int:
    """Minimum code of the rows of the `size` vertices still open in `cells`."""
    if size <= 2:
        if size < 2:
            return 0
        pair = cells[0] if len(cells) == 1 else cells[0] | cells[1]
        low = pair & -pair
        return 1 if nbrs[low.bit_length() - 1] & (pair ^ low) else 0
    left = size - 1
    first = cells[0]
    if not first & (first - 1):
        nbr = nbrs[first.bit_length() - 1]
        rest = cells[1:]
        row = 0
        for cell in rest:
            row = (row << cell.bit_count()) | ((1 << (cell & nbr).bit_count()) - 1)
        return (row << left * (left - 1) // 2) | _best(nbrs, _split(nbr, rest), left)
    rest = cells[1:]
    low_row = -1
    ties: list[tuple[int, int]] = []
    pending = first
    while pending:
        bit = pending & -pending
        pending ^= bit
        nbr = nbrs[bit.bit_length() - 1]
        # v's row: its neighbours in the rest of the first cell, then in
        # each later cell, each cell's ones packed after its zeros
        row = (1 << (first & nbr).bit_count()) - 1
        for cell in rest:
            row = (row << cell.bit_count()) | ((1 << (cell & nbr).bit_count()) - 1)
        if low_row < 0 or row < low_row:
            low_row, ties = row, [(bit, nbr)]
        elif row == low_row:
            for other_bit, other in ties:
                if not (nbr ^ other) & ~(bit | other_bit):
                    break  # a twin of a kept candidate: the same best tail
            else:
                ties.append((bit, nbr))
    if len(ties) == 1:  # the common case, about 12% faster without min()
        bit, nbr = ties[0]
        tail = _best(nbrs, _split(nbr, (first ^ bit,) + rest), left)
    else:
        tail = min(_best(nbrs, _split(nbr, (first ^ bit,) + rest), left) for bit, nbr in ties)
    return (low_row << left * (left - 1) // 2) | tail


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
