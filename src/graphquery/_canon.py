"""Canonical adjacency codes: the kernel behind isomorphism-free enumeration.

A graph's canonical code is the minimum, over all vertex orderings, of its
upper-triangle adjacency bits packed row-major into an integer (most
significant bit first). Two graphs are isomorphic iff their codes match.

The minimum is found by a search over ordered partitions instead of a scan
of all n! orderings. A state is a list of cell bitmasks holding the
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
state, so a memo would be nearly pure overhead.

Tables. Every mask has at most MAX_N = 8 bits, so the per-cell work reads
tuples built at import, indexed by mask: its popcount, (1 << popcount) - 1
(a cell's row segment: v's neighbours in it packed after its
non-neighbours) and its vertices in ascending order. A row costs one
shift, one or and two lookups per cell. Both entry points reject n > MAX_N
before any lookup. Nothing is cached between calls.

One loop. `_best` places one vertex per pass of a loop and recurses only
where several candidates tie. A first cell with one vertex, or a single
tied candidate, continues the loop with the split cells; the last two open
vertices add their adjacency bit directly.

Twin pruning. Two tied candidates u, v of the first cell are twins when
N(u) minus v equals N(v) minus u. They lie in one cell, so they already
agree on the placed vertices, and comparing their whole neighbour masks
less u and v tests the open ones. The transposition (u v) is then an
automorphism of the graph. It fixes every placed vertex and every cell,
and it maps the state after placing u onto the state after placing v.
Automorphic states have the same best tail, so only one candidate per
twin class is searched. Twins have equal rows, so the test only runs
among the candidates that tie on the smallest row.

The bound. Each tied branch after the first gets the best tail found so
far. A row is compared with the bound's matching bits: a larger row
abandons the branch, since no tail under it can win; a smaller row drops
the bound, since the branch now wins whatever follows; an equal row keeps
the rest of the bound for the next row. An abandoned branch returns a
value above its bound; a branch whose tied children are all abandoned
returns at least its bound. Either way the caller keeps the tail it
already has, so the minimum is still exact.
"""

from __future__ import annotations

import numpy as np

MAX_N = 8

_POPCOUNT = tuple(mask.bit_count() for mask in range(1 << MAX_N))
_ONES = tuple((1 << mask.bit_count()) - 1 for mask in range(1 << MAX_N))
_MEMBERS = tuple(
    tuple(v for v in range(MAX_N) if mask >> v & 1) for mask in range(1 << MAX_N)
)


def _check_size(n: int) -> None:
    if n > MAX_N:
        raise ValueError(f"canonical search supports n <= {MAX_N}")


def code(nbrs: list[int] | tuple[int, ...]) -> int:
    """Canonical code of the graph whose vertex v has neighbour bitmask nbrs[v]."""
    n = len(nbrs)
    _check_size(n)
    return _best(nbrs, [(1 << n) - 1], n, -1)


def _best(nbrs, cells: list[int], size: int, bound: int) -> int:
    """Minimum code of the rows of the `size` vertices still open in `cells`.

    With bound >= 0 the result is exact only when the minimum is at most
    the bound; otherwise it is some value at least the bound.
    """
    popcount = _POPCOUNT
    ones_of = _ONES
    out = 0
    while size > 2:
        left = size - 1
        first = cells[0]
        low_row = 1 << left  # above every row of `left` bits
        for v in _MEMBERS[first]:
            nbr = nbrs[v]
            # v's row: its neighbours in the rest of the first cell, then
            # in each later cell (v itself adds a leading zero bit only)
            row = 0
            for cell in cells:
                row = row << popcount[cell] | ones_of[cell & nbr]
            if row < low_row:
                low_row = row
                ties = [v]
            elif row == low_row:
                for u in ties:
                    if not (nbr ^ nbrs[u]) & ~(1 << u | 1 << v):
                        break  # a twin of a kept candidate: the same best tail
                else:
                    ties.append(v)
        row = low_row
        shift = left * (left - 1) >> 1  # bits of the rows after this one
        if bound >= 0:
            top = bound >> shift
            if row != top:
                if row > top:
                    return (out << left | row) << shift
                bound = -1
            else:
                bound ^= top << shift
        out = out << left | row
        branch = len(ties) > 1
        best = bound
        for v in ties:
            nbr = nbrs[v]
            bit = 1 << v
            split = []
            for cell in cells:
                ones = cell & nbr
                if ones != cell:
                    split.append(cell ^ ones)
                if ones:
                    split.append(ones)
            # v is no neighbour of itself: it is in split[0], the first
            # cell's non-neighbours, which it leaves
            if split[0] == bit:
                del split[0]
            else:
                split[0] ^= bit
            if branch:
                tail = _best(nbrs, split, left, best)
                if best < 0 or tail < best:
                    best = tail
        if branch:
            return out << shift | best
        cells = split
        size = left
    if size < 2:
        return out
    u, w = _MEMBERS[cells[0] | cells[-1]]
    return out << 1 | nbrs[u] >> w & 1


def canonical_codes(adj: np.ndarray) -> np.ndarray:
    """Canonical codes for a batch of symmetric 0/1 adjacency matrices, shape (B, n, n)."""
    if adj.ndim != 3 or adj.shape[1] != adj.shape[2]:
        raise ValueError("expected a (batch, n, n) adjacency array")
    n = adj.shape[1]
    _check_size(n)
    if adj.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    # one neighbour bitmask per vertex: bit j of masks[b, v] is adj[b, v, j]
    masks = np.asarray(adj, dtype=np.int64) @ (np.int64(1) << np.arange(n, dtype=np.int64))
    everyone = (1 << n) - 1
    return np.array([_best(nbrs, [everyone], n, -1) for nbrs in masks.tolist()], dtype=np.int64)
