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
state, so a memo would be pure overhead.

Tables. Every mask has at most MAX_N = 8 bits, so the per-cell work reads
tuples built at import, indexed by mask: its popcount, (1 << popcount) - 1
(a cell's row segment: v's neighbours in it packed after its
non-neighbours) and its vertices in ascending order. A row costs one
shift, one or and two lookups per cell. Both entry points reject n > MAX_N
before any lookup. Nothing is cached between calls.

The tail table. Each placed vertex split every cell into its neighbours
and non-neighbours, so each open cell is wholly adjacent or wholly
non-adjacent to each placed vertex: reordering the open vertices within
their cells changes no placed row. The least tail thus depends only on the
cell sizes, in order, and on the graph the open vertices induce. Once at
most TAIL_N = 4 vertices are open, `_TAILS`, a tuple built at import, is
read at a key holding both: it starts at 1 and takes `key << size | 1` for
each cell, then one bit per pair of open vertices listed in cell order
(ascending within a cell), row-major. Its entry is the least code over the
orderings that keep the cells in order, by brute force over those
orderings: 47 for four vertices, over the 8 ways to cut them into cells,
times 64 adjacency patterns.

One loop. `_best` places one vertex per pass of a loop while more than
four vertices are open, and recurses only where several candidates tie. A
first cell with one vertex, or a single tied candidate, continues the loop
with the split cells. A graph on at most four vertices is one lookup.

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

from itertools import chain, combinations, permutations, product

import numpy as np

MAX_N = 8
# the table reads the last TAIL_N open vertices in one lookup
TAIL_N = 4

_POPCOUNT = tuple(mask.bit_count() for mask in range(1 << MAX_N))
_ONES = tuple((1 << mask.bit_count()) - 1 for mask in range(1 << MAX_N))
_MEMBERS = tuple(
    tuple(v for v in range(MAX_N) if mask >> v & 1) for mask in range(1 << MAX_N)
)


def _tail_table() -> tuple[int, ...]:
    """`_TAILS`, keyed as the module docstring says. A key's top bit sits at
    s(s + 1) / 2 for s open vertices, so no two sizes share a key; unused
    keys hold 0."""
    table = [0] * (1 << TAIL_N * (TAIL_N + 1) // 2 + 1)
    for size in range(TAIL_N + 1):
        pairs = list(combinations(range(size), 2))
        image_of = {}  # a pair of positions -> its bit in the code
        for bit, (i, j) in enumerate(reversed(pairs)):
            image_of[i, j] = image_of[j, i] = 1 << bit
        # the cells: one ends after position i where bit i of `cuts` is set
        for cuts in range(1 << max(size - 1, 0)):
            ends = [i + 1 for i in range(size - 1) if cuts >> i & 1] + [size]
            blocks = [range(start, end) for start, end in zip([0, *ends], ends)]
            key = 1
            for block in blocks:
                key = key << len(block) | 1
            codes_of_orders = []
            for parts in product(*map(permutations, blocks)):
                # listed vertex v goes to position at[v]
                at = {v: p for p, v in enumerate(chain.from_iterable(parts))}
                codes = [0]  # codes[bits]: this order's code of the key bits `bits`
                for i, j in reversed(pairs):
                    image = image_of[at[i], at[j]]
                    codes += [c | image for c in codes]
                codes_of_orders.append(codes)
            base = key << len(pairs)
            table[base:base + (1 << len(pairs))] = map(min, zip(*codes_of_orders))
    return tuple(table)


_TAILS = _tail_table()


def _check_size(n: int) -> None:
    if n > MAX_N:
        raise ValueError(f"canonical search supports n <= {MAX_N}")


def code(nbrs: list[int] | tuple[int, ...]) -> int:
    """Canonical code of the graph whose vertex v has neighbour bitmask nbrs[v].

    The graph must be simple: u in nbrs[v] exactly when v in nbrs[u], no v in
    nbrs[v], and no bit at or above len(nbrs). Other input is not checked and
    gives a meaningless code.
    """
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
    while size > TAIL_N:
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
    # the tail, one lookup: the cell sizes, then the adjacency bits of the
    # open vertices listed in cell order, row-major
    key = 1
    order = ()
    for cell in cells:
        key = key << popcount[cell] | 1
        order += _MEMBERS[cell]
    if size == TAIL_N:  # where every search of four or more vertices ends
        a, b, c, d = order
        na = nbrs[a]
        nb = nbrs[b]
        key = ((((((key << 1 | na >> b & 1) << 1 | na >> c & 1) << 1 | na >> d & 1) << 1
                | nb >> c & 1) << 1 | nb >> d & 1) << 1 | nbrs[c] >> d & 1)
    else:
        for i, v in enumerate(order, 1):
            nbr = nbrs[v]
            for w in order[i:]:
                key = key << 1 | nbr >> w & 1
    return out << (size * (size - 1) >> 1) | _TAILS[key]


def canonical_codes(adj: np.ndarray) -> np.ndarray:
    """Canonical codes for a batch of symmetric 0/1 adjacency matrices with a
    zero diagonal, shape (B, n, n), of bool or any integer dtype."""
    if adj.ndim != 3 or adj.shape[1] != adj.shape[2]:
        raise ValueError("expected a (batch, n, n) adjacency array")
    n = adj.shape[1]
    _check_size(n)
    if adj.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    if not (np.array_equal(adj, adj.transpose(0, 2, 1)) and adj.min() >= 0 and adj.max() <= 1
            and not adj.diagonal(axis1=1, axis2=2).any()):
        raise ValueError("expected symmetric 0/1 adjacency matrices with a zero diagonal")
    # one neighbour bitmask per vertex: bit j of masks[b, v] is adj[b, v, j];
    # n <= 8 bits pack into one byte per row
    masks = np.packbits(adj, axis=2, bitorder="little").reshape(adj.shape[0], n)
    everyone = (1 << n) - 1
    return np.array([_best(nbrs, [everyone], n, -1) for nbrs in masks.tolist()], dtype=np.int64)
