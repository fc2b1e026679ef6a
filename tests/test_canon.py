"""The canonical-code kernel against the plain partition search, its tail
table against brute force, its input guards, and the rule that it keeps no
state between calls."""

import random
import types
from itertools import combinations, permutations, product

import numpy as np
import pytest

from graphquery import _canon
from graphquery._canon import canonical_codes, code
from graphquery.graphs import Graph

from conftest import _reference_best, max_degree_levels, reference_code


def test_codes_match_the_reference_on_every_labelled_graph_up_to_six_vertices():
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            nbrs = Graph(n, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)).adjacency_masks()
            assert code(nbrs) == reference_code(nbrs), (n, mask)


def test_codes_match_the_reference_on_every_level_seven_candidate():
    # the candidates of plain max-degree augmentation, more than `_levels`
    # codes with its finer rule
    candidates = next(found for n, found, _ in max_degree_levels(7) if n == 7)
    assert len(candidates) == 1808
    bits = np.arange(7, dtype=np.int64)
    batch = (np.array(candidates, dtype=np.int64)[:, :, None] >> bits & 1).astype(np.uint8)
    assert canonical_codes(batch).tolist() == [reference_code(nbrs) for nbrs in candidates]


@pytest.mark.parametrize("n", [7, 8])
def test_codes_match_the_reference_on_seeded_random_graphs(n):
    rng = random.Random(n)
    pairs = list(combinations(range(n), 2))
    for _ in range(2000):
        density = rng.random()
        nbrs = Graph(n, frozenset(p for p in pairs if rng.random() < density)).adjacency_masks()
        assert code(nbrs) == reference_code(nbrs), nbrs


@pytest.mark.parametrize("n", range(1, 9))
def test_batch_codes_take_bool_uint8_and_int64_matrices(n):
    # the batch reads each row back as a bitmask, whatever 0/1 dtype it holds
    rng = np.random.default_rng(n)
    upper = np.triu(rng.integers(0, 2, size=(50, n, n), dtype=np.uint8), 1)
    adj = upper | upper.transpose(0, 2, 1)
    expected = [code((g.astype(np.int64) @ (1 << np.arange(n))).tolist()) for g in adj]
    for dtype in (bool, np.uint8, np.int64):
        codes = canonical_codes(adj.astype(dtype))
        assert codes.dtype == np.int64 and codes.tolist() == expected, dtype
        empty = canonical_codes(np.zeros((0, n, n), dtype=dtype))
        assert empty.dtype == np.int64 and empty.shape == (0,), dtype


def test_both_entry_points_reject_nine_vertices():
    with pytest.raises(ValueError, match=r"^canonical search supports n <= 8$"):
        code([0] * 9)
    for batch in (1, 0):
        with pytest.raises(ValueError, match=r"^canonical search supports n <= 8$"):
            canonical_codes(np.zeros((batch, 9, 9), dtype=np.uint8))
    assert code([0] * 8) == 0
    complete = np.ones((1, 8, 8), dtype=np.uint8) - np.eye(8, dtype=np.uint8)
    assert canonical_codes(complete).tolist() == [(1 << 28) - 1]


def _module_state():
    return {name: value for name, value in vars(_canon).items()
            if not name.startswith("__") and not isinstance(value, (types.ModuleType, types.FunctionType))}


def test_the_kernel_keeps_no_state_between_calls():
    # a lazy memo would let one benchmark pass reuse what an earlier one
    # paid for; the kernel's only tables are tuples built at import
    state = _module_state()
    assert not [name for name, value in state.items() if isinstance(value, (dict, list, set, bytearray))]
    tables = {name: value for name, value in state.items() if isinstance(value, tuple)}
    assert set(tables) == {"_POPCOUNT", "_ONES", "_MEMBERS", "_TAILS"}
    for name in ("_POPCOUNT", "_ONES", "_MEMBERS"):
        assert len(tables[name]) == 1 << _canon.MAX_N
        assert all(isinstance(entry, (int, tuple)) for entry in tables[name])
    # a key's top bit sits at s(s + 1) / 2 for s open vertices
    assert len(_canon._TAILS) == 1 << _canon.TAIL_N * (_canon.TAIL_N + 1) // 2 + 1 == 2048
    assert all(type(entry) is int for entry in _canon._TAILS)
    for function in vars(_canon).values():
        if isinstance(function, types.FunctionType) and function.__module__ == _canon.__name__:
            assert function.__defaults__ is None and not vars(function), function.__name__
    snapshot = {name: id(value) for name, value in state.items()}
    code([0b110, 0b101, 0b011, 0])
    canonical_codes(np.zeros((2, 5, 5), dtype=np.uint8))
    assert {name: id(value) for name, value in _module_state().items()} == snapshot


def _compositions(size):
    """Every tuple of positive cell sizes that sums to size."""
    if size == 0:
        return [()]
    return [(first, *rest) for first in range(1, size + 1) for rest in _compositions(size - first)]


def test_the_tail_table_is_the_least_code_over_cell_respecting_orders():
    reached = set()
    for size in range(_canon.TAIL_N + 1):
        pairs = list(combinations(range(size), 2))
        for sizes in _compositions(size):
            cell_of = [c for c, width in enumerate(sizes) for _ in range(width)]
            orders = [p for p in permutations(range(size)) if [cell_of[v] for v in p] == cell_of]
            key = 1
            for width in sizes:
                key = key << width | 1
            for bits in range(1 << len(pairs)):
                adjacent = {pair for i, pair in enumerate(pairs) if bits >> len(pairs) - 1 - i & 1}
                least = min(int("".join("1" if tuple(sorted((p[i], p[j]))) in adjacent else "0"
                                        for i, j in pairs) or "0", 2) for p in orders)
                index = key << len(pairs) | bits
                assert _canon._TAILS[index] == least, (sizes, bits)
                reached.add(index)
    # 1 + 1 + 2 * 2 + 4 * 8 + 8 * 64 keys; no other entry is read
    assert len(reached) == 550
    assert not [i for i, entry in enumerate(_canon._TAILS) if entry and i not in reached]


def test_ordered_cells_match_the_reference_on_every_labelled_graph_up_to_five_vertices():
    # an ordered partition as the initial state: the least code over the
    # orders that list its cells in order, which the tail table reads
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        partitions = []
        for cells in range(1, 4):
            for label in product(range(cells), repeat=n):
                if len(set(label)) == cells:
                    partitions.append(tuple(sum(1 << v for v in range(n) if label[v] == c)
                                            for c in range(cells)))
        for mask in range(1 << len(pairs)):
            nbrs = Graph(n, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)).adjacency_masks()
            for cells in partitions:
                assert _canon._best(nbrs, list(cells), n, -1) == _reference_best(nbrs, cells, n), (nbrs, cells)


@pytest.mark.parametrize("shape", [(2, 3), (2, 3, 4), (3,)])
def test_batch_codes_reject_what_is_not_a_batch_of_square_matrices(shape):
    with pytest.raises(ValueError, match=r"^expected a \(batch, n, n\) adjacency array$"):
        canonical_codes(np.zeros(shape, dtype=np.int64))


@pytest.mark.parametrize("bad", [
    [[0, 1, 0], [0, 0, 1], [0, 0, 0]],  # not symmetric
    [[1, 1], [1, 0]],  # a self-loop
    [[0, 2], [2, 0]],  # not 0/1
    [[0, -1], [-1, 0]],
])
def test_batch_codes_reject_what_is_not_a_simple_graph(bad):
    good = np.zeros((1, len(bad), len(bad)), dtype=np.int64)
    with pytest.raises(ValueError, match=r"^expected symmetric 0/1 adjacency matrices with a zero diagonal$"):
        canonical_codes(np.concatenate([good, np.array([bad])]))
