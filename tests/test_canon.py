"""The canonical-code kernel against the plain partition search, its size
guard, and the rule that it keeps no state between calls."""

import random
import types
from itertools import combinations

import numpy as np
import pytest

from graphquery import _canon
from graphquery._canon import canonical_codes, code
from graphquery.graphs import Graph

from conftest import max_degree_levels, reference_code


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
    assert set(tables) == {"_POPCOUNT", "_ONES", "_MEMBERS"}
    for table in tables.values():
        assert len(table) == 1 << _canon.MAX_N
        assert all(isinstance(entry, (int, tuple)) for entry in table)
    for function in vars(_canon).values():
        if isinstance(function, types.FunctionType) and function.__module__ == _canon.__name__:
            assert function.__defaults__ is None and not vars(function), function.__name__
    snapshot = {name: id(value) for name, value in state.items()}
    code([0b110, 0b101, 0b011, 0])
    canonical_codes(np.zeros((2, 5, 5), dtype=np.uint8))
    assert {name: id(value) for name, value in _module_state().items()} == snapshot
