import json
import re
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import example, given, strategies as st

from graphquery.coloring import _search_colorings, proper_partitions
from graphquery.partitions import Partition, stirling_partition_count

from conftest import is_refinement, partitions_with_exactly


def brute_force_partitions(n):
    """Every partition of 0..n-1, via raw block-label assignments."""
    found = set()
    for assign in product(range(n), repeat=n):
        blocks = {}
        for v, c in enumerate(assign):
            blocks.setdefault(c, []).append(v)
        found.add(Partition.from_blocks(blocks.values()))
    return found


def test_canonical_form():
    p = Partition.from_blocks([[5], [4, 3], [2, 0, 1]])
    assert p.blocks == ((0, 1, 2), (3, 4), (5,))
    assert p.k == 3 and p.n == 6
    assert p.same_block(0, 2) and not p.same_block(2, 3)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition.from_blocks([[0, 1], [1, 2]])  # overlap
    with pytest.raises(ValueError):
        Partition.from_blocks([[0], [2]])  # gap
    with pytest.raises(ValueError):
        Partition.from_blocks([[0], []])  # empty block
    # the raw constructor takes canonical form only
    for blocks, message in [
        (((0, 2, 1), (3,)), "blocks must be sorted; use from_blocks()"),
        (((1,), (0, 2)), "blocks must be ordered by smallest element; use from_blocks()"),
        (((0, 1, 1), (2,)), "vertex 1 appears twice"),
        (((0, 2), (1, 2)), "vertex 2 appears twice"),
        (((-1, 0), (1,)), "blocks must cover 0..n-1 exactly"),
        (((0, 1), (3,)), "blocks must cover 0..n-1 exactly"),
        (((0,), ()), "empty block"),
        (((0, 1 << 62, 2), (1,)), "blocks must be sorted; use from_blocks()"),
        (((0, 1 << 62),), "blocks must cover 0..n-1 exactly"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Partition(blocks)
    assert Partition(((0, 2), (1, 3), (4,))).n == 5


def test_partition_json_round_trip():
    p = Partition.from_blocks([[0, 2], [1]])
    assert p.to_json() == "[[0, 2], [1]]"
    assert Partition.from_blocks(json.loads(p.to_json())) == p


def test_refinement_basics():
    singles = Partition.from_blocks([[0], [1], [2]])
    pair = Partition.from_blocks([[0, 1], [2]])
    other = Partition.from_blocks([[0, 2], [1]])
    assert is_refinement(singles, pair)
    assert not is_refinement(pair, other)
    assert is_refinement(pair, pair)
    assert not is_refinement(pair, singles)


def test_refinement_rejects_mismatched_sets():
    with pytest.raises(ValueError):
        is_refinement(Partition.from_labels(range(3)), Partition.from_labels(range(4)))


def test_stirling_small_values():
    # frozen from the brute-force enumerator below
    assert stirling_partition_count(3, 2) == 3
    assert stirling_partition_count(4, 2) == 7
    assert stirling_partition_count(0, 0) == 1
    assert stirling_partition_count(5, 0) == 0
    assert stirling_partition_count(2, 5) == 0
    for n in range(1, 8):
        assert stirling_partition_count(n, 1) == 1


def test_stirling_matches_enumeration():
    for n in range(1, 7):
        by_k = {}
        for p in brute_force_partitions(n):
            by_k[p.k] = by_k.get(p.k, 0) + 1
        for k in range(1, n + 1):
            assert stirling_partition_count(n, k) == by_k.get(k, 0)


def test_stirling_recurrence():
    for n in range(1, 13):
        for k in range(1, 13):
            assert stirling_partition_count(n, k) == (
                k * stirling_partition_count(n - 1, k)
                + stirling_partition_count(n - 1, k - 1)
            )


def test_stirling_matches_the_explicit_sum():
    # k! S(n, k) = sum_j (-1)^j C(k, j) (k - j)^n, with 0^0 = 1
    for n in range(31):
        for k in range(n + 3):
            alternating = sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))
            assert factorial(k) * stirling_partition_count(n, k) == alternating, (n, k)


def test_stirling_rejects_negative():
    with pytest.raises(ValueError):
        stirling_partition_count(-1, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_enumerators_complete_and_distinct(n):
    everything = proper_partitions([0] * n, n)
    assert len(everything) == len(set(everything))
    assert set(everything) == brute_force_partitions(n)
    # restricted growth strings: each label at most one above the labels before it
    growth = [
        labels for labels in product(range(n), repeat=n)
        if all(labels[v] <= max(labels[:v], default=-1) + 1 for v in range(n))
    ]
    for k in range(1, n + 1):
        exact = list(partitions_with_exactly(n, k))
        assert len(exact) == stirling_partition_count(n, k)
        at_most = list(_search_colorings([0] * n, k))
        assert len(at_most) == sum(stirling_partition_count(n, j) for j in range(1, k + 1))
        # the alpha_m minimax game indexes its candidates in this order
        assert at_most == sorted(tuple(c + 1 for c in s) for s in growth if max(s) < k)


@given(st.integers(1, 6), st.data())
def test_refinement_reflexive_property(n, data):
    parts = proper_partitions([0] * n, n)
    p = data.draw(st.sampled_from(parts))
    assert is_refinement(p, p)
    assert is_refinement(Partition.from_labels(range(n)), p)
    assert is_refinement(p, Partition.from_blocks([range(n)]))


@given(st.lists(st.integers(-3, 3), max_size=9))
@example([3, 1, 3, 2])
@example([])
def test_from_labels_groups_equal_labels(labels):
    # any labels, not only restricted growth strings
    blocks: dict[int, list[int]] = {}
    for v, label in enumerate(labels):
        blocks.setdefault(label, []).append(v)
    assert Partition.from_labels(labels) == Partition.from_blocks(blocks.values())
