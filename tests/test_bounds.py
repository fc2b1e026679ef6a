import math
from collections import Counter

import pytest

from graphquery import bounds
from graphquery.partitions import stirling_partition_count


def _partition_counts(n: int) -> Counter:
    """Partitions of 0..n-1 by block count, each one visited: vertex v joins
    one of the blocks opened so far or opens a new one."""
    counts: Counter = Counter()

    def place(v: int, blocks: int) -> None:
        if v == n:
            counts[blocks] += 1
            return
        for _ in range(blocks):
            place(v + 1, blocks)
        place(v + 1, blocks + 1)

    place(0, 0)
    return counts


@pytest.mark.parametrize("n", range(1, 9))
def test_information_lower_is_log2_of_the_partition_count(n):
    counts = _partition_counts(n)
    assert [bounds.information_lower(n, k) for k in range(1, n + 1)] == [
        math.ceil(math.log2(counts[k])) for k in range(1, n + 1)
    ]


def test_information_lower_unknown_is_log2_of_the_bell_number():
    expected = (0, 1, 3, 4, 6, 8, 10, 13, 15, 17)
    assert tuple(bounds.information_lower_unknown(n) for n in range(1, 11)) == expected
    bell = [sum(_partition_counts(n).values()) for n in range(1, 11)]
    assert bell[:6] == [1, 2, 5, 15, 52, 203]
    assert tuple(math.ceil(math.log2(b)) for b in bell) == expected


def test_bell_triangle_matches_the_stirling_sum():
    assert [bounds._bell(n) for n in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]
    for n in range(61):
        bell = sum(stirling_partition_count(n, k) for k in range(n + 1))
        assert bounds._bell(n) == bell
        assert bounds.information_lower_unknown(n) == bounds.ceil_log2(bell)
    # a negative n has no partitions, and ceil_log2 refuses the 0
    with pytest.raises(ValueError, match="^ceil_log2 needs a positive integer$"):
        bounds.information_lower_unknown(-1)


def test_bounds_reject_an_empty_input():
    with pytest.raises(ValueError, match="^ceil_log2 needs a positive integer$"):
        bounds.ceil_log2(0)
    with pytest.raises(ValueError, match="^n must be positive$"):
        bounds.learn_components_ceiling(0, 1)
