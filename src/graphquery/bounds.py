"""Shared closed-form query bounds.

Single source for every bound used by tests, learners' run descriptors, and
the CLI, so reports and assertions cannot drift apart.
"""

from __future__ import annotations

from .partitions import stirling_partition_count


def ceil_log2(x: int) -> int:
    if x < 1:
        raise ValueError("ceil_log2 needs a positive integer")
    return (x - 1).bit_length()


def membership_known_count(n: int, k: int) -> int:
    """Worst-case membership queries to learn a k-component partition, k public.

    Tight: the representative learner never exceeds it, and the separability
    adversary forces it. It is also the minimum edge count of a uniquely
    k-colorable graph on n vertices, the edge floor that
    `enumeration.verify_unique_colorable_edge_bound` checks: the paper ties
    the query bound to that floor, so both read this one formula.
    """
    return (k - 1) * n - k * (k - 1) // 2


def membership_unknown_count(n: int, k: int) -> int:
    """Worst case when the component count is hidden: (n - k) more queries."""
    return k * n - k * (k + 1) // 2


def contraction_adversary_lower(n: int, k: int) -> float:
    """Queries forced by the polynomial-time adversary; may be a half-integer."""
    return (n - k) * (k - 1) / 2


def count_components_queries(n: int) -> int:
    """The pooled counter spends exactly one query per vertex."""
    return n


def learn_components_ceiling(n: int, k: int) -> int:
    """Pooled partition learning: each vertex costs 1 + ceil(log2 k) at worst."""
    if n < 1:
        raise ValueError("n must be positive")
    return (n - 1) * (1 + ceil_log2(max(k, 1)))


def find_neighbors_ceiling(ell: int, s: int) -> int:
    """Neighbor search over a set of size s with ell hits inside it."""
    return 2 * ell * (ceil_log2(s) + 1) + 2


def verify_accept_queries(m: int, n_scanned: int) -> int:
    """Queries of an accepting verification: m edge probes + one scan per
    vertex whose candidate non-neighborhood is nonempty."""
    return m + n_scanned


def minimax_known_formula(n: int, k: int) -> int:
    return membership_known_count(n, k)


def minimax_unknown_formula(n: int) -> int:
    return n * (n - 1) // 2


def information_lower(n: int, k: int) -> int:
    """ceil(log2) of the number of k-block partitions of an n-set."""
    count = stirling_partition_count(n, k)
    if count < 1:
        return 0
    return ceil_log2(count)


def information_lower_unknown(n: int) -> int:
    """ceil(log2) of the Bell number B(n): the partitions of an n-set with
    any number of blocks."""
    return ceil_log2(sum(stirling_partition_count(n, k) for k in range(n + 1)))
