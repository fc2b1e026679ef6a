"""Seeded instance generators for experiments and tests."""

from __future__ import annotations

import random

from .graphs import Graph, clique_union_graph, complete_graph, empty_graph
from .partitions import Partition, stirling_partition_count

# kind -> the settings it reads; generate_instance needs each of them and
# rejects any other, which it would otherwise ignore
KIND_SETTINGS = {
    "worst-case-prop1": ("k",),
    "random-partition": ("k", "seed"),
    "random-graph": ("m", "seed"),
    "edgeless": (),
    "clique": (),
}
KINDS = tuple(KIND_SETTINGS)


def worst_case_graph(n: int, k: int) -> Graph:
    """k-1 isolated vertices 0..k-2 plus one clique on the rest.

    This is the instance on which the representative learner hits its exact
    worst case when vertices are processed in ascending order.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    clique = list(range(k - 1, n))
    return clique_union_graph([clique], n)


def _completions(n: int, k: int) -> list[list[int]]:
    """table[r][o]: ways to place r labeled elements onto o existing blocks
    so that exactly k blocks exist at the end, for r <= n and o <= k."""
    table = [[int(o == k) for o in range(k + 1)]]
    for _ in range(n):
        prev = table[-1]
        table.append([o * prev[o] + (prev[o + 1] if o < k else 0) for o in range(k + 1)])
    return table


def random_partition_exactly(n: int, k: int, rng: random.Random) -> Partition:
    """Uniform random partition of {0..n-1} into exactly k blocks.

    Integer-exact sampling: element placements are drawn proportional to the
    count of completions, so no float rounding skews the distribution.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    table = _completions(n, k)
    assert table[n][0] == stirling_partition_count(n, k)
    blocks: list[list[int]] = []
    for v in range(n):
        # a new block weighs `new`, joining each existing block weighs `join`
        completions = table[n - v - 1]
        new = completions[len(blocks) + 1] if len(blocks) < k else 0
        join = completions[len(blocks)]
        draw = rng.randrange(new + join * len(blocks))
        if draw < new:
            blocks.append([v])
        else:
            blocks[(draw - new) // join].append(v)
    return Partition.from_blocks(blocks)


def random_partition_graph(n: int, k: int, seed: int) -> Graph:
    """Disjoint cliques realizing a uniform random k-block partition."""
    rng = random.Random(seed)
    partition = random_partition_exactly(n, k, rng)
    return clique_union_graph(partition.blocks, n)


def random_edge_graph(n: int, m: int, seed: int) -> Graph:
    """Uniform graph with exactly m edges."""
    top = n * (n - 1) // 2
    if not 0 <= m <= top:
        raise ValueError(f"need 0 <= m <= {top} for n={n}")
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, frozenset(rng.sample(pairs, m)))


def generate_instance(kind: str, n: int, k: int | None = None, m: int | None = None,
                      seed: int | None = None) -> Graph:
    """Build a hidden graph of the given kind; seeds make output deterministic."""
    if kind not in KINDS:
        raise ValueError(f"unknown instance kind {kind!r}; choose from {KINDS}")
    given = {"k": k, "m": m, "seed": seed}
    ignored = [name for name, value in given.items() if value is not None and name not in KIND_SETTINGS[kind]]
    if ignored:
        raise ValueError(f"{kind} takes no {', '.join(ignored)}")
    if any(given[name] is None for name in KIND_SETTINGS[kind]):
        raise ValueError(f"{kind} needs {' and '.join(KIND_SETTINGS[kind])}")
    if kind == "worst-case-prop1":
        return worst_case_graph(n, k)
    if kind == "random-partition":
        return random_partition_graph(n, k, seed)
    if kind == "random-graph":
        return random_edge_graph(n, m, seed)
    if kind == "edgeless":
        return empty_graph(n)
    return complete_graph(n)


def worst_case_order(partition: Partition) -> list[int]:
    """Adversarial processing order: smallest components first.

    Ties break by the component's smallest label, then by label.
    """
    ranks = [(m.bit_count(), m & -m) for m in map(partition.block_mask, range(partition.n))]
    return sorted(range(partition.n), key=ranks.__getitem__)  # stable: ties stay by label
