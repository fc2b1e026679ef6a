"""Seeded instance generators for experiments and tests.

Each kind is one row of `KIND_SETTINGS`: its builder and the settings the
builder takes after n. S(n, k) and its table live in `partitions`.
"""

from __future__ import annotations

import random

from .graphs import Graph, clique_union_graph, complete_graph, empty_graph
from .partitions import Partition, _completions


def worst_case_graph(n: int, k: int) -> Graph:
    """k-1 isolated vertices 0..k-2 plus one clique on the rest.

    This is the instance on which the representative learner hits its exact
    worst case when vertices are processed in ascending order.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    clique = list(range(k - 1, n))
    return clique_union_graph([clique], n)


def random_partition_exactly(n: int, k: int, rng: random.Random) -> Partition:
    """Uniform random partition of {0..n-1} into exactly k blocks.

    Integer-exact sampling: element placements are drawn proportional to the
    count of completions, so no float rounding skews the distribution.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    table = _completions(n, k)
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


# kind -> (builder, its parameters after n): generate_instance needs each
# of these settings and rejects any other, which it would otherwise ignore
KIND_SETTINGS = {
    "worst-case-prop1": (worst_case_graph, ("k",)),
    "random-partition": (random_partition_graph, ("k", "seed")),
    "random-graph": (random_edge_graph, ("m", "seed")),
    "edgeless": (empty_graph, ()),
    "clique": (complete_graph, ()),
}
KINDS = tuple(KIND_SETTINGS)


def generate_instance(kind: str, n: int, k: int | None = None, m: int | None = None,
                      seed: int | None = None) -> Graph:
    """Build a hidden graph of the given kind; seeds make output deterministic."""
    if kind not in KINDS:
        raise ValueError(f"unknown instance kind {kind!r}; choose from {KINDS}")
    given = {"k": k, "m": m, "seed": seed}
    build, settings = KIND_SETTINGS[kind]
    ignored = [name for name, value in given.items() if value is not None and name not in settings]
    if ignored:
        raise ValueError(f"{kind} takes no {', '.join(ignored)}")
    if any(given[name] is None for name in settings):
        raise ValueError(f"{kind} needs {' and '.join(settings)}")
    return build(n, **{name: given[name] for name in settings})


def worst_case_order(partition: Partition) -> list[int]:
    """Adversarial processing order: smallest components first.

    Ties break by the component's smallest label, then by label.
    """
    ranks = [(m.bit_count(), m & -m) for m in map(partition.block_mask, range(partition.n))]
    return sorted(range(partition.n), key=ranks.__getitem__)  # stable: ties stay by label
