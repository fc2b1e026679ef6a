import hashlib
import inspect
import random
from collections import Counter

import pytest

from graphquery.graphs import connected_components
from graphquery.instances import (
    KIND_SETTINGS,
    KINDS,
    generate_instance,
    random_partition_exactly,
    worst_case_graph,
    worst_case_order,
)
from graphquery.partitions import Partition, stirling_partition_count


def test_worst_case_structure():
    g = worst_case_graph(6, 3)
    assert connected_components(g) == Partition.from_blocks([[0], [1], [2, 3, 4, 5]])
    assert g.m == 6  # a 4-clique


def test_worst_case_edge_cases():
    assert worst_case_graph(4, 1).m == 6  # all one clique
    assert worst_case_graph(4, 4).m == 0  # all isolated
    with pytest.raises(ValueError):
        worst_case_graph(3, 4)
    for k in (0, 4):
        with pytest.raises(ValueError, match=f"^need 1 <= k <= n, got k={k}, n=3$"):
            random_partition_exactly(3, k, random.Random(0))


def test_generate_instance_kinds():
    assert generate_instance("edgeless", 5).m == 0
    assert generate_instance("clique", 5).m == 10
    g = generate_instance("random-graph", 8, m=9, seed=3)
    assert g.n == 8 and g.m == 9
    p = generate_instance("random-partition", 8, k=3, seed=7)
    assert connected_components(p).k == 3
    with pytest.raises(ValueError):
        generate_instance("nope", 5)
    with pytest.raises(ValueError):
        generate_instance("random-graph", 4, m=99, seed=0)
    with pytest.raises(ValueError):
        generate_instance("random-partition", 4, k=2)  # seed required


@pytest.mark.parametrize("kind, settings, ignored", [
    ("edgeless", {"k": 2}, "k"),
    ("clique", {"k": 2}, "k"),
    ("random-graph", {"k": 2, "m": 3, "seed": 1}, "k"),
    ("edgeless", {"m": 3}, "m"),
    ("worst-case-prop1", {"k": 2, "m": 3}, "m"),
    ("random-partition", {"k": 2, "m": 3, "seed": 1}, "m"),
    ("edgeless", {"seed": 5}, "seed"),
    ("clique", {"seed": 5}, "seed"),
    ("worst-case-prop1", {"k": 2, "seed": 5}, "seed"),
])
def test_generate_instance_rejects_settings_it_would_ignore(kind, settings, ignored):
    with pytest.raises(ValueError, match=f"{kind} takes no {ignored}$"):
        generate_instance(kind, 5, **settings)


@pytest.mark.parametrize("kind", KINDS)
def test_each_kind_reads_its_builders_settings(kind):
    # generate_instance passes exactly the row's settings to the builder, so
    # a row must name the builder's parameters after n, in order
    build, settings = KIND_SETTINGS[kind]
    assert tuple(inspect.signature(build).parameters)[1:] == settings


def test_generators_are_deterministic():
    a = generate_instance("random-partition", 8, k=3, seed=7)
    b = generate_instance("random-partition", 8, k=3, seed=7)
    assert a == b
    c = generate_instance("random-graph", 10, m=12, seed=41)
    d = generate_instance("random-graph", 10, m=12, seed=41)
    assert c == d


def test_random_partition_block_count_always_exact():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 12)
        k = rng.randint(1, n)
        assert random_partition_exactly(n, k, rng).k == k


def test_random_partition_is_uniform_on_small_case():
    # n=4, k=2 has 7 equally likely partitions
    rng = random.Random(123)
    counts = Counter(random_partition_exactly(4, 2, rng) for _ in range(7000))
    assert len(counts) == stirling_partition_count(4, 2) == 7
    for seen in counts.values():
        assert 800 < seen < 1200


def test_worst_case_order_smallest_components_first():
    g = worst_case_graph(6, 3)
    order = worst_case_order(connected_components(g))
    assert order == [0, 1, 2, 3, 4, 5]
    p = Partition.from_blocks([[0, 1, 2], [3], [4, 5]])
    assert worst_case_order(p) == [3, 4, 5, 0, 1, 2]


def test_random_partition_at_large_n():
    g = generate_instance("random-partition", 2000, k=5, seed=1)
    assert connected_components(g).k == 5


def test_random_partition_seeded_value_is_frozen():
    p = random_partition_exactly(10, 3, random.Random(5))
    assert p.blocks == ((0, 8, 9), (1, 2, 4, 6), (3, 5, 7))


def test_random_partition_draws_are_pinned():
    # SHA-256 over every output for n <= 12, every k and seeds 0-4, each
    # followed by the generator's next 32 bits, so the number of draws is
    # pinned as well as the blocks
    digest = hashlib.sha256()
    for n in range(1, 13):
        for k in range(1, n + 1):
            for seed in range(5):
                rng = random.Random(seed)
                blocks = random_partition_exactly(n, k, rng).blocks
                digest.update(f"{n},{k},{seed}:{blocks}|{rng.getrandbits(32)}\n".encode())
    assert digest.hexdigest() == "26bc7edd2b2d04be923fc25dda157911ecbac075f0fcae38d2e51f4e08bed517"


def test_generate_instance_outputs_are_pinned():
    # SHA-256 over the sorted edges, or the error message, of every kind at
    # every n <= 12, k in {None, 1..n}, m in {None, 0, n // 2} and seed in
    # {None, 0..4}: the checks and the builder each kind reaches are pinned
    digest = hashlib.sha256()
    for kind in KINDS:
        for n in range(13):
            for k in (None, *range(1, n + 1)):
                for m in (None, 0, n // 2):
                    for seed in (None, *range(5)):
                        try:
                            out = generate_instance(kind, n, k=k, m=m, seed=seed).sorted_edges()
                        except ValueError as exc:
                            out = f"ValueError: {exc}"
                        digest.update(f"{kind},{n},{k},{m},{seed}:{out}\n".encode())
    assert digest.hexdigest() == "0550873983d045c21b7119f335fb6476f5048906b0d66406b8db6655c3de84e9"
