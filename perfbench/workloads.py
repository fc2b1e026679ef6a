"""Seeded inputs, operations and exact-output gates of the four workloads.

Every operation calls graphquery through its public modules, looking each
entry point up on its module at call time, so that the tracer in spans.py
can wrap it at that import site. An operation checks its own outputs and
raises GateMismatch when any exact value differs from the known one; it
returns the number of oracle or adversary answers (ledger entries) it used.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import speed
from graphquery import adversaries, bounds, duel, enumeration, graphs, instances, learners, ledger, minimax, oracles

try:
    from graphquery import _canon
except ImportError:  # a version without this kernel module: no tables to drop, no batch to time
    _canon = None

# Isomorphism classes and uniquely 3-colorable classes on n = 1..7 vertices.
UKC_CLASSES = (1, 2, 4, 11, 34, 156, 1044)
UKC_UNIQUE = (1, 1, 1, 1, 3, 12, 72)

# Exact pooled-query (alpha_m) minimax values, keyed by (n, k).
ALPHA_M_VALUES = {
    (1, 1): 0, (2, 1): 0, (2, 2): 1, (3, 1): 0, (3, 2): 2, (3, 3): 3,
    (4, 1): 0, (4, 2): 3, (4, 3): 4, (4, 4): 4, (5, 1): 0, (5, 2): 4,
    (5, 3): 6, (5, 4): 6, (5, 5): 6,
}

# The ascending-order duel grid of query-throughput: (learner, adversary).
GRID_PAIRINGS = (
    ("reps-known", "separability"),
    ("all-pairs", "separability"),
    ("reps-known", "contraction"),
    ("all-pairs", "contraction"),
    ("reps-unknown", "unknown-count"),
)

# adversary-search: (variant, n range, k range), each cell run on
# ORDERS_PER_CELL shuffled orders drawn from --seed. The ranges stop where
# one shuffled order can cost tenths of a second, so that a run's figures do
# not hinge on a few draws; the many orders steady the median latency.
SEARCH_CELLS = (
    ("separability", range(8, 15), range(2, 5)),
    ("unknown-count", range(7, 11), range(2, 6)),
    ("contraction", range(8, 14), range(2, 5)),
)
ORDERS_PER_CELL = 48
# (variant, n, k, s): cells on the order random.Random(s).shuffle(range(n)),
# fixed so that every run meets them. On the seed this one is the failure
# frontier: its declare audit exhausts the 5M-node budget.
PINNED_CELLS = (("contraction", 21, 3, 1),)

ADVERSARIES = {
    "separability": adversaries.SeparabilityAdversary,
    "unknown-count": adversaries.UnknownCountAdversary,
    "contraction": adversaries.ContractionAdversary,
}


class GateMismatch(Exception):
    """An operation produced a value that differs from the known exact one."""


@dataclass(frozen=True)
class Op:
    name: str
    kind: str
    run: Callable[[], int]


@dataclass(frozen=True)
class Workload:
    build: Callable[..., list[Op]]
    # the speed probe that times its plain passes: one whose code slows down
    # the way the workload's does (see speed.py)
    probe: speed.Probe


def check(what: str, got, want) -> None:
    if got != want:
        raise GateMismatch(f"{what}: got {got!r}, expected {want!r}")


def check_at_least(what: str, got, floor) -> None:
    if not got >= floor:
        raise GateMismatch(f"{what}: got {got!r}, expected at least {floor!r}")


def check_at_most(what: str, got, ceiling) -> None:
    if not got <= ceiling:
        raise GateMismatch(f"{what}: got {got!r}, expected at most {ceiling!r}")


# ----------------------------------------------------------------- ukc-enumeration


def _drop_lazy_tables() -> None:
    # Every CLI run builds the kernel's permutation tables once; dropping them
    # keeps that cost inside each operation rather than only the first.
    for name in ("_PERM_CACHE", "_COLS_CACHE"):
        getattr(_canon, name, {}).clear()


def _ukc(n_max: int, k: int) -> int:
    _drop_lazy_tables()
    report = enumeration.verify_unique_colorable_edge_bound(n_max, k)
    check("isomorphism classes per n", tuple(r.graphs_total for r in report.rows), UKC_CLASSES[:n_max])
    check("uniquely colorable per n", tuple(r.unique_count for r in report.rows), UKC_UNIQUE[:n_max])
    check("edge bound holds", report.ok, True)
    return 0


def ukc_enumeration(seed: int, tiny: bool = False) -> list[Op]:
    # No random input: this is exactly what `enumerate-ukc --n 7 --k 3` runs.
    n_max = 5 if tiny else 7
    return [Op(f"verify_unique_colorable_edge_bound({n_max}, 3)", "ukc", lambda: _ukc(n_max, 3))]


def canon_batch_rate(seed: int, size: int = 2000, n: int = 7) -> float:
    """Graphs per second of the active canonical-code kernel, apart from enumeration.

    The batch holds `size` seeded random graphs on n vertices; the lazy
    tables are built before the clock starts.
    """
    if not hasattr(_canon, "canonical_codes"):
        return 0.0
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(0, 2, size=(size, n, n), dtype=np.uint8), 1)
    batch = upper + upper.transpose(0, 2, 1)
    _canon.canonical_codes(batch[:1])
    start = time.perf_counter()
    codes = _canon.canonical_codes(batch)
    elapsed = time.perf_counter() - start
    perm = rng.permutation(n)
    head = batch[: size // 10]
    check("canonical codes invariant under relabelling",
          _canon.canonical_codes(head[:, perm][:, :, perm]).tolist(), codes[: size // 10].tolist())
    return size / elapsed


# ----------------------------------------------------------------- adversary-search


def _adversary_cell(variant: str, n: int, k: int, order: list[int]) -> int:
    adv = ADVERSARIES[variant](n, k)
    k_known = None if variant == "unknown-count" else k
    result = learners.learn_partition_representatives(adv, n, k_known=k_known, order=order)
    verdict = adv.declare(result.answer)
    check("declare verdict", verdict.forced, True)
    if variant == "separability":
        check("queries forced", result.queries_used, bounds.membership_known_count(n, k))
    elif variant == "unknown-count":
        check("queries forced", result.queries_used, bounds.membership_unknown_count(n, k))
    else:
        check_at_least("queries forced", result.queries_used, bounds.contraction_adversary_lower(n, k))
    check("ledger replays on the claim", ledger.replay_matches_partition(adv.ledger.entries, result.answer), True)
    return adv.ledger.count


def _shuffled(n: int, rng: random.Random) -> list[int]:
    order = list(range(n))
    rng.shuffle(order)
    return order


def adversary_search(seed: int, tiny: bool = False) -> list[Op]:
    ops = []
    for variant, ns, ks in SEARCH_CELLS:
        if tiny:
            ns, ks = range(ns.start, ns.start + 2), range(2, 4)
        for n in ns:
            for k in ks:
                for i in range(ORDERS_PER_CELL):
                    order = _shuffled(n, random.Random(f"{seed}/{variant}/{n}/{k}/{i}"))
                    ops.append(Op(f"{variant} n={n} k={k} seeded order {i}", "adversary",
                                  lambda v=variant, n=n, k=k, o=order: _adversary_cell(v, n, k, o)))
    if not tiny:
        for variant, n, k, order_seed in PINNED_CELLS:
            order = _shuffled(n, random.Random(order_seed))
            ops.append(Op(f"{variant} n={n} k={k} order=Random({order_seed}).shuffle", "adversary",
                          lambda v=variant, n=n, k=k, o=order: _adversary_cell(v, n, k, o)))
    return ops


# ----------------------------------------------------------------- query-throughput


def _duel_cell(learner: str, opponent: str, n: int, k: int) -> int:
    report = duel.run_duel(learner, opponent, n, k)
    check("declare verdict", report.verdict, "forced")
    check_at_least("queries forced", report.queries_used, report.bound)
    if learner != "all-pairs" and opponent != "contraction":
        # the representative learner's ceiling equals these adversaries' floor
        check("queries forced", report.queries_used, report.bound)
    return report.queries_used


def _random_blocks(n: int, k: int, rng: random.Random) -> list[list[int]]:
    labels = _shuffled(n, rng)
    blocks = [[v] for v in labels[:k]]
    for v in labels[k:]:
        blocks[rng.randrange(k)].append(v)
    return blocks


def _worst_case_blocks(n: int, k: int, rng: random.Random) -> list[list[int]]:
    # k-1 singletons and one large block, under a seeded relabelling
    labels = _shuffled(n, rng)
    return [[v] for v in labels[: k - 1]] + [labels[k - 1:]]


def _path_union_graph(blocks: list[list[int]], n: int) -> graphs.Graph:
    # one path per block: the components of a clique union with O(n) edges
    return graphs.Graph.from_edges(n, ((b[i], b[i + 1]) for b in blocks for i in range(len(b) - 1)))


def _random_graph(n: int, m: int, rng: random.Random) -> graphs.Graph:
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return graphs.Graph(n, frozenset(edges))


def _replays(session, truth) -> None:
    check("ledger replays on the hidden partition",
          ledger.replay_matches_partition(session.ledger.entries, truth), True)


def _reps_prop1(hidden: graphs.Graph, k: int) -> int:
    n = hidden.n
    truth = graphs.connected_components(hidden)
    order = instances.worst_case_order(truth)
    known = oracles.HonestOracle(hidden)
    result = learners.learn_partition_representatives(known, n, k_known=k, order=order)
    check("partition learned", result.answer, truth)
    check("prop1 worst case, k known", result.queries_used, bounds.membership_known_count(n, k))
    _replays(known, truth)
    unknown = oracles.HonestOracle(hidden)
    result = learners.learn_partition_representatives(unknown, n, order=order)
    check("partition learned", result.answer, truth)
    check("prop1 worst case, k hidden", result.queries_used, bounds.membership_unknown_count(n, k))
    _replays(unknown, truth)
    return known.ledger.count + unknown.ledger.count


def _pooled(hidden: graphs.Graph) -> int:
    n = hidden.n
    truth = graphs.connected_components(hidden)
    counter = oracles.HonestOracle(hidden)
    result = learners.count_components_multi(counter, n)
    check("component count", result.answer, truth.k)
    check("pooled count queries", result.queries_used, bounds.count_components_queries(n))
    _replays(counter, truth)
    learner = oracles.HonestOracle(hidden)
    result = learners.learn_components_multi(learner, n)
    check("partition learned", result.answer, truth)
    check_at_most("pooled learner queries", result.queries_used, bounds.learn_components_ceiling(n, truth.k))
    _replays(learner, truth)
    return counter.ledger.count + learner.ledger.count


def _neighborhood(hidden: graphs.Graph) -> int:
    n = hidden.n
    session = oracles.HonestOracle(hidden)
    result = learners.learn_graph_neighborhood(session, n)
    check("graph learned", result.answer, hidden)
    ceiling = sum(bounds.find_neighbors_ceiling(hidden.degree(v), n - 1) for v in range(n))
    check_at_most("neighbor search queries", result.queries_used, ceiling)
    verifier = oracles.HonestOracle(hidden)
    result = learners.verify_graph_neighborhood(verifier, hidden)
    check("verifier accepts", result.answer, True)
    scanned = sum(1 for v in range(n) if hidden.degree(v) < n - 1)
    check("verifier queries", result.queries_used, bounds.verify_accept_queries(hidden.m, scanned))
    return session.ledger.count + verifier.ledger.count


def query_throughput(seed: int, tiny: bool = False) -> list[Op]:
    rng = random.Random(f"{seed}/query-throughput")
    ops = []
    for n, k in ((24, 4), (48, 6)) if tiny else ((400, 8), (600, 12), (800, 16)):
        hidden = _path_union_graph(_worst_case_blocks(n, k, rng), n)
        ops.append(Op(f"reps prop1 n={n} k={k}", "honest", lambda h=hidden, k=k: _reps_prop1(h, k)))
        hidden = _path_union_graph(_random_blocks(n, k, rng), n)
        ops.append(Op(f"pooled n={n} k={k}", "honest", lambda h=hidden: _pooled(h)))
    for n in (16, 24) if tiny else (100, 150, 200):
        hidden = _random_graph(n, 2 * n, rng)
        ops.append(Op(f"neighborhood n={n} m={2 * n}", "honest", lambda h=hidden: _neighborhood(h)))
    n_max = 6 if tiny else 22
    for learner, opponent in GRID_PAIRINGS:
        for n in range(2, n_max + 1):
            for k in range(1 if opponent == "unknown-count" else 2, n + 1):
                ops.append(Op(f"duel {learner} vs {opponent} n={n} k={k}", "duel",
                              lambda l=learner, o=opponent, n=n, k=k: _duel_cell(l, o, n, k)))
    return ops


# ----------------------------------------------------------------- minimax-games


def _solve(games: list[tuple[str, int, int | None, bool]]) -> int:
    for kind, n, k, canonicalize in games:
        what = f"{kind} minimax n={n} k={'unknown' if k is None else k}"
        if kind == "alpha_m":
            lower, value = minimax.information_bound_check(n, k)
            check(what, value, ALPHA_M_VALUES[(n, k)])
            check_at_least(f"{what} vs information bound", value, lower)
        else:
            value = minimax.minimax_query_complexity(n, k, canonicalize=canonicalize)
            formula = bounds.minimax_unknown_formula(n) if k is None else bounds.minimax_known_formula(n, k)
            check(what, value, formula)
    return 0


def minimax_games(seed: int, tiny: bool = False) -> list[Op]:
    # alpha games for n <= top with every k and with k unknown, alpha_m games
    # for n < top with every k. They are grouped by size into operations: one
    # game on n <= 4 vertices takes well under a millisecond, too little to
    # time steadily.
    top = 4 if tiny else 6

    def games(sizes) -> list[tuple[str, int, int | None, bool]]:
        out = []
        for n in sizes:
            out += [("alpha", n, k, False) for k in [*range(1, n + 1), None]]
            if n < top:
                out += [("alpha_m", n, k, False) for k in range(1, n + 1)]
        return out

    groups = {
        f"every game on n <= {top - 2} vertices": games(range(1, top - 1)),
        f"every game on {top - 1} vertices": games([top - 1]),
        f"alpha on {top} vertices, every k and k unknown": games([top]),
    }
    if not tiny:
        groups["alpha n=7 k=3"] = [("alpha", 7, 3, False)]
        groups["alpha n=6 k=3 canonical"] = [("alpha", 6, 3, True)]
    ops = [Op(name, "minimax", lambda g=g: _solve(g)) for name, g in groups.items()]
    # the games are fixed; the seed only orders them
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {
    "ukc-enumeration": Workload(ukc_enumeration, speed.NUMPY_GATHER),
    "adversary-search": Workload(adversary_search, speed.INTERPRETER),
    "query-throughput": Workload(query_throughput, speed.INTERPRETER),
    "minimax-games": Workload(minimax_games, speed.INTERPRETER),
}
