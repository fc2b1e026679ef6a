"""Learner runs against adversaries or honest instances, all reported as one DuelReport."""

from __future__ import annotations

import json
import operator
import statistics
from dataclasses import asdict, dataclass, fields

from . import bounds
from .adversaries import ContractionAdversary, SeparabilityAdversary, UnknownCountAdversary
from .graphs import Graph
from .instances import KIND_SETTINGS, generate_instance, worst_case_order, KINDS as INSTANCE_KINDS
from .learners import (
    LearnResult,
    count_components_multi,
    learn_components_multi,
    learn_graph_neighborhood,
    learn_partition_all_pairs,
    learn_partition_representatives,
    verify_graph_neighborhood,
)
from .oracles import HonestOracle
from .partitions import Partition

# learners that answer with a partition from membership queries alone, so an
# adversary can face them too
LEARNER_IDS = ("reps-known", "reps-unknown", "all-pairs")
HONEST_LEARNER_IDS = LEARNER_IDS + ("pooled-components", "pooled-count",
                                    "neighborhood-learn", "neighborhood-verify")
ORDERS = ("asc", "prop1")
# adversary id -> (session class, the lower bound it forces on any learner)
_ADVERSARIES = {
    "separability": (SeparabilityAdversary, bounds.membership_known_count),
    "unknown-count": (UnknownCountAdversary, bounds.membership_unknown_count),
    "contraction": (ContractionAdversary, bounds.contraction_adversary_lower),
}
ADVERSARY_IDS = tuple(_ADVERSARIES)
# partition learner id -> its worst-case queries on an honest n-vertex, k-component graph
_PARTITION_CEILINGS = {
    "reps-known": bounds.membership_known_count,
    "reps-unknown": bounds.membership_unknown_count,
    "all-pairs": lambda n, _k: n * (n - 1) // 2,
}
# how queries_used must compare with the bound for each bound_kind
_BOUND_HOLDS = {"lower": operator.ge, "upper": operator.le, "exact": operator.eq}


@dataclass(frozen=True)
class DuelReport:
    """One learner run, checked against the truth (or an audit) and a bound.

    n, k and m describe the instance the bound was evaluated at: an
    adversary's parameters (m and seed None), or the hidden graph's vertex,
    component and edge counts. `bound_kind` says whether queries_used must
    be at least ("lower"), at most ("upper") or exactly ("exact") the bound.
    """

    algorithm: str
    n: int
    k: int
    m: int | None
    seed: int | None
    queries_used: int
    bound: float
    satisfied: bool
    verdict: str
    opponent: str
    order: str
    bound_kind: str
    answer: list | int | bool

    def to_dict(self) -> dict:
        return asdict(self)

    def csv_row(self) -> list:
        """Values in CSV_HEADER order, `answer` last as JSON; csv writes None as ""."""
        return [getattr(self, name) for name in CSV_HEADER[:-1]] + [json.dumps(self.answer)]


CSV_HEADER = [f.name for f in fields(DuelReport)]


def _plain(answer) -> list | int | bool:
    if isinstance(answer, Partition):
        return [list(b) for b in answer.blocks]
    if isinstance(answer, Graph):
        return [list(e) for e in answer.sorted_edges()]
    return answer


def _run_learner(learner: str, session, n: int, k: int, order) -> LearnResult:
    if learner == "all-pairs":
        return learn_partition_all_pairs(session, n)
    k_known = k if learner == "reps-known" else None
    return learn_partition_representatives(session, n, k_known=k_known, order=order)


def run_honest(
    learner: str,
    hidden: Graph,
    opponent: str,
    *,
    seed: int | None = None,
    order: str = "asc",
    candidate: Graph | None = None,
) -> DuelReport:
    """Run one learner against an honest oracle on `hidden` and check it.

    The answer must be the truth (for neighborhood-verify: accept iff
    `candidate` equals `hidden`) and queries_used must keep the learner's
    bound. `opponent` and `seed` name where `hidden` came from and are only
    reported. order="prop1" feeds the representative learners the
    smallest-components-first vertex order; the other learners have none.
    """
    if learner not in HONEST_LEARNER_IDS:
        raise ValueError(f"unknown learner {learner!r}; choose from {HONEST_LEARNER_IDS}")
    if order not in ORDERS:
        raise ValueError(f"order must be one of {ORDERS}")
    if order != "asc" and learner not in ("reps-known", "reps-unknown"):
        raise ValueError(f"{learner} has no vertex order, so it ignores order={order!r}")
    if (candidate is not None) != (learner == "neighborhood-verify"):
        raise ValueError("a candidate graph goes with neighborhood-verify, and only with it")
    n = hidden.n
    session = HonestOracle(hidden)
    truth = session.hidden_partition
    expected, kind = truth, "upper"
    if learner in LEARNER_IDS:
        vertex_order = worst_case_order(truth) if order == "prop1" else None
        result = _run_learner(learner, session, n, truth.k, vertex_order)
        bound = _PARTITION_CEILINGS[learner](n, truth.k)
    elif learner == "pooled-components":
        result = learn_components_multi(session, n)
        bound = bounds.learn_components_ceiling(n, truth.k)
    elif learner == "pooled-count":
        result = count_components_multi(session, n)
        bound, expected, kind = bounds.count_components_queries(n), truth.k, "exact"
    elif learner == "neighborhood-learn":
        result = learn_graph_neighborhood(session, n)
        bound = sum(
            bounds.find_neighbors_ceiling(hidden.degree(v), n - 1) for v in range(n)
        ) if n > 1 else 0
        expected = hidden
    else:
        if candidate.n != n:
            raise ValueError("candidate and hidden graphs have different vertex counts")
        result = verify_graph_neighborhood(session, candidate)
        scanned = sum(1 for v in range(n) if candidate.degree(v) < n - 1)
        bound = bounds.verify_accept_queries(candidate.m, scanned)
        expected = candidate == hidden
        # acceptance costs exactly the bound; a rejection stops early
        kind = "exact" if result.answer else "upper"
    correct = result.answer == expected
    return DuelReport(
        learner, n, truth.k, hidden.m, seed, result.queries_used, bound,
        correct and _BOUND_HOLDS[kind](result.queries_used, bound),
        "correct" if correct else "incorrect", opponent, order, kind, _plain(result.answer),
    )


def run_duel(
    learner: str,
    opponent: str,
    n: int,
    k: int | None = None,
    *,
    m: int | None = None,
    seed: int | None = None,
    order: str = "asc",
) -> DuelReport:
    """Run one partition-learning session and audit the final declaration.

    `opponent` is an adversary id (the learner must force its claim and meet
    the adversary's lower bound) or an instance kind, generated from k, m
    and seed and handed to `run_honest`.
    """
    if learner not in LEARNER_IDS:
        raise ValueError(f"unknown learner {learner!r}; choose from {LEARNER_IDS}")
    if opponent in INSTANCE_KINDS:
        hidden = generate_instance(opponent, n, k=k, m=m, seed=seed)
        return run_honest(learner, hidden, opponent, seed=seed, order=order)
    if opponent not in ADVERSARY_IDS:
        raise ValueError(
            f"unknown opponent {opponent!r}; choose an adversary {ADVERSARY_IDS} "
            f"or an instance kind {INSTANCE_KINDS}"
        )
    if k is None:
        raise ValueError(f"adversary {opponent!r} needs k")
    ignored = ", ".join(f"{name}={value!r}" for name, value, default in
                        (("m", m, None), ("seed", seed, None), ("order", order, "asc"))
                        if value != default)
    if ignored:
        raise ValueError(f"adversary {opponent!r} builds no hidden graph, so it ignores {ignored}")
    make, bound_fn = _ADVERSARIES[opponent]
    session = make(n, k)
    result = _run_learner(learner, session, n, k, None)
    verdict = session.declare(result.answer)
    bound = bound_fn(n, k)
    return DuelReport(
        learner, n, k, None, None, result.queries_used, bound,
        bool(verdict) and result.queries_used >= bound,
        "forced" if verdict else "refuted", opponent, order, "lower", _plain(result.answer),
    )


def grid_duel(
    learner: str,
    opponent: str,
    n_max: int,
    k_max: int | None = None,
    *,
    seed: int | None = None,
) -> tuple[list[DuelReport], dict]:
    """Sweep an (n, k) rectangle of independent duels, in (n, k) order.

    Edgeless and clique instances take no k, so over them the grid is one
    cell per n, with k None.

    Cells run one after another: a duel is pure Python that holds the GIL,
    so threads would not run cells in parallel.
    """
    if opponent == "random-graph":
        raise ValueError("the duel grid cannot sweep random-graph: its cells have no edge count m")
    if opponent in INSTANCE_KINDS and "k" not in KIND_SETTINGS[opponent]:
        if k_max is not None:
            raise ValueError(f"the duel grid over {opponent} has no k to sweep, so it takes no k_max")
        cells = [(n, None) for n in range(2, n_max + 1)]
        span = f"n = 2..{n_max}"
    else:
        k_lo = 1 if opponent == "unknown-count" else 2
        cells = [(n, k) for n in range(2, n_max + 1)
                 for k in range(k_lo, (n if k_max is None else min(n, k_max)) + 1)]
        span = f"n = 2..{n_max}, k = {k_lo}..{'n' if k_max is None else k_max}"
    if not cells:
        # an empty sweep would report every cell satisfied having checked none
        raise ValueError(f"the duel grid over {opponent} is empty: no cell has {span}")
    reports = [run_duel(learner, opponent, n, k, seed=seed) for n, k in cells]
    counts = [r.queries_used for r in reports]
    summary = {
        "cells": len(reports),
        "all_satisfied": all(r.satisfied for r in reports),
        "queries_min": min(counts),
        "queries_max": max(counts),
        "queries_mean": statistics.mean(counts),
    }
    return reports, summary
