"""Learner-vs-oracle duels with audited declarations and bound checks."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from . import bounds
from .adversaries import ContractionAdversary, SeparabilityAdversary, UnknownCountAdversary
from .graphs import connected_components
from .instances import generate_instance, worst_case_order, KINDS as INSTANCE_KINDS
from .learners import (
    LearnResult,
    learn_partition_all_pairs,
    learn_partition_representatives,
)
from .oracles import HonestOracle

LEARNER_IDS = ("reps-known", "reps-unknown", "all-pairs")
# adversary id -> (session class, the lower bound it forces on any learner)
_ADVERSARIES = {
    "separability": (SeparabilityAdversary, bounds.membership_known_count),
    "unknown-count": (UnknownCountAdversary, bounds.membership_unknown_count),
    "contraction": (ContractionAdversary, bounds.contraction_adversary_lower),
}
ADVERSARY_IDS = tuple(_ADVERSARIES)


@dataclass(frozen=True)
class DuelReport:
    algorithm: str
    opponent: str
    n: int
    k: int | None
    m: int | None
    seed: int | None
    queries_used: int
    bound: float
    bound_kind: str  # "lower" for adversaries, "upper" for honest worst cases
    satisfied: bool
    verdict: str
    answer: list[list[int]]

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "opponent": self.opponent,
            "n": self.n,
            "k": self.k,
            "m": self.m,
            "seed": self.seed,
            "queries_used": self.queries_used,
            "bound_formula_value": self.bound,
            "bound_kind": self.bound_kind,
            "satisfied": self.satisfied,
            "audit_verdict": self.verdict,
            "answer": self.answer,
        }

    def csv_row(self) -> list:
        return [
            self.algorithm,
            self.n,
            "" if self.k is None else self.k,
            "" if self.m is None else self.m,
            "" if self.seed is None else self.seed,
            self.queries_used,
            self.bound,
            self.satisfied,
            self.verdict,
        ]


CSV_HEADER = ["algorithm", "n", "k", "m", "seed", "queries", "bound", "satisfied", "verdict"]


def _run_learner(learner: str, session, n: int, k: int | None, order) -> LearnResult:
    if learner == "reps-known":
        if k is None:
            raise ValueError("reps-known needs k")
        return learn_partition_representatives(session, n, k_known=k, order=order)
    if learner == "reps-unknown":
        return learn_partition_representatives(session, n, k_known=None, order=order)
    if learner == "all-pairs":
        return learn_partition_all_pairs(session, n)
    raise ValueError(f"unknown learner {learner!r}; choose from {LEARNER_IDS}")


def _honest_bound(learner: str, n: int, k: int) -> int:
    if learner == "reps-known":
        return bounds.membership_known_count(n, k)
    if learner == "reps-unknown":
        return bounds.membership_unknown_count(n, k)
    return n * (n - 1) // 2


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
    the adversary's lower bound) or an instance kind (the claim must be
    correct and stay within the learner's worst-case ceiling).
    """
    if order not in ("asc", "prop1"):
        raise ValueError("order must be 'asc' or 'prop1'")
    if opponent in ADVERSARY_IDS:
        if k is None:
            raise ValueError(f"adversary {opponent!r} needs k")
        if order != "asc":
            raise ValueError("adversary duels fix no hidden instance; use order='asc'")
        make, bound_fn = _ADVERSARIES[opponent]
        session = make(n, k)
        result = _run_learner(learner, session, n, k, None)
        verdict = session.declare(result.answer)
        bound = bound_fn(n, k)
        satisfied = bool(verdict) and result.queries_used >= bound
        return DuelReport(
            learner, opponent, n, k, m, seed, result.queries_used, bound, "lower",
            satisfied, "forced" if verdict else "refuted",
            [list(b) for b in result.answer.blocks],
        )
    if opponent in INSTANCE_KINDS:
        hidden = generate_instance(opponent, n, k=k, m=m, seed=seed)
        truth = connected_components(hidden)
        true_k = truth.k
        session = HonestOracle(hidden)
        vertex_order = worst_case_order(truth) if order == "prop1" else None
        result = _run_learner(learner, session, n, true_k if learner == "reps-known" else k, vertex_order)
        correct = result.answer == truth
        bound = _honest_bound(learner, n, true_k)
        satisfied = correct and result.queries_used <= bound
        return DuelReport(
            learner, opponent, n, k, m, seed, result.queries_used, bound, "upper",
            satisfied, "correct" if correct else "incorrect",
            [list(b) for b in result.answer.blocks],
        )
    raise ValueError(
        f"unknown opponent {opponent!r}; choose an adversary {ADVERSARY_IDS} "
        f"or an instance kind {INSTANCE_KINDS}"
    )


def grid_duel(
    learner: str,
    opponent: str,
    n_max: int,
    k_max: int | None = None,
    *,
    n_min: int = 2,
    seed: int | None = None,
) -> tuple[list[DuelReport], dict]:
    """Sweep an (n, k) rectangle of independent duels, in (n, k) order.

    Cells run one after another: a duel is pure Python that holds the GIL,
    so threads would not run cells in parallel.
    """
    cells = []
    for n in range(n_min, n_max + 1):
        k_lo = 1 if opponent == "unknown-count" else 2
        k_hi = min(n, k_max) if k_max is not None else n
        for k in range(k_lo, k_hi + 1):
            cells.append((n, k))
    reports = [run_duel(learner, opponent, n, k, seed=seed) for n, k in cells]
    counts = [r.queries_used for r in reports]
    summary = {
        "cells": len(reports),
        "all_satisfied": all(r.satisfied for r in reports),
        "queries_min": min(counts) if counts else 0,
        "queries_max": max(counts) if counts else 0,
        "queries_mean": statistics.mean(counts) if counts else 0.0,
    }
    return reports, summary
