"""Span tracer for the traced run, and the per-layer metrics read from its spans.

graphquery itself carries no instrumentation. The tracer wraps the public
entry points of each layer at the module attribute through which callers
reach them (for instance `adversaries.find_k_coloring`, the name the
adversaries call), records one span per call and restores the originals
afterwards. A span holds its name, start, end, parent span and the id of
the benchmark operation it belongs to, so spans of one operation share an
id. Coloring-search nodes are read as deltas of `coloring.SEARCH_STATS`
around each call; that is valid only because the benchmark runs on a
single thread.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from graphquery import adversaries, coloring, duel, enumeration, learners, ledger, minimax, oracles, partitions

LEARNER_ENTRY_POINTS = (
    "learn_partition_representatives",
    "learn_partition_all_pairs",
    "count_components_multi",
    "learn_components_multi",
    "learn_graph_neighborhood",
    "verify_graph_neighborhood",
)
VARIANTS = ("separability", "unknown-count", "contraction")
ORACLE_KINDS = ("alpha", "alpha_m", "beta")


@dataclass(slots=True)
class Span:
    name: str
    op: int
    parent: int  # index of the enclosing span in Tracer.spans, -1 for an operation
    start: float = 0.0
    end: float = 0.0
    nodes: int = 0
    error: str = ""
    attrs: dict | None = None
    child_time: float = 0.0  # summed durations of the direct child spans

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _batch(args, kwargs, result) -> dict:
    return {"graphs": args[0].shape[0], "n": args[0].shape[1]}


def _set_size(args, kwargs, result) -> dict:
    return {"set": len(args[2])}


def _queries(args, kwargs, result) -> dict:
    return {"queries": result.queries_used if result is not None else 0}


def _search_nodes() -> int:
    stats = getattr(coloring, "SEARCH_STATS", None)
    return stats["nodes"] if stats is not None else 0


class Tracer:
    """Records spans in memory while installed; `write` saves them at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._originals: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, args, kwargs, describe=None):
        span = Span(name, self._op, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        result = None
        nodes = _search_nodes()
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            span.nodes = _search_nodes() - nodes
            self._stack.pop()
            if describe is not None:
                span.attrs = describe(args, kwargs, result)

    def operation(self, kind: str, run):
        """Run one benchmark operation as the root span of a fresh span id."""
        self._op += 1
        return self.call("op", run, (), {}, lambda a, k, r: {"kind": kind})

    def _wrap(self, owner, attr: str, name: str, describe=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:  # an entry point this version of graphquery lacks reads as 0
            return
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, describe)

        # an inherited method has no entry of its own to restore
        self._originals.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, traced)

    def install(self) -> None:
        self._wrap(enumeration, "canonical_codes", "canon", _batch)
        self._wrap(enumeration, "is_uniquely_k_colorable", "coloring.ukc")
        self._wrap(adversaries, "find_k_coloring", "coloring.answer")
        self._wrap(adversaries, "proper_partitions", "coloring.audit")
        for cls in (adversaries.SeparabilityAdversary, adversaries.UnknownCountAdversary,
                    adversaries.ContractionAdversary):
            self._wrap(cls, "membership_query", f"adversary.{cls.variant}.answer")
            self._wrap(cls, "declare", f"adversary.{cls.variant}.declare")
        self._wrap(oracles.HonestOracle, "membership_query", "oracle.alpha")
        self._wrap(oracles.HonestOracle, "multi_membership_query", "oracle.alpha_m", _set_size)
        self._wrap(oracles.HonestOracle, "neighborhood_query", "oracle.beta", _set_size)
        self._wrap(oracles.HonestOracle, "declare", "oracle.declare")
        self._wrap(ledger.QueryLedger, "append", "ledger.append")
        for module in (learners, duel):
            for fn in LEARNER_ENTRY_POINTS:
                if fn in vars(module):
                    self._wrap(module, fn, f"learner.{fn}", _queries)
        self._wrap(duel, "run_duel", "duel.cell")
        game = inspect.signature(minimax.minimax_query_complexity)

        def describe_game(args, kwargs, result):
            bound = game.bind(*args, **kwargs)
            bound.apply_defaults()
            return dict(bound.arguments)

        self._wrap(minimax, "minimax_query_complexity", "minimax.solve", describe_game)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def write(self, path: Path, origin: float) -> None:
        """Save every span as one CSV line, times in seconds from `origin`."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,op,parent,name,start_s,end_s,nodes,error\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s.op},{s.parent},{s.name},{s.start - origin:.9f},"
                         f"{s.end - origin:.9f},{s.nodes},{s.error}\n")


def _candidates(n: int, k: int | None) -> int:
    return sum(partitions.stirling_partition_count(n, j) for j in range(1, (k or n) + 1))


def layer_metrics(spans: list[Span], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as (value, unit), averaged over `passes` traced passes.

    Counts are per pass; a layer that did not run reads 0, and so does a
    ratio whose base is 0.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    searched = set()  # spans that called the coloring search directly
    for s in spans:
        by_name[s.name].append(s)
        if s.parent >= 0:
            spans[s.parent].child_time += s.duration
            if s.name == "coloring.answer":
                searched.add(s.parent)
    with_search = sum(1 for i in searched if spans[i].name.startswith("adversary."))

    def per_pass(x: float) -> float:
        return x / passes

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def count(name: str) -> float:
        return per_pass(len(by_name[name]))

    def busy(name: str) -> float:
        return per_pass(sum(s.duration for s in by_name[name]))

    out: dict[str, tuple[float, str]] = {}
    canon = by_name["canon"]
    graphs = per_pass(sum(s.attrs["graphs"] for s in canon))
    out["canon.calls"] = (count("canon"), "count")
    out["canon.graphs"] = (graphs, "count")
    out["canon.busy_s"] = (busy("canon"), "s")
    out["canon.busy_s.n7"] = (per_pass(sum(s.duration for s in canon if s.attrs["n"] == 7)), "s")
    out["canon.us_per_graph"] = (ratio(busy("canon") * 1e6, graphs), "us")

    ukc_ops = [s for s in by_name["op"] if s.attrs["kind"] == "ukc"]
    classes = count("coloring.ukc")
    out["enumeration.candidates"] = (graphs, "count")
    out["enumeration.classes"] = (classes, "count")
    out["enumeration.useful_ratio"] = (ratio(classes, graphs), "ratio")
    out["enumeration.self_s"] = (per_pass(sum(s.self_time for s in ukc_ops)), "s")

    nodes_total = busy_total = 0.0
    for part in ("ukc", "answer", "audit"):
        name = f"coloring.{part}"
        nodes = per_pass(sum(s.nodes for s in by_name[name]))
        nodes_total += nodes
        busy_total += busy(name)
        out[f"{name}.calls"] = (count(name), "count")
        out[f"{name}.nodes"] = (nodes, "count")
        out[f"{name}.busy_s"] = (busy(name), "s")
    out["coloring.audit.max_nodes"] = (max((s.nodes for s in by_name["coloring.audit"]), default=0), "count")
    out["coloring.nodes_per_s"] = (ratio(nodes_total, busy_total), "1/s")

    answers = 0
    for variant in VARIANTS:
        answered = by_name[f"adversary.{variant}.answer"]
        declared = by_name[f"adversary.{variant}.declare"]
        answers += len(answered)
        out[f"adversaries.{variant}.queries"] = (count(f"adversary.{variant}.answer"), "count")
        out[f"adversaries.{variant}.answer_s"] = (busy(f"adversary.{variant}.answer"), "s")
        out[f"adversaries.{variant}.declare_s"] = (busy(f"adversary.{variant}.declare"), "s")
        errors = sum(1 for s in answered + declared if s.error == "BudgetExceededError")
        out[f"adversaries.{variant}.budget_errors"] = (per_pass(errors), "count")
    out["adversaries.search_share"] = (ratio(with_search, answers), "ratio")

    learner_spans = [s for name, group in by_name.items() if name.startswith("learner.") for s in group]
    out["learners.calls"] = (per_pass(len(learner_spans)), "count")
    out["learners.queries"] = (per_pass(sum(s.attrs["queries"] for s in learner_spans)), "count")
    out["learners.self_s"] = (per_pass(sum(s.self_time for s in learner_spans)), "s")

    honest = 0.0
    for kind in ORACLE_KINDS:
        out[f"oracles.{kind}.queries"] = (count(f"oracle.{kind}"), "count")
        honest += count(f"oracle.{kind}")
    answer_s = sum(busy(f"oracle.{kind}") for kind in ORACLE_KINDS)
    out["oracles.answer_s"] = (answer_s, "s")
    out["oracles.ns_per_query"] = (ratio(answer_s * 1e9, honest), "ns")
    out["oracles.set_elems"] = (
        per_pass(sum(s.attrs["set"] for kind in ("alpha_m", "beta") for s in by_name[f"oracle.{kind}"])),
        "count",
    )

    out["ledger.entries"] = (count("ledger.append"), "count")
    out["ledger.append_s"] = (busy("ledger.append"), "s")
    out["ledger.ns_per_append"] = (ratio(busy("ledger.append") * 1e9, count("ledger.append")), "ns")

    games = by_name["minimax.solve"]

    def solve_s(kind: str, n: int, k: int | None, canonical: bool) -> float:
        return per_pass(sum(
            s.duration for s in games
            if (s.attrs["oracle_kind"], s.attrs["n"], s.attrs["k"], s.attrs["canonicalize"]) == (kind, n, k, canonical)
        ))

    out["minimax.solves"] = (count("minimax.solve"), "count")
    out["minimax.busy_s"] = (busy("minimax.solve"), "s")
    out["minimax.candidates_max"] = (max((_candidates(s.attrs["n"], s.attrs["k"]) for s in games), default=0), "count")
    out["minimax.solve_s.alpha-n7-k3"] = (solve_s("alpha", 7, 3, False), "s")
    out["minimax.solve_s.alpha-n6-kunknown"] = (solve_s("alpha", 6, None, False), "s")
    out["minimax.solve_s.alpha-n6-k3-canonical"] = (solve_s("alpha", 6, 3, True), "s")
    out["minimax.alpha_m.busy_s"] = (per_pass(sum(s.duration for s in games if s.attrs["oracle_kind"] == "alpha_m")), "s")

    out["duel.cells"] = (count("duel.cell"), "count")
    out["duel.self_s"] = (per_pass(sum(s.self_time for s in by_name["duel.cell"])), "s")
    return out
