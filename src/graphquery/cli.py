"""Command-line interface: generators, learners, duels, minimax, and enumeration.

Exit codes: 0 when every checked bound is satisfied, 2 when a bound is
violated or a declaration refuted, 1 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import bounds
from .duel import ADVERSARY_IDS, CSV_HEADER, LEARNER_IDS, grid_duel, run_duel
from .enumeration import verify_unique_colorable_edge_bound
from .graphs import Graph, connected_components, format_edge_list, read_graph
from .instances import KINDS as INSTANCE_KINDS, generate_instance, worst_case_order
from .learners import (
    count_components_multi,
    learn_components_multi,
    learn_graph_neighborhood,
    learn_partition_representatives,
    verify_graph_neighborhood,
)
from .minimax import minimax_query_complexity
from .oracles import HonestOracle


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_FLAGS = {
    "n": {"type": int, "default": None},
    "k": {"type": int, "default": None},
    "m": {"type": int, "default": None},
    "seed": {"type": int, "default": None},
    "format": {"choices": ("json", "csv"), "default": "json"},
    "out": {"default": None, "help": "write the report here instead of stdout"},
    "order": {"choices": ("asc", "prop1"), "default": "asc"},
}


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """Declare only the flags a subcommand reads, so any other is a usage error."""
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])


def _add_instance_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", default=None, help="edge-list file with the hidden graph")
    p.add_argument("--kind", choices=INSTANCE_KINDS, default=None)
    _add_flags(p, "n", "k", "m", "seed")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphquery")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a hidden-graph instance")
    p.add_argument("--kind", choices=INSTANCE_KINDS, required=True)
    _add_flags(p, "n", "k", "m", "seed", "out")

    p = sub.add_parser("learn-partition", help="learn the component partition")
    _add_instance_source(p)
    p.add_argument("--oracle", choices=("alpha", "alpha_m"), default="alpha")
    p.add_argument("--known", action="store_true",
                   help="tell the learner the true component count (alpha only)")
    _add_flags(p, "format", "out", "order")

    p = sub.add_parser("count-components", help="count components with pooled queries")
    _add_instance_source(p)
    _add_flags(p, "format", "out")

    p = sub.add_parser("learn-graph", help="reconstruct the hidden graph edge by edge")
    _add_instance_source(p)
    _add_flags(p, "format", "out")

    p = sub.add_parser("verify-graph", help="verify a candidate against the hidden graph")
    _add_instance_source(p)
    p.add_argument("--candidate", required=True, help="edge-list file with the candidate")
    _add_flags(p, "format", "out")

    p = sub.add_parser("duel", help="run a learner against an adversary or honest instance")
    p.add_argument("--learner", choices=LEARNER_IDS, required=True)
    p.add_argument("--adversary", choices=ADVERSARY_IDS, default=None)
    p.add_argument("--kind", choices=INSTANCE_KINDS, default=None)
    p.add_argument("--grid", action="store_true", help="sweep all (n', k') up to --n/--k")
    _add_flags(p, "n", "k", "m", "seed", "format", "out", "order")

    p = sub.add_parser("minimax", help="exact optimal worst-case query count")
    p.add_argument("--oracle", choices=("alpha", "alpha_m"), default="alpha")
    _add_flags(p, "n", "k", "format", "out")

    p = sub.add_parser("enumerate-ukc", help="check the unique-coloring edge bound exhaustively")
    _add_flags(p, "n", "k", "format", "out")

    return parser


def _load_instance(args) -> Graph:
    if args.graph:
        return read_graph(args.graph)
    if args.kind:
        if args.n is None:
            raise ValueError("--kind needs --n")
        return generate_instance(args.kind, args.n, k=args.k, m=args.m, seed=args.seed)
    raise ValueError("provide --graph FILE or --kind KIND")


def _emit(payload: dict, rows, header, args) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        if rows is None:
            keys = sorted(payload)
            writer.writerow(keys)
            writer.writerow([json.dumps(payload[key]) if isinstance(payload[key], (list, dict))
                             else payload[key] for key in keys])
        else:
            writer.writerow(header)
            writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    if args.n is None:
        raise ValueError("gen needs --n")
    graph = generate_instance(args.kind, args.n, k=args.k, m=args.m, seed=args.seed)
    text = format_edge_list(graph)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_learn_partition(args) -> int:
    hidden = _load_instance(args)
    truth = connected_components(hidden)
    n, true_k = hidden.n, truth.k
    session = HonestOracle(hidden)
    order = worst_case_order(truth) if args.order == "prop1" else None
    if args.oracle == "alpha":
        k_known = true_k if args.known else None
        result = learn_partition_representatives(session, n, k_known=k_known, order=order)
        algorithm = "reps-known" if args.known else "reps-unknown"
        bound = (bounds.membership_known_count(n, true_k) if args.known
                 else bounds.membership_unknown_count(n, true_k))
    else:
        result = learn_components_multi(session, n)
        algorithm = "pooled-components"
        bound = bounds.learn_components_ceiling(n, true_k)
    correct = result.answer == truth
    satisfied = correct and result.queries_used <= bound
    payload = {
        "algorithm": algorithm,
        "instance-ref": args.graph or args.kind,
        "parameters": {"n": n, "k": true_k, "order": args.order, "seed": args.seed},
        "queries_used": result.queries_used,
        "answer": [list(b) for b in result.answer.blocks],
        "bound": bound,
        "bound_satisfied": satisfied,
    }
    _emit(payload, None, None, args)
    return 0 if satisfied else 2


def _cmd_count_components(args) -> int:
    hidden = _load_instance(args)
    truth = connected_components(hidden)
    session = HonestOracle(hidden)
    result = count_components_multi(session, hidden.n)
    satisfied = result.answer == truth.k and result.queries_used == bounds.count_components_queries(hidden.n)
    payload = {
        "algorithm": "pooled-count",
        "instance-ref": args.graph or args.kind,
        "parameters": {"n": hidden.n, "seed": args.seed},
        "queries_used": result.queries_used,
        "answer": result.answer,
        "bound": bounds.count_components_queries(hidden.n),
        "bound_satisfied": satisfied,
    }
    _emit(payload, None, None, args)
    return 0 if satisfied else 2


def _cmd_learn_graph(args) -> int:
    hidden = _load_instance(args)
    n = hidden.n
    session = HonestOracle(hidden)
    result = learn_graph_neighborhood(session, n)
    ceiling = sum(
        bounds.find_neighbors_ceiling(hidden.degree(v), n - 1) for v in range(n)
    ) if n > 1 else 0
    exact = result.answer == hidden
    satisfied = exact and result.queries_used <= ceiling
    payload = {
        "algorithm": "neighborhood-learn",
        "instance-ref": args.graph or args.kind,
        "parameters": {"n": n, "m": hidden.m, "seed": args.seed},
        "queries_used": result.queries_used,
        "answer": [list(e) for e in result.answer.sorted_edges()],
        "bound": ceiling,
        "bound_satisfied": satisfied,
    }
    _emit(payload, None, None, args)
    return 0 if satisfied else 2


def _cmd_verify_graph(args) -> int:
    hidden = _load_instance(args)
    candidate = read_graph(args.candidate)
    if candidate.n != hidden.n:
        raise ValueError("candidate and hidden graphs have different vertex counts")
    session = HonestOracle(hidden)
    result = verify_graph_neighborhood(session, candidate)
    scanned = sum(
        1 for v in range(candidate.n)
        if len(candidate.neighbors(v)) < candidate.n - 1
    )
    expected = bounds.verify_accept_queries(candidate.m, scanned)
    satisfied = (result.queries_used == expected) if result.answer else True
    payload = {
        "algorithm": "neighborhood-verify",
        "instance-ref": args.graph or args.kind,
        "parameters": {"n": hidden.n, "m": candidate.m},
        "queries_used": result.queries_used,
        "answer": bool(result.answer),
        "bound": expected,
        "bound_satisfied": satisfied,
    }
    _emit(payload, None, None, args)
    return 0 if satisfied else 2


def _cmd_duel(args) -> int:
    opponent = args.adversary or args.kind
    if opponent is None:
        raise ValueError("provide --adversary or --kind")
    if args.n is None:
        raise ValueError("duel needs --n")
    if args.grid:
        # grid_duel runs every cell without m and in ascending order
        if args.m is not None:
            raise ValueError("duel --grid takes no --m")
        if args.order != "asc":
            raise ValueError("duel --grid takes no --order prop1")
        reports, summary = grid_duel(args.learner, opponent, args.n, args.k, seed=args.seed)
        payload = {"summary": summary, "reports": [r.to_dict() for r in reports]}
        rows = [r.csv_row() for r in reports]
        _emit(payload, rows, CSV_HEADER, args)
        return 0 if summary["all_satisfied"] else 2
    report = run_duel(args.learner, opponent, args.n, args.k,
                      m=args.m, seed=args.seed, order=args.order)
    _emit(report.to_dict(), [report.csv_row()], CSV_HEADER, args)
    return 0 if report.satisfied else 2


def _cmd_minimax(args) -> int:
    if args.n is None:
        raise ValueError("minimax needs --n")
    value = minimax_query_complexity(args.n, args.k, args.oracle)
    if args.oracle == "alpha":
        formula = (bounds.minimax_known_formula(args.n, args.k) if args.k is not None
                   else bounds.minimax_unknown_formula(args.n))
        match = value == formula
    else:
        formula = bounds.information_lower(args.n, args.k) if args.k is not None else None
        match = formula is None or value >= formula
    payload = {
        "n": args.n,
        "k": args.k,
        "oracle": args.oracle,
        "minimax": value,
        "formula": formula,
        "match": match,
    }
    _emit(payload, None, None, args)
    return 0 if match else 2


def _cmd_enumerate_ukc(args) -> int:
    if args.n is None or args.k is None:
        raise ValueError("enumerate-ukc needs --n and --k")
    report = verify_unique_colorable_edge_bound(args.n, args.k)
    _emit(report.to_dict(), None, None, args)
    return 0 if report.ok else 2


_COMMANDS = {
    "gen": _cmd_gen,
    "learn-partition": _cmd_learn_partition,
    "count-components": _cmd_count_components,
    "learn-graph": _cmd_learn_graph,
    "verify-graph": _cmd_verify_graph,
    "duel": _cmd_duel,
    "minimax": _cmd_minimax,
    "enumerate-ukc": _cmd_enumerate_ukc,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"graphquery: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
