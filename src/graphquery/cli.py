"""Command-line interface: generators, learners, duels, minimax, and enumeration.

Exit codes: 0 when every checked answer and bound holds, 2 when an answer is
wrong, a bound violated or a declaration refuted, 1 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import bounds
from .duel import ADVERSARY_IDS, CSV_HEADER, LEARNER_IDS, ORDERS, grid_duel, run_duel, run_honest
from .enumeration import verify_unique_colorable_edge_bound
from .graphs import Graph, format_edge_list, read_graph
from .instances import KINDS as INSTANCE_KINDS, generate_instance
from .minimax import information_bound_check, minimax_query_complexity


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
    "order": {"choices": ORDERS, "default": "asc"},
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
        given = [f"--{name}" for name in ("kind", "n", "k", "m", "seed")
                 if getattr(args, name) is not None]
        if given:
            raise ValueError(f"--graph FILE is the hidden graph, so it takes no {', '.join(given)}")
        return read_graph(args.graph)
    if args.kind:
        if args.n is None:
            raise ValueError("--kind needs --n")
        return generate_instance(args.kind, args.n, k=args.k, m=args.m, seed=args.seed)
    raise ValueError("provide --graph FILE or --kind KIND")


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, args, ok: bool, reports: list | None = None) -> int:
    """Write payload as JSON, or as CSV: one row per report, or else one row
    of payload. Returns the exit status, 0 if ok and 2 if not."""
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        if reports is not None:
            rows = [CSV_HEADER] + [r.csv_row() for r in reports]
        else:
            keys = sorted(payload)
            rows = [keys, [json.dumps(payload[key]) if isinstance(payload[key], (list, dict))
                           else payload[key] for key in keys]]
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        text = buf.getvalue()
    _write(text, args)
    return 0 if ok else 2


def _cmd_gen(args) -> int:
    if args.n is None:
        raise ValueError("gen needs --n")
    graph = generate_instance(args.kind, args.n, k=args.k, m=args.m, seed=args.seed)
    _write(format_edge_list(graph), args)
    return 0


def _run_honest(args, learner: str) -> int:
    hidden = _load_instance(args)
    candidate = read_graph(args.candidate) if learner == "neighborhood-verify" else None
    report = run_honest(learner, hidden, args.graph or args.kind, seed=args.seed,
                        order=getattr(args, "order", "asc"), candidate=candidate)
    return _emit(report.to_dict(), args, report.satisfied, [report])


def _cmd_learn_partition(args) -> int:
    if args.oracle == "alpha_m":
        if args.known:
            raise ValueError("learn-partition --oracle alpha_m ignores --known")
        return _run_honest(args, "pooled-components")
    return _run_honest(args, "reps-known" if args.known else "reps-unknown")


def _cmd_duel(args) -> int:
    opponent = args.adversary or args.kind
    if opponent is None:
        raise ValueError("provide --adversary or --kind")
    if args.n is None:
        raise ValueError("duel needs --n")
    if not args.grid:
        report = run_duel(args.learner, opponent, args.n, args.k,
                          m=args.m, seed=args.seed, order=args.order)
        return _emit(report.to_dict(), args, report.satisfied, [report])
    # grid_duel runs every cell without m and in ascending order
    if args.m is not None:
        raise ValueError("duel --grid takes no --m")
    if args.order != "asc":
        raise ValueError("duel --grid takes no --order prop1")
    reports, summary = grid_duel(args.learner, opponent, args.n, args.k, seed=args.seed)
    payload = {"summary": summary, "reports": [r.to_dict() for r in reports]}
    return _emit(payload, args, summary["all_satisfied"], reports)


def _cmd_minimax(args) -> int:
    if args.n is None:
        raise ValueError("minimax needs --n")
    if args.oracle == "alpha":
        value = minimax_query_complexity(args.n, args.k, args.oracle)
        formula = (bounds.minimax_known_formula(args.n, args.k) if args.k is not None
                   else bounds.minimax_unknown_formula(args.n))
        match = value == formula
    else:
        formula, value = information_bound_check(args.n, args.k)
        match = value >= formula
    payload = {
        "n": args.n,
        "k": args.k,
        "oracle": args.oracle,
        "minimax": value,
        "formula": formula,
        "match": match,
    }
    return _emit(payload, args, match)


def _cmd_enumerate_ukc(args) -> int:
    if args.n is None or args.k is None:
        raise ValueError("enumerate-ukc needs --n and --k")
    report = verify_unique_colorable_edge_bound(args.n, args.k)
    return _emit(report.to_dict(), args, report.ok)


_COMMANDS = {
    "gen": _cmd_gen,
    "learn-partition": _cmd_learn_partition,
    "count-components": lambda args: _run_honest(args, "pooled-count"),
    "learn-graph": lambda args: _run_honest(args, "neighborhood-learn"),
    "verify-graph": lambda args: _run_honest(args, "neighborhood-verify"),
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
