"""Run one workload of the graphquery benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; graphquery is imported from its `src/`.
The workload's operations run in passes, single-process and on one thread,
for about S seconds (at least one whole pass). Every operation checks its
exact outputs; a mismatch exits with status 1 and prints no result.

With --trace 0 the end-to-end metrics come from plain passes, and their
times are in reference seconds: wall time rescaled to a fixed machine speed,
as a probe timed during the passes measures it (see speed.py). With
--trace 1 plain and traced passes alternate: the traced ones give the
per-layer metrics, and the difference between the two kinds of pass is
the tracing overhead.

stdout ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}, the metrics being the gated end-to-end ones (--trace 0) or every
per-layer one (--trace 1). The lines above it give the run's metadata,
every end-to-end metric with its unit, and each failed operation by name.
The full result, and the spans of a traced run, are written under
`.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# setup_s is the median of this many fresh processes
SETUP_PROBES = 7
# End-to-end metrics in the JSON line: those every workload has and none reads 0.
GATED = ("setup_s", "wall_s", "ops_per_s", "op_p50_ms", "peak_rss_mb")
# op_p90_ms is reported only when at least 10 samples lie beyond it
P90_MIN_OPS = 100


def import_sources():
    """Import graphquery from this checkout's src/ and nowhere else."""
    if not (SRC / "graphquery" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: graphquery sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import graphquery

    if Path(graphquery.__file__).resolve().parent != (SRC / "graphquery").resolve():
        raise SystemExit(f"perfbench: imported graphquery from {graphquery.__file__}, not {SRC}")
    return graphquery


def _setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter() - start
        child.stdout.read()
        child.wait()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed with status {child.returncode}")
    return ready


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _metadata(graphquery, seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "canon_backend": getattr(getattr(graphquery, "_canon", None), "ACTIVE_BACKEND", "unknown"),
        "commit": _commit(),
        "seed": seed,
    }


def bench(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run the workload and return its result; raises GateMismatch on a wrong output."""
    graphquery = import_sources()
    import spans
    import speed
    import workloads
    from graphquery.coloring import BudgetExceededError

    spec = workloads.WORKLOADS[workload]
    meta = _metadata(graphquery, seed)
    setup = [] if trace else [_setup_probe(workload, seed) for _ in range(SETUP_PROBES)]
    ops = spec.build(seed, tiny=tiny)
    clock = speed.WallClock() if trace else speed.SpeedClock(spec.probe)
    tracer = spans.Tracer()
    passes: dict[bool, list[tuple[float, float]]] = {False: [], True: []}
    op_spans: list[tuple[float, float]] = []
    failed = {False: 0, True: 0}
    failures: dict[str, str] = {}
    queries = 0
    traced = False
    origin = time.perf_counter()
    with clock:
        while True:
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                for op in ops:
                    t0 = time.perf_counter()
                    try:
                        used = tracer.operation(op.kind, op.run) if traced else op.run()
                    except BudgetExceededError as exc:
                        failures[op.name] = f"BudgetExceededError: {exc}"
                        failed[traced] += 1
                        used = 0
                    if not traced:
                        op_spans.append((t0, time.perf_counter()))
                        queries += used
            finally:
                tracer.uninstall()
            end = time.perf_counter()
            passes[traced].append((start, end))
            if trace:
                traced = not traced
            if passes[False] and (passes[True] or not trace):
                typical = statistics.median(b - a for a, b in passes[False] + passes[True])
                if end - origin + typical > seconds:
                    break

    plain = [clock.seconds(a, b) for a, b in passes[False]]
    wall = statistics.median(plain)
    result = {
        "workload": workload,
        "trace": int(trace),
        "meta": meta,
        "time_base": "wall" if trace else f"{spec.probe.name} reference",
        "ops_per_pass": len(ops),
        "pass_wall_s": {"plain": [b - a for a, b in passes[False]], "traced": [b - a for a, b in passes[True]]},
        "attempted": len(ops) * (len(passes[False]) + len(passes[True])),
        "failed": failed[False] + failed[True],
        "failures": failures,
    }
    if trace:
        layers = spans.layer_metrics(tracer.spans, len(passes[True]))
        rate = workloads.canon_batch_rate(seed, size=200 if tiny else 2000) if layers["canon.calls"][0] else 0.0
        layers["canon.batch_graphs_per_s"] = (rate, "1/s")
        traced_wall = statistics.median(b - a for a, b in passes[True])
        layers["trace.overhead_s"] = (traced_wall - wall, "s")
        result["per_layer"] = layers
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{workload}-seed{seed}-spans.csv", origin)
        return result
    latencies = [clock.seconds(a, b) for a, b in op_spans]
    result["end_to_end"] = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": ((len(ops) - failed[False] / len(plain)) / wall, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms") if len(latencies) >= P90_MIN_OPS else None,
        "queries_per_s": (queries / len(plain) / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_frac": (failed[False] / len(latencies), "ratio"),
    }
    result["latency_samples"] = len(latencies)
    return result


def _report(result: dict) -> dict:
    """Print the human-readable lines and return the JSON line's object."""
    meta = " ".join(f"{k}={v}" for k, v in result["meta"].items())
    print(f"# perfbench workload={result['workload']} trace={result['trace']} {meta}")
    walls = " ".join(f"{x:.3f}" for x in result["pass_wall_s"]["plain"] + result["pass_wall_s"]["traced"])
    print(f"# ops per pass={result['ops_per_pass']} time base={result['time_base']} pass wall seconds: {walls}")
    for name, why in result["failures"].items():
        print(f"failed: {name}: {why}")
    if result["trace"]:
        for name, (value, unit) in result["per_layer"].items():
            print(f"{name:<44} {value:.6g} {unit}")
        chosen = result["per_layer"]
    else:
        for name, metric in result["end_to_end"].items():
            if metric is None:
                print(f"{name:<16} n/a (fewer than {P90_MIN_OPS} ops)")
            else:
                print(f"{name:<16} {metric[0]:.6g} {metric[1]}")
        print(f"# op latency samples={result['latency_samples']}")
        chosen = {name: result["end_to_end"][name] for name in GATED}
    return {
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }


def main(argv: list[str] | None = None, tiny: bool = False) -> int:
    import_sources()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        workloads.WORKLOADS[args.workload].build(args.seed, tiny=tiny)
        print("ready", flush=True)
        return 0
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace), tiny=tiny)
    except workloads.GateMismatch as exc:
        print(f"perfbench: exact-output check failed on {args.workload}: {exc}", file=sys.stderr)
        return 1
    line = _report(result)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
