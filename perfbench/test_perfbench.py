"""Tests of the benchmark itself, on tiny sizes: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_sources()
import workloads
from graphquery import adversaries, enumeration, ledger
from graphquery.coloring import BudgetExceededError

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "queries_per_s": "1/s", "peak_rss_mb": "MB", "failed_frac": "ratio",
}
# per-layer metrics that must be nonzero where their layer runs
LAYER_RUNS = {
    "ukc-enumeration": ("canon.calls", "canon.batch_graphs_per_s", "enumeration.candidates", "coloring.ukc.nodes"),
    "adversary-search": ("coloring.answer.nodes", "coloring.audit.calls", "adversaries.separability.queries",
                         "adversaries.unknown-count.queries", "adversaries.contraction.declare_s", "learners.calls"),
    "query-throughput": ("oracles.alpha.queries", "oracles.alpha_m.queries", "oracles.beta.queries",
                         "oracles.set_elems", "ledger.entries", "duel.cells", "learners.queries"),
    "minimax-games": ("minimax.solves", "minimax.alpha_m.busy_s"),
}


def _run(capsys, workload: str, trace: int) -> tuple[int, list[str]]:
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)], tiny=True)
    return code, capsys.readouterr().out.splitlines()


def _table(lines: list[str]) -> dict[str, list[str]]:
    return {line.split()[0]: line.split()[1:] for line in lines[:-1] if line and not line.startswith("#")}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_plain_run_prints_every_end_to_end_metric(workload, capsys):
    code, lines = _run(capsys, workload, 0)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    gated = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == gated
    assert all(m["value"] > 0 for m in result["metrics"].values())
    table = _table(lines)
    for name, unit in END_TO_END_UNITS.items():
        value, shown = table[name][:2]
        assert value == "n/a" or shown == unit, name


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(workload, capsys):
    entry_points = (enumeration.canonical_codes, adversaries.ContractionAdversary.declare, ledger.QueryLedger.append)
    code, lines = _run(capsys, workload, 1)
    assert code == 0
    assert (enumeration.canonical_codes, adversaries.ContractionAdversary.declare,
            ledger.QueryLedger.append) == entry_points, "tracer left a wrapper installed"
    result = json.loads(lines[-1])
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == per_layer
    for name in LAYER_RUNS[workload]:
        assert result["metrics"][name]["value"] > 0, name
    assert (run.OUT / f"{workload}-seed7-spans.csv").is_file()


@pytest.mark.parametrize("table, key, wrong", [
    ("UKC_CLASSES", None, (1, 2, 4, 11, 35, 156, 1044)),
    ("ALPHA_M_VALUES", (3, 2), 3),
])
def test_planted_wrong_expected_value_fails_the_gate(table, key, wrong, capsys, monkeypatch):
    if key is None:
        monkeypatch.setattr(workloads, table, wrong)
    else:
        monkeypatch.setitem(getattr(workloads, table), key, wrong)
    workload = "ukc-enumeration" if table == "UKC_CLASSES" else "minimax-games"
    code, lines = _run(capsys, workload, 0)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_budget_error_is_counted_and_named(capsys, monkeypatch):
    cell = workloads._adversary_cell
    variant, ns, _ = workloads.SEARCH_CELLS[0]

    def exhausted(v, n, k, order):
        if (v, n, k) == (variant, ns.start, 2):
            raise BudgetExceededError("planted")
        return cell(v, n, k, order)

    monkeypatch.setattr(workloads, "_adversary_cell", exhausted)
    code, lines = _run(capsys, "adversary-search", 0)
    assert code == 0
    result = json.loads(lines[-1])
    assert result["failed"] == workloads.ORDERS_PER_CELL
    assert float(_table(lines)["failed_frac"][0]) == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)
    assert any(line.startswith(f"failed: {variant} n={ns.start} k=2 ") for line in lines)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "minimax-games", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
