"""Checks on the benchmark itself. Run from the repository root with

    python3 -m pytest perfbench

It runs the traced benchmark twice per workload on one seed, which takes
about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SEED = 5


def _run(workload: str, trace: int, seconds: int = 10) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return result["metrics"]


def _counts(metrics: dict) -> dict:
    return {name: m["value"] for name, m in metrics.items() if m["unit"] in ("count", "B", "ratio")}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def traced() -> dict:
    return {w: (_run(w, trace=1), _run(w, trace=1)) for w in workloads.WORKLOADS}


def test_traced_counts_repeat_exactly(traced):
    for first, second in traced.values():
        assert _counts(first) == _counts(second)


def test_risk_grid_never_calls_the_clamped_solver(traced):
    metrics = traced["risk_grid"][0]
    assert metrics["demand.lcp_demand.calls"]["value"] == 0
    assert metrics["demand.closed_form_demand.calls"]["value"] > 0


def test_paper_sweeps_survival_grid_runs_once_per_risk_model(traced):
    # Each unit runs in its own interpreter, and block size is the only
    # RiskModel field a paper grid varies.
    expected = sum(
        len(set(unit["config"]["tx_per_block"]))
        for group in workloads.trace_groups("paper_sweeps", SEED, ROOT)
        for unit in group
    )
    assert traced["paper_sweeps"][0]["risk.survival_grid.calls"]["value"] == expected


def test_traced_run_emits_every_per_layer_metric(traced):
    declared = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    for first, _ in traced.values():
        assert {name: m["unit"] for name, m in first.items()} == declared


def test_timed_run_emits_every_end_to_end_metric():
    declared = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    metrics = _run("risk_grid", trace=0, seconds=1)
    assert {name: m["unit"] for name, m in metrics.items()} == declared
    assert all(m["value"] > 0 for m in metrics.values())
