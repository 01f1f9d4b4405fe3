#!/usr/bin/env python3
"""The chainsure benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With --trace 0 it runs the workload's units closed-loop, one after the
other and each in a fresh interpreter, until --seconds have passed, and
reports the end-to-end metrics. With --trace 1 it runs a fixed prefix of
the same units twice, untraced and then traced, and reports per-layer
call counts and self times plus the tracing overhead. Every point's
output is checked (see checks.py). The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is
0 when every output is correct, 1 when one is not, and 2 when the
checkout holds no chainsure source to run.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYERS
from workloads import REFERENCE_PART, WORKLOADS, groups, point_count, trace_groups

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One BLAS thread: steadier timings than a pool on a small shared machine.
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 150
# setup_s is each process's set-up time over the time of load_kernel, run
# just before the process starts, times this nominal kernel time. On a
# shared 2-core machine, 20-process medians of plain set-up time moved by
# a factor of 1.8 within five minutes. Set-up's CPU time equalled its wall
# time, so the machine's speed, not I/O, moved it.
NOMINAL_LOAD_S = 0.04
LOAD_REPEATS = 8
# A module's worth of function definitions with constants, for load_kernel.
LOAD_BLOB = marshal.dumps(compile("".join(
    f"def f{i}(x, y={i}):\n    return [x * k + y for k in range({i % 7 + 1})], '{i}' * 3, ({i}, x)\n"
    for i in range(1000)), "load_kernel", "exec"))


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    return env


def _reference_csv(name: str) -> str:
    """A frozen copy of the shipped results/<name>.csv.

    A copy, because `chainsure sweep` on the shipped configs rewrites
    results/, after which the rows would be checked against themselves.
    """
    return str(HERE / "reference" / f"{name}.csv")


def load_kernel() -> float:
    """Seconds taken by the kind of work set-up does, without chainsure.

    It unmarshals and runs a module body, then writes fresh pages, as
    imports do. It runs in this process, so that its memory does not
    count in the peak RSS of the measured one.
    """
    start = time.perf_counter()
    for _ in range(LOAD_REPEATS):
        exec(marshal.loads(LOAD_BLOB), {})
        pages = bytearray(b"\1") * (16 << 20)
        del pages
    return time.perf_counter() - start


def run_unit(work: Path, index: int, unit: dict, trace: bool) -> dict:
    """Run one unit in a fresh interpreter and return its result object."""
    config_path = work / f"{index}.config.json"
    spec_path = work / f"{index}.spec.json"
    config_path.write_text(json.dumps(unit["config"]), encoding="utf-8")
    spec = {
        "config": str(config_path),
        "csv": str(work / f"{index}.csv"),
        "reference": _reference_csv(unit["reference"]) if unit["reference"] else None,
        "trace": trace,
    }
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    points = point_count(unit["config"])
    command = [sys.executable, str(HERE / "child.py"), str(spec_path)]
    try:
        load_s = load_kernel()
        spawned = time.monotonic()
        proc = subprocess.run(command + [repr(spawned)], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"points": points, "failed": points,
                "messages": [f"unit {index} timed out after {CHILD_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"points": points, "failed": points,
                "messages": [f"unit {index} exited with {proc.returncode}: " + " | ".join(tail)]}
    return {**json.loads(lines[-1]), "load_s": load_s}


def _timed(workload: str, seed: int, seconds: float, work: Path) -> list[dict]:
    results = []
    deadline = time.monotonic() + seconds
    for group in groups(workload, seed, ROOT):
        for unit in group:
            results.append(run_unit(work, len(results), unit, trace=False))
        if time.monotonic() >= deadline:
            return results


def _point_times(results: list[dict]) -> list[float]:
    return [t for r in results for t in r.get("point_s", [])]


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles cuts it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(results: list[dict], part: str) -> tuple[dict, list[str]]:
    """End-to-end metrics of a timed run, and extra lines for the summary.

    Point times are divided by the time of the reference kernel's part in
    the same process (1 ref), because a shared machine's speed can drift by
    1.7x within minutes. The summary also prints the figures in seconds,
    and the upper percentiles, which drifted more than the median.
    """
    ok = [r for r in results if "sweep_s" in r]
    if not ok:
        return {}, []
    points = _point_times(ok)
    relative = [t / r["reference_s"][part] for r in ok for t in r["point_s"]]
    solved = sum(r["points"] for r in ok)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] / r["load_s"] for r in ok)
                    * NOMINAL_LOAD_S, "s"),
        "points_per_ref": (solved / sum(r["sweep_s"] / r["reference_s"][part] for r in ok), "1/ref"),
        "point_ref_p50": (statistics.median(relative), "ref"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in ok) / 1024.0, "MB"),
    }
    extra = [
        f"points {len(points)} in {len(results)} processes",
        f"1 ref = reference kernel's {part} part, median "
        f"{statistics.median(r['reference_s'][part] for r in ok):.6g} s",
        f"setup_s in plain seconds, median {statistics.median(r['setup_s'] for r in ok):.6g} s; "
        f"load kernel, median {statistics.median(r['load_s'] for r in ok):.6g} s",
        f"points_per_s {solved / sum(r['sweep_s'] for r in ok):.6g} 1/s",
        f"point_s_p50 {statistics.median(points):.6g} s",
        f"point_s_p75 {_quantile(points, 75):.6g} s",
        f"point_ref_p75 {_quantile(relative, 75):.6g} ref",
    ]
    if len(points) >= 100:
        extra.append(f"point_s_p90 {_quantile(points, 90):.6g} s")
    return metrics, extra


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and extra lines for the summary."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    rounds = csv_bytes = 0
    for result in traced:
        trace = result.get("trace")
        if not trace:
            continue
        for name, count in trace["calls"].items():
            calls[name] = calls.get(name, 0) + count
        for name, seconds in trace["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + seconds
        rounds += trace["rounds"]
        csv_bytes += trace["csv_bytes"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    closed = calls.get("demand.closed_form_demand", 0)
    metrics["demand.lcp_fallback_ratio"] = (
        calls.get("demand.lcp_demand", 0) / closed if closed else 0.0, "ratio")
    metrics["equilibrium.solve_stackelberg.rounds"] = (rounds, "count")
    metrics["harness.csv_bytes"] = (csv_bytes, "B")
    plain, traced_points = _point_times(untraced), _point_times(traced)
    extra = []
    if plain and traced_points:
        p50_plain, p50_traced = statistics.median(plain), statistics.median(traced_points)
        metrics["trace.overhead_s"] = (p50_traced - p50_plain, "s")
        extra.append(f"tracing overhead: point_s_p50 {p50_traced:.6g} s traced, "
                     f"{p50_plain:.6g} s untraced, {len(traced_points)} points")
    return metrics, extra


def _git_commit() -> str:
    # the ceiling stops git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment(results: list[dict]) -> str:
    env = next((r["env"] for r in results if "env" in r), {})
    fields = {"nproc": len(os.sched_getaffinity(0)), "blas_threads": env.get("blas_threads"),
              "python": env.get("python"), "numpy": env.get("numpy"),
              "scipy": env.get("scipy"), "blas": env.get("blas"), "commit": _git_commit()}
    return "environment: " + ", ".join(f"{k}={v}" for k, v in fields.items())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    missing = [p for p in ("src/chainsure/__init__.py", "configs/user_scaling.json",
                           "configs/attacker_resource.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: the checkout at {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2

    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=HERE / ".work"))
    try:
        if args.trace:
            units = [u for g in trace_groups(args.workload, args.seed, ROOT) for u in g]
            untraced, traced = [], []
            for unit in units:  # interleaved, so drift in machine speed hits both alike
                untraced.append(run_unit(work, 2 * len(traced), unit, trace=False))
                traced.append(run_unit(work, 2 * len(traced) + 1, unit, trace=True))
            results = untraced + traced
            metrics, extra = per_layer(untraced, traced)
        else:
            results = _timed(args.workload, args.seed, args.seconds, work)
            metrics, extra = end_to_end(results, REFERENCE_PART[args.workload])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["points"] for r in results)
    failed = sum(r["failed"] for r in results)
    messages = [m for r in results for m in r.get("messages", [])]
    correct = not messages and bool(metrics)
    for message in messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} points attempted, {failed} failed "
          f"(failed_frac {failed / attempted if attempted else 0.0:.6g})")
    print(_environment(results))
    for line in extra:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
