"""Run one benchmark unit in a fresh interpreter: one `chainsure sweep`.

Usage: python3 child.py <spec.json> <spawn time>

The spec names the generated config, the CSV to write, an optional
shipped CSV the rows must equal, and whether to trace. The spawn time is
the parent's CLOCK_MONOTONIC reading just before it started this process,
so set-up time covers interpreter start, `import chainsure` and loading
the config. After the sweep it times a fixed reference kernel, which
does not use chainsure, so that the parent can express times in units
of the machine's current speed. The last line on stdout is a JSON
object with the timings, the correctness result and, when traced, the
per-layer counters.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time

REFERENCE_REPEATS = 3


def reference_kernel() -> dict[str, float]:
    """Seconds taken by two parts of fixed work that does not use chainsure.

    "memory": dense matrix-vector products that stream an 8 MB matrix.
    "interpreter": one numpy call per matrix row, then scalar Python
    arithmetic. Each workload divides its times by the part whose speed
    tracks its own (see workloads.REFERENCE_PART).
    """
    import numpy as np

    matrix = np.random.default_rng(0).random((1000, 1000))
    x = np.ones(1000)
    start = time.perf_counter()
    for _ in range(40):
        x = matrix @ x
        x /= x.sum()
    memory = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(2):
        for i in range(1000):
            x[i] = (matrix[i] @ x) / x.size
    acc = 0.0
    for i in range(1, 100_000):
        acc += math.log(i) / (1.0 + acc * 1e-9)
    return {"memory": memory, "interpreter": time.perf_counter() - start}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    spawned = float(sys.argv[2])

    from chainsure import cli, harness

    config = harness.ExperimentConfig.from_json(spec["config"])
    setup_s = time.monotonic() - spawned

    import contextlib
    import io
    import os
    import platform
    import resource

    import numpy
    import scipy

    from checks import check_sweep
    from tracer import Tracer

    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()

    point_s: list[float] = []
    rounds: list[int] = []
    solved: dict = {}
    current_point = None
    solve_point, solve_stackelberg = harness.solve_point, harness.solve_stackelberg

    def timed_solve_point(config, n, alpha, a, n_t):
        nonlocal current_point
        current_point = (n, alpha, a, n_t)
        start = time.perf_counter()
        row = solve_point(config, n, alpha, a, n_t)
        point_s.append(time.perf_counter() - start)
        return row

    def captured_solve_stackelberg(*args, **kwargs):
        report = solve_stackelberg(*args, **kwargs)
        solved[current_point] = (report.provider, report.insurer, report.converged)
        rounds.append(report.rounds)
        return report

    harness.solve_point = timed_solve_point
    harness.solve_stackelberg = captured_solve_stackelberg

    argv = ["sweep", "--config", spec["config"], "--out", spec["csv"], "--threads", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        exit_code = cli.main(argv)
        sweep_s = time.perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    harness.solve_point, harness.solve_stackelberg = solve_point, solve_stackelberg
    if tracer:
        tracer.uninstall()
    # after the RSS reading, so that the kernel's matrix cannot set the peak
    kernels = [reference_kernel() for _ in range(REFERENCE_REPEATS)]
    reference_s = {part: statistics.median(k[part] for k in kernels) for part in kernels[0]}

    failed, messages = check_sweep(config, solved, spec["csv"], spec["reference"])
    if exit_code != 0:
        messages.append(f"chainsure sweep exited with {exit_code}")

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "setup_s": setup_s,
        "sweep_s": sweep_s,
        "reference_s": reference_s,
        "point_s": point_s,
        "maxrss_kb": maxrss_kb,
        "points": len(harness.sweep_points(config)),
        "failed": failed,
        "messages": messages,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if tracer:
        result["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "rounds": sum(rounds),
            "csv_bytes": os.path.getsize(spec["csv"]),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
