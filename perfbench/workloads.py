"""Benchmark workloads: the sweep configs each run feeds to the program.

Every workload is an endless, seed-determined sequence of groups. A group
is a list of units, and a unit is one sweep config that one fresh
interpreter runs through `chainsure sweep`. The timed loop checks its
deadline only between groups, so each run keeps the workload's mix of
point sizes intact.

Why each workload exists:

- paper_sweeps: the two shipped grids, as a user of the paper runs them.
  Every user saturates, so every point falls back to the clamped demand
  solver, and the survival-grid cache almost always hits. The first group
  is always seed 0, whose rows must equal the shipped CSVs.
- large_n: the attacker-resource grid at n = 1000 with alpha = 0.07 / n,
  which keeps alpha * rho(G) near 0.35 as in the paper grid. Dense linear
  algebra and the provider's O(n^2) price sweeps dominate; the risk layer
  is about 1 ms of a solve. Five points share each interpreter start, so
  a run holds enough points for its percentiles.
- risk_grid: small n with a tiny externality (alpha * rho(G) near 0.005),
  so demand stays interior and the clamped solver never runs. Each unit
  has one attacker resource and many distinct block sizes, so every point
  builds a new RiskModel and misses the survival-grid cache whatever its
  size. The incomplete Beta, the premium and the insurer's search dominate.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Iterator

WORKLOADS = ("paper_sweeps", "large_n", "risk_grid")

# The reference-kernel part (see child.py) each workload's times are
# divided by. On a shared 2-core machine, the pure-Python parts swung
# between two speeds about 1.9x apart, and the memory-streaming part moved
# on its own. Over 35 s windows of one long run, the paper_sweeps times
# followed the interpreter part: the spread of point_ref_p50 was 0.03,
# against 0.06 for the memory part. The large_n times followed the memory
# part: 0.06, against 0.14 for the interpreter part.
REFERENCE_PART = {"paper_sweeps": "interpreter", "large_n": "memory", "risk_grid": "interpreter"}

# Groups each traced run processes: a fixed amount of work, so that the
# traced counts repeat exactly for a seed.
TRACE_GROUPS = {"paper_sweeps": 2, "large_n": 1, "risk_grid": 2}

PAPER_GRIDS = ("user_scaling", "attacker_resource")
LARGE_N = 1000
LARGE_N_ATTACKER_RESOURCE = [50.0, 75.0, 100.0, 125.0, 150.0]
RISK_GRID_USERS = 30
RISK_GRID_BLOCK_SIZES = 120
# For U[0, 10] weights with a zero diagonal, rho(G) is close to 5 (n - 1).
RISK_GRID_ALPHA = 0.005 / (5.0 * (RISK_GRID_USERS - 1))
# With a near-zero externality a user's demand is about 1 + hbar - price.
# The solve starts at prices of 0.75 * cap and hbar = 0.75, so a cap of 1.2
# keeps even the starting demand inside [0, 1]; the provider's optimum,
# about (1 + hbar) / 2, stays below the cap.
RISK_GRID_PRICE_CAP = 1.2


def _instance_seeds(seed: int) -> Iterator[int]:
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 2**32)


def _paper_groups(root: Path, seed: int) -> Iterator[list[dict]]:
    grids = {}
    for name in PAPER_GRIDS:
        raw = json.loads((root / "configs" / f"{name}.json").read_text(encoding="utf-8"))
        raw.pop("output_path", None)  # never write into results/
        grids[name] = raw

    def group(instance_seed: int) -> list[dict]:
        return [
            {"config": {**grids[name], "seed": instance_seed},
             "reference": name if instance_seed == 0 else None}
            for name in PAPER_GRIDS
        ]

    yield group(0)
    for instance_seed in _instance_seeds(seed):
        yield group(instance_seed)


def _large_groups(seed: int) -> Iterator[list[dict]]:
    for instance_seed in _instance_seeds(seed):
        config = {
            "n_users": [LARGE_N],
            "alpha": [0.07 / LARGE_N],
            "attacker_resource": LARGE_N_ATTACKER_RESOURCE,
            "seed": instance_seed,
        }
        yield [{"config": config, "reference": None}]


def _risk_groups(seed: int) -> Iterator[list[dict]]:
    rng = random.Random(seed)
    while True:
        config = {
            "n_users": [RISK_GRID_USERS],
            "alpha": [RISK_GRID_ALPHA],
            "price_cap": RISK_GRID_PRICE_CAP,
            "attacker_resource": [round(rng.uniform(20.0, 200.0), 3)],
            "tx_per_block": sorted(rng.sample(range(50, 401), RISK_GRID_BLOCK_SIZES)),
            "seed": rng.randrange(1, 2**32),
        }
        yield [{"config": config, "reference": None}]


def groups(workload: str, seed: int, root: Path) -> Iterator[list[dict]]:
    """The workload's endless group sequence for this seed."""
    if workload == "paper_sweeps":
        return _paper_groups(root, seed)
    if workload == "large_n":
        return _large_groups(seed)
    if workload == "risk_grid":
        return _risk_groups(seed)
    raise ValueError(f"unknown workload {workload!r}")


def trace_groups(workload: str, seed: int, root: Path) -> list[list[dict]]:
    """The fixed prefix of the sequence that a traced run processes."""
    sequence = groups(workload, seed, root)
    return [next(sequence) for _ in range(TRACE_GROUPS[workload])]


def point_count(config: dict) -> int:
    """Number of sweep points in a config: the product of its list lengths."""
    count = 1
    for key in ("n_users", "alpha", "attacker_resource", "tx_per_block"):
        value = config.get(key, [0])
        count *= len(value) if isinstance(value, list) else 1
    return count
