"""Experiment harness: configs, instance generation, sweeps, CSV output.

A sweep runs one equilibrium solve per point of the Cartesian product of
the configured coordinate lists (users x externality x attacker resource x
block size) and emits one CSV row per point, deterministically ordered and
reproducible from the seed.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np
import numpy.random  # numpy 2 loads it on first use: load it here, not in the first sweep point

from .demand import ExternalityGraph
from .equilibrium import SolveOptions, solve_stackelberg
from .errors import ChainsureError, ConfigurationError, check_seed, is_integer, is_real
from .market import MarketParams, ProviderStrategy, infrastructure_cost
from .risk import RiskModel


def _as_list(name: str, value, kind) -> list:
    values = list(value) if isinstance(value, (list, tuple)) else [value]
    if not values:
        raise ConfigurationError("sweep lists must be nonempty")
    # int() would truncate 2.5 to 2 and float() would parse "7e-4" or take True as 1.0
    is_kind, label = (is_integer, "an integer") if kind is int else (is_real, "a number")
    if not all(is_kind(v) for v in values):
        raise ConfigurationError(f"every {name} must be {label}, got {values!r}")
    return [kind(v) for v in values]


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a sweep; scalars are treated as one-point sweeps."""

    n_users: list[int] = field(default_factory=lambda: [100])
    alpha: list[float] = field(default_factory=lambda: [7e-4])
    attacker_resource: list[float] = field(default_factory=lambda: [100.0])
    tx_per_block: list[int] = field(default_factory=lambda: [100])
    blocks_per_period: float = 10.0
    compensation_rate: float = 10.0
    mining_reward: float = 10.0
    beta: float = 10.0
    price_cap: float = 1.0
    gamma_cap: float = 2.0
    g_low: float = 0.0
    g_high: float = 10.0
    seed: int = 0
    solve: SolveOptions = field(default_factory=SolveOptions)
    output_path: str | None = None

    def __post_init__(self):
        try:
            self._check_fields()
        except (TypeError, ValueError, OverflowError) as exc:  # SolveOptions, MarketParams, float()
            raise ConfigurationError(str(exc)) from exc

    def _check_fields(self):
        if isinstance(self.solve, Mapping):
            object.__setattr__(self, "solve", SolveOptions(**self.solve))
        elif not isinstance(self.solve, SolveOptions):
            raise ConfigurationError(f"solve must be a mapping of solve options, got {self.solve!r}")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type.startswith("list["):
                kind = int if f.type == "list[int]" else float
                object.__setattr__(self, f.name, _as_list(f.name, value, kind))
            elif f.type == "float" and not is_real(value):
                raise ConfigurationError(f"{f.name} must be a number, got {value!r}")
        # open() would take an int or bool as a file descriptor
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ConfigurationError(f"output_path must be a string, got {self.output_path!r}")
        # written so that NaN fails every check
        if not all(n >= 1 for n in self.n_users):
            raise ConfigurationError(f"every n_users must be at least 1, got {self.n_users}")
        if not all(0 <= a < math.inf for a in self.alpha):
            raise ConfigurationError(f"every alpha must be nonnegative and finite, got {self.alpha}")
        if not 0 <= self.g_low <= self.g_high < math.inf:
            raise ConfigurationError(
                f"need 0 <= g_low <= g_high < inf, got g_low={self.g_low}, g_high={self.g_high}"
            )
        check_seed(self.seed)
        # MarketParams and RiskModel hold the range checks on these scalars
        for a, n_t in itertools.product(self.attacker_resource, self.tx_per_block):
            self.market_params(a, n_t)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigurationError(f"config {path} must contain a JSON object")
        return cls.from_dict(raw)

    def market_params(self, attacker_resource: float, tx_per_block: int) -> MarketParams:
        risk = RiskModel(
            blocks_per_period=self.blocks_per_period,
            tx_per_block=tx_per_block,
            compensation_rate=self.compensation_rate,
            mining_reward=self.mining_reward,
        )
        return MarketParams(
            risk=risk,
            attacker_resource=attacker_resource,
            beta=self.beta,
            price_cap=self.price_cap,
            gamma_cap=self.gamma_cap,
        )


@dataclass(frozen=True)
class SweepRow:
    """One solved sweep point; field order defines the CSV schema."""

    n_users: int
    alpha: float
    attacker_resource: float
    tx_per_block: int
    mean_price: float
    total_demand: float
    hbar_star: float
    gamma_star: float
    investment: float
    attack_prob: float
    premium: float
    profit_provider: float
    profit_insurer: float
    converged: bool
    rounds: int


def sweep_points(config: ExperimentConfig) -> list[tuple[int, float, float, int]]:
    """Deterministic row order: the Cartesian product in config-field order."""
    return list(
        itertools.product(
            config.n_users, config.alpha, config.attacker_resource, config.tx_per_block
        )
    )


def generate_instance(config: ExperimentConfig, n: int, alpha: float) -> ExternalityGraph:
    """Seeded externality matrix: off-diagonal U[g_low, g_high], zero diagonal.

    The stream is derived from (seed, n) only, so sweep points that differ
    in alpha, attacker resource, or block size share the same draw and stay
    comparable. Raises ContractionViolation when alpha * rho(G) >= 1: the
    graph factors I - alpha G as it is built, and checks the condition on
    that factorization (see ExternalityGraph).
    """
    if n < 1:
        raise ConfigurationError(f"need at least one user, got {n}")
    # spawn_key (n,) would draw another stream: the 0 keeps every shipped result's draw
    seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(n, 0))
    rng = np.random.default_rng(seq)
    try:
        weights = rng.uniform(config.g_low, config.g_high, size=(n, n))
    except ValueError as exc:
        raise ConfigurationError(f"cannot draw an {n} x {n} externality matrix: {exc}") from exc
    np.fill_diagonal(weights, 0.0)
    return ExternalityGraph(weights=weights, alpha=alpha)


def solve_row(config: ExperimentConfig, graph: ExternalityGraph, n: int, alpha: float,
              a: float, n_t: int) -> SweepRow:
    """Solve the market at one point on the given graph; solver errors propagate."""
    params = config.market_params(a, n_t)
    start = ProviderStrategy(prices=np.full(n, 0.75 * config.price_cap), investment_ratio=0.75)
    report = solve_stackelberg(params, graph, start, config.solve)
    hbar = report.provider.investment_ratio
    return SweepRow(
        n_users=n,
        alpha=alpha,
        attacker_resource=a,
        tx_per_block=n_t,
        mean_price=report.provider.mean_price,
        total_demand=report.demand.total,
        hbar_star=hbar,
        gamma_star=report.insurer.gamma,
        investment=infrastructure_cost(params, hbar),
        attack_prob=report.attack_probability,
        premium=report.premium,
        profit_provider=report.profits[0],
        profit_insurer=report.profits[1],
        converged=report.converged,
        rounds=report.rounds,
    )


def _failed_row(n: int, alpha: float, a: float, n_t: int) -> SweepRow:
    # the solved columns are SweepRow's float fields after the four point coordinates
    solved = (f.name for f in dataclasses.fields(SweepRow)[4:] if f.type == "float")
    return SweepRow(n, alpha, a, n_t, **dict.fromkeys(solved, math.nan), converged=False, rounds=0)


# What a failed solve raises: solve_point records it as a failed row and the
# CLI exits 1 on it. numpy's LinAlgError is a ValueError.
SOLVER_ERRORS = (ChainsureError, ValueError, ArithmeticError)

# (key, graph) for the graph solve_point built last; see _point_graph. A
# module global rather than a run_sweep local passed to solve_point, since
# perfbench/child.py wraps solve_point as exactly (config, n, alpha, a, n_t).
_last_graph: tuple[tuple, ExternalityGraph] | None = None


def _point_graph(config: ExperimentConfig, n: int, alpha: float) -> ExternalityGraph:
    """generate_instance, reusing the previous point's graph when its key matches.

    The key holds everything the draw and its scaling depend on. Sweep points
    come in Cartesian order with n_users and alpha outermost, so points that
    share a graph arrive one after another and share its LU factors and
    symmetric_influence. run_sweep drops the entry when it returns.
    """
    global _last_graph
    key = (config.seed, config.g_low, config.g_high, n, alpha)
    if _last_graph is None or _last_graph[0] != key:
        _last_graph = None  # frees the old graph's A, LU and Q before the draw
        _last_graph = (key, generate_instance(config, n, alpha))
    return _last_graph[1]


def solve_point(config: ExperimentConfig, n: int, alpha: float, a: float,
                n_t: int) -> SweepRow:
    """Solve one sweep point; a solver error gives a failed row, not a failed sweep."""
    try:
        return solve_row(config, _point_graph(config, n, alpha), n, alpha, a, n_t)
    except SOLVER_ERRORS:
        return _failed_row(n, alpha, a, n_t)


def run_sweep(config: ExperimentConfig,
              csv_path: str | Path | None = None) -> list[SweepRow]:
    """Solve every sweep point in order; failures become non-converged rows.

    When csv_path (or config.output_path) is set, each row is written and
    flushed to the file as soon as its point is solved.
    """
    global _last_graph
    target = csv_path if csv_path is not None else config.output_path
    rows: list[SweepRow] = []

    def solved():
        for point in sweep_points(config):
            rows.append(solve_point(config, *point))
            yield rows[-1]

    try:
        if target:
            emit_csv(solved(), target)
        else:
            for _ in solved():
                pass
    finally:
        _last_graph = None
    return rows


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".12g")
    return str(value)


def emit_csv(rows: Iterable[SweepRow], path: str | Path) -> None:
    """Write rows to a UTF-8 CSV: exact field-name header, 12 significant digits.

    The header, then each row as rows yields it, is flushed to the file at
    once, so a sweep's CSV grows point by point.
    """
    names = [f.name for f in dataclasses.fields(SweepRow)]
    try:
        # closing flushes what a failed write left buffered, so it can fail too
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(names)
            handle.flush()
            for row in rows:
                writer.writerow([_format_value(getattr(row, name)) for name in names])
                handle.flush()
    except OSError as exc:
        raise ConfigurationError(f"cannot write CSV {path}: {exc}") from exc

