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
from typing import Iterable, Sequence

import numpy as np
import numpy.random  # numpy 2 loads it on first use: load it here, not in the first sweep point

from .demand import ExternalityGraph
from .equilibrium import EquilibriumReport, SolveOptions, solve_stackelberg
from .errors import ChainsureError, ConfigurationError, check_seed, is_integer
from .market import MarketParams, ProviderStrategy, infrastructure_cost
from .risk import RiskModel, attack_probability, premium


def _as_list(name: str, value, kind) -> list:
    values = list(value) if isinstance(value, (list, tuple)) else [value]
    if not values:
        raise ConfigurationError("sweep lists must be nonempty")
    # int() would truncate 2.5 to 2; a count must be given as an integer
    if kind is int and not all(is_integer(v) for v in values):
        raise ConfigurationError(f"every {name} must be an integer, got {values!r}")
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
    replicates: int = 1
    solve: SolveOptions = field(default_factory=SolveOptions)
    output_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_users", _as_list("n_users", self.n_users, int))
        object.__setattr__(self, "alpha", _as_list("alpha", self.alpha, float))
        object.__setattr__(self, "attacker_resource",
                           _as_list("attacker_resource", self.attacker_resource, float))
        object.__setattr__(self, "tx_per_block", _as_list("tx_per_block", self.tx_per_block, int))
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
        if not is_integer(self.replicates) or self.replicates < 1:
            raise ConfigurationError(f"replicates must be an integer of at least 1, got {self.replicates!r}")
        # MarketParams and RiskModel hold the range checks on these scalars
        for a, n_t in itertools.product(self.attacker_resource, self.tx_per_block):
            self.market_params(a, n_t)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(raw)
        try:
            if "solve" in kwargs:
                kwargs["solve"] = SolveOptions(**kwargs["solve"])
            return cls(**kwargs)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(str(exc)) from exc

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


def generate_instance(config: ExperimentConfig, n: int, alpha: float,
                      replicate: int = 0) -> ExternalityGraph:
    """Seeded externality matrix: off-diagonal U[g_low, g_high], zero diagonal.

    The stream is derived from (seed, n, replicate) only, so sweep points
    that differ in alpha, attacker resource, or block size share the same
    draw and stay comparable. Raises ContractionViolation when
    alpha * rho(G) >= 1.
    """
    if n < 1:
        raise ConfigurationError(f"need at least one user, got {n}")
    seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(n, replicate))
    rng = np.random.default_rng(seq)
    try:
        weights = rng.uniform(config.g_low, config.g_high, size=(n, n))
    except (ValueError, MemoryError) as exc:
        raise ConfigurationError(f"cannot draw an {n} x {n} externality matrix: {exc}") from exc
    np.fill_diagonal(weights, 0.0)
    return ExternalityGraph(weights=weights, alpha=alpha)


def _default_start(config: ExperimentConfig, n: int) -> ProviderStrategy:
    return ProviderStrategy(prices=np.full(n, 0.75 * config.price_cap), investment_ratio=0.75)


def _report_row(params: MarketParams, n: int, alpha: float, a: float,
                n_t: int, report: EquilibriumReport) -> SweepRow:
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
        attack_prob=attack_probability(params.risk, hbar),
        premium=premium(params.risk, report.insurer.gamma),
        profit_provider=report.profits[0],
        profit_insurer=report.profits[1],
        converged=report.converged,
        rounds=report.rounds,
    )


# The solved columns: SweepRow's float fields after the four point coordinates
_RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(SweepRow)[4:] if f.type == "float")


def _failed_row(n: int, alpha: float, a: float, n_t: int) -> SweepRow:
    return SweepRow(n, alpha, a, n_t, **dict.fromkeys(_RESULT_FIELDS, float("nan")),
                    converged=False, rounds=0)


def _mean_rows(rows: Sequence[SweepRow]) -> SweepRow:
    if len(rows) == 1:
        return rows[0]
    first = rows[0]
    numeric = {
        name: float(np.mean([getattr(r, name) for r in rows]))
        for name in _RESULT_FIELDS
    }
    return SweepRow(
        n_users=first.n_users, alpha=first.alpha,
        attacker_resource=first.attacker_resource, tx_per_block=first.tx_per_block,
        converged=all(r.converged for r in rows),
        rounds=max(r.rounds for r in rows),
        **numeric,
    )


# What a failed solve raises: solve_point records it as a failed row and the
# CLI exits 1 on it. numpy's LinAlgError is a ValueError.
SOLVER_ERRORS = (ChainsureError, ValueError, ArithmeticError)

# (key, {replicate: graph}) for the graphs solve_point built last; see _point_graph.
_last_graphs: tuple[tuple, dict[int, ExternalityGraph]] | None = None


def _point_graph(config: ExperimentConfig, n: int, alpha: float,
                 replicate: int) -> ExternalityGraph:
    """generate_instance, reusing the previous point's graphs when they match.

    The key holds everything the draw and its scaling depend on except the
    replicate, and the entry keeps one graph per replicate. Sweep points
    come in Cartesian order with n_users and alpha outermost, so points
    that share their graphs arrive one after another and share the LU
    factors, rho(G) and symmetric_influence. run_sweep drops the entry
    when it returns.
    """
    global _last_graphs
    key = (config.seed, config.g_low, config.g_high, n, alpha)
    if _last_graphs is not None and _last_graphs[0] == key:
        graphs = _last_graphs[1]
    else:
        graphs = {}
        _last_graphs = (key, graphs)
    graph = graphs.get(replicate)
    if graph is None:
        graph = generate_instance(config, n, alpha, replicate=replicate)
        graphs[replicate] = graph
    return graph


def solve_point(config: ExperimentConfig, n: int, alpha: float, a: float,
                n_t: int) -> SweepRow:
    """Solve one sweep point (averaging over replicates when configured)."""
    replicate_rows = []
    for rep in range(config.replicates):
        try:
            graph = _point_graph(config, n, alpha, rep)
            params = config.market_params(a, n_t)
            report = solve_stackelberg(params, graph, _default_start(config, n), config.solve)
            replicate_rows.append(_report_row(params, n, alpha, a, n_t, report))
        # a numerical error fails this point's row, not the sweep
        except SOLVER_ERRORS:
            replicate_rows.append(_failed_row(n, alpha, a, n_t))
    return _mean_rows(replicate_rows)


def run_sweep(config: ExperimentConfig,
              csv_path: str | Path | None = None) -> list[SweepRow]:
    """Solve every sweep point in order; failures become non-converged rows.

    When csv_path (or config.output_path) is set, each row is written and
    flushed to the file as soon as its point is solved.
    """
    global _last_graphs
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
        _last_graphs = None
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


# SweepRow's annotations are strings: this module postpones their evaluation
_PARSERS = {"int": int, "float": float, "bool": lambda text: text == "true"}


def read_csv(path: str | Path) -> list[SweepRow]:
    """Parse a file produced by emit_csv back into rows."""
    fields = dataclasses.fields(SweepRow)
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return [
            SweepRow(**{f.name: _PARSERS[f.type](record[f.name]) for f in fields})
            for record in csv.DictReader(handle)
        ]
