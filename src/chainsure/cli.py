"""Command-line interface.

Subcommands:
  solve   - solve one instance and print an equilibrium summary
  sweep   - run the configured sweep grid and write a CSV
  check   - print the equilibrium condition diagnostics for a config
  oracle  - run the built-in cross-verification suites (brute force,
            finite differences, quadrature) and report pass/fail

Exit codes: 0 success, 1 solver non-convergence, solver error or oracle
failure, 2 configuration or usage error, or an array too large for memory.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import market
from .demand import ExternalityGraph, brute_force_lcp, lcp_demand
from .errors import ConfigurationError, ContractionViolation, check_seed
from .harness import (
    SOLVER_ERRORS,
    ExperimentConfig,
    generate_instance,
    run_sweep,
    solve_row,
    sweep_points,
)
from .market import InsurerStrategy, MarketParams, ProviderStrategy, check_existence, check_uniqueness
from .risk import RiskModel, attack_probability, expected_loss, premium
from .specfun import adaptive_simpson


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainsure",
        description="Blockchain-service market equilibrium with cyber-insurance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_solve = sub.add_parser("solve", help="solve one instance")
    common(p_solve)

    p_sweep = sub.add_parser("sweep", help="run the configured sweep and write CSV")
    common(p_sweep)
    p_sweep.add_argument("--out", default=None, help="CSV output path (overrides config)")
    p_sweep.add_argument("--threads", type=int, choices=(1,), default=1,
                         help="sweeps always run on one thread; the flag is kept "
                              "only so that existing command lines still parse")

    p_check = sub.add_parser("check", help="print equilibrium condition diagnostics")
    common(p_check)

    p_oracle = sub.add_parser("oracle", help="run cross-verification suites")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--verbose", action="store_true")
    return parser


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_json(args.config)
    return config if args.seed is None else dataclasses.replace(config, seed=args.seed)


def _cmd_solve(args) -> int:
    config = _load_config(args)
    n, alpha, a, n_t = sweep_points(config)[0]
    row = solve_row(config, generate_instance(config, n, alpha), n, alpha, a, n_t)
    print(f"instance: n={n} alpha={alpha:g} attacker_resource={a:g} tx_per_block={n_t}")
    print(f"converged: {row.converged} after {row.rounds} provider passes")
    print(f"mean price       : {row.mean_price:.6f}")
    print(f"investment ratio : {row.hbar_star:.6f}")
    print(f"premium coeff    : {row.gamma_star:.6f}")
    print(f"total demand     : {row.total_demand:.6f}")
    print(f"attack prob      : {row.attack_prob:.6e}")
    print(f"premium          : {row.premium:.6f}")
    print(f"provider profit  : {row.profit_provider:.6f}")
    print(f"insurer profit   : {row.profit_insurer:.6f}")
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    out = args.out if args.out is not None else config.output_path
    if not out:
        print("error: no output path (--out or config output_path)", file=sys.stderr)
        return 2
    rows = run_sweep(config, csv_path=out)
    failed = [r for r in rows if not r.converged]
    print(f"wrote {len(rows)} rows to {out} ({len(failed)} non-converged)")
    return 0 if not failed else 1


def _cmd_check(args) -> int:
    config = _load_config(args)
    n, alpha, a, n_t = sweep_points(config)[0]
    params = config.market_params(a, n_t)
    try:
        graph = generate_instance(config, n, alpha)
    except ContractionViolation as exc:
        # still diagnostic: report the spectral failure and the closed-form check
        _print_contraction("FAIL", exc.alpha_rho)
        _print_threshold("uniqueness", check_uniqueness(params))
        return 0
    _print_contraction("PASS", graph.alpha_rho)
    _print_threshold("existence", check_existence(params, graph))
    _print_threshold("uniqueness", check_uniqueness(params))
    return 0


def _print_contraction(status: str, alpha_rho: float) -> None:
    print(f"externality spectral condition : {status} "
          f"(alpha * rho(G) = {alpha_rho:.6g}, needs < 1)")


def _print_threshold(label: str, check: market.ThresholdCheck) -> None:
    status = "PASS" if check.holds else "FAIL"
    print(f"{'equilibrium ' + label:<31}: {status} "
          f"(attacker resource {check.lhs:g} vs threshold {check.rhs:.6g})")


def _oracle_lcp(rng: np.random.Generator, verbose: bool) -> bool:
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 7))
        weights = rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(weights, 0.0)
        graph_alpha = 0.8 / max(float(np.abs(np.linalg.eigvals(weights)).max()), 1e-9)
        graph = ExternalityGraph(weights, rng.uniform(0.0, graph_alpha))
        hbar = rng.uniform(0.5, 0.999)
        p = rng.uniform(0.05, 2.0, n)
        reference = brute_force_lcp(graph, hbar, p)
        solved = lcp_demand(graph, hbar, p)
        worst = max(worst, float(np.max(np.abs(reference.x - solved.x))))
    if verbose:
        print(f"  worst demand-solver deviation: {worst:.3e}")
    return worst < 1e-9


def _oracle_gradients(rng: np.random.Generator, verbose: bool) -> bool:
    worst = 0.0
    for _ in range(10):
        n = 4
        weights = rng.uniform(0.0, 10.0, (n, n))
        np.fill_diagonal(weights, 0.0)
        graph = ExternalityGraph(weights, 0.01)
        risk = RiskModel(10.0, 100, 10.0, 10.0)
        params = MarketParams(risk, 100.0, 10.0, 1.0, 2.0)
        s_p = ProviderStrategy(rng.uniform(0.1, 1.0, n), rng.uniform(0.55, 0.95))
        s_i = InsurerStrategy(rng.uniform(1.05, 1.95))
        grad = market.provider_gradient(params, graph, s_p, s_i)
        step = 1e-5
        for k in range(n + 1):
            base = np.concatenate([s_p.prices, [s_p.investment_ratio]])
            up, dn = base.copy(), base.copy()
            up[k] += step
            dn[k] -= step
            f_up = market.provider_profit(
                params, graph, ProviderStrategy(up[:n], up[n]), s_i)
            f_dn = market.provider_profit(
                params, graph, ProviderStrategy(dn[:n], dn[n]), s_i)
            fd = (f_up - f_dn) / (2 * step)
            worst = max(worst, abs(grad[k] - fd) / max(1.0, abs(fd)))
        gi = market.insurer_gradient(params, s_p, s_i)
        f_up = market.insurer_profit(params, s_p, InsurerStrategy(s_i.gamma + step))
        f_dn = market.insurer_profit(params, s_p, InsurerStrategy(s_i.gamma - step))
        fd = (f_up - f_dn) / (2 * step)
        worst = max(worst, abs(gi - fd) / max(1.0, abs(fd)))
    if verbose:
        print(f"  worst gradient deviation: {worst:.3e}")
    return worst < 1e-6


def _oracle_quadrature(verbose: bool) -> bool:
    risk = RiskModel(10.0, 100, 10.0, 10.0)

    def p_fn(theta):
        return attack_probability(risk, theta)

    def survival(t):
        return 1.0 - adaptive_simpson(p_fn, 0.5, t, 1e-10)

    worst = 0.0
    mid = expected_loss(risk)
    ora = risk.claim_scale * adaptive_simpson(survival, 0.5, 1.0, 1e-10)
    worst = max(worst, abs(mid - ora) / abs(ora))
    mid2 = premium(risk, 2.0)
    ora2 = risk.claim_scale * adaptive_simpson(lambda t: survival(t) ** 0.5, 0.5, 1.0, 1e-10)
    worst = max(worst, abs(mid2 - ora2) / abs(ora2))
    if verbose:
        print(f"  worst quadrature deviation: {worst:.3e}")
    return worst < 1e-3


def _cmd_oracle(args) -> int:
    check_seed(args.seed)
    rng = np.random.default_rng(args.seed)
    checks = [
        ("demand solvers agree (partition enumeration vs projected Gauss-Seidel)",
         lambda: _oracle_lcp(rng, args.verbose)),
        ("analytic derivatives match finite differences",
         lambda: _oracle_gradients(rng, args.verbose)),
        ("midpoint grid matches adaptive quadrature",
         lambda: _oracle_quadrature(args.verbose)),
    ]
    failures = 0
    for label, run in checks:
        ok = run()
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    handlers = {
        "solve": _cmd_solve,
        "sweep": _cmd_sweep,
        "check": _cmd_check,
        "oracle": _cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2
    except SOLVER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
