"""Command-line interface.

Subcommands:
  solve   - solve one instance and print an equilibrium summary
  sweep   - run the configured sweep grid and write a CSV
  check   - print the equilibrium condition diagnostics for a config
  oracle  - run the built-in cross-verification suites (brute force,
            finite differences, quadrature) of chainsure.oracles, which
            only this command loads, and report pass/fail

Exit codes: 0 success, 1 solver non-convergence, solver error or oracle
failure, 2 configuration or usage error, an array too large for memory,
or a closed stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .errors import ConfigurationError, ContractionViolation, check_seed
from .harness import (
    SOLVER_ERRORS,
    ExperimentConfig,
    generate_instance,
    run_sweep,
    solve_row,
    sweep_points,
)
from .market import ThresholdCheck, check_existence, check_uniqueness


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help, unlike argparse's, lets a failed write raise."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _print_threshold(label: str, check: ThresholdCheck) -> None:
    status = "PASS" if check.holds else "FAIL"
    print(f"{'equilibrium ' + label:<31}: {status} "
          f"(attacker resource {check.lhs:g} vs threshold {check.rhs:.6g})")


def _cmd_oracle(args) -> int:
    check_seed(args.seed)
    from . import oracles  # loaded here: no other command needs it

    return oracles.run_suites(args.seed, args.verbose)


_HANDLERS = {"solve": _cmd_solve, "sweep": _cmd_sweep, "check": _cmd_check, "oracle": _cmd_oracle}


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)  # --help writes to stdout here
            return _HANDLERS[args.command](args)
        except SystemExit as exc:  # argparse's exits become return codes
            return int(exc.code) if exc.code else 0
        finally:
            # a reader gone from stdout shows here, not in the interpreter's last flush
            sys.stdout.flush()
    except BrokenPipeError:
        # fd 1 goes to devnull, so the last flush of what is still buffered cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
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
