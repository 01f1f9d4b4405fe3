"""Correctness checks on one sweep's output, run after its timed part.

A point passes when its CSV row is converged and finite, carries the same
strategy the solver returned, and that strategy is stationary for both
leaders: the projected gradient on each leader's strategy box, from the
exact `provider_gradient` and `insurer_gradient`, is within tolerance of
zero. Rows of a reference grid must also equal the shipped CSV at 12
significant digits in every column the shipped CSV has.
"""

from __future__ import annotations

import csv
import math
import sys

import numpy as np
from chainsure import harness, market

# The provider's best response stops once this same projected gradient is
# below br_tolerance. The insurer's golden section pins gamma to within
# br_tolerance, but it compares profits, which it cannot tell apart once
# they differ by less than their round-off; that limits gamma to about
# sqrt(2 eps |profit| / |curvature|). Its gradient is curvature times that
# distance. Both bounds get a margin of SLACK.
SLACK = 10.0
EPS = sys.float_info.epsilon


def _sig12(text: str) -> str:
    try:
        value = float(text)
    except ValueError:
        return text
    return "nan" if math.isnan(value) else format(value, ".12g")


def _non_finite(text: str) -> bool:
    try:
        return not math.isfinite(float(text))
    except ValueError:
        return False


def _read_rows(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _projected(x: np.ndarray, grad: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    pg = grad.copy()
    pg[(x <= lo) & (grad < 0)] = 0.0
    pg[(x >= hi) & (grad > 0)] = 0.0
    return float(np.max(np.abs(pg)))


def stationarity_error(config, point, provider, insurer, graph) -> str | None:
    """Why the leaders' strategies are not stationary, or None when they are."""
    _, _, a, n_t = point
    params = config.market_params(a, n_t)
    tol = SLACK * config.solve.br_tolerance
    n = graph.n_users
    joint = np.concatenate([provider.prices, [provider.investment_ratio]])
    lo = np.concatenate([np.full(n, market.PRICE_FLOOR), [0.5]])
    hi = np.concatenate([np.full(n, params.price_cap), [market.HBAR_CEILING]])
    grad = market.provider_gradient(params, graph, provider, insurer)
    provider_pg = _projected(joint, grad, lo, hi)
    if not provider_pg <= tol:
        return f"provider projected gradient {provider_pg:.3e} > {tol:.1e}"
    gamma = np.array([insurer.gamma])
    slope = np.array([market.insurer_gradient(params, provider, insurer)])
    curvature = abs(market.insurer_curvature(params, provider, insurer))
    insurer_pg = _projected(gamma, slope, np.array([market.GAMMA_FLOOR]),
                            np.array([params.gamma_cap]))
    # the premium, the profit's largest term, stays below claim_scale
    resolution = math.sqrt(2.0 * EPS * params.risk.claim_scale / max(curvature, EPS))
    insurer_tol = SLACK * (config.solve.br_tolerance + resolution) * max(1.0, curvature)
    if not insurer_pg <= insurer_tol:
        return f"insurer projected gradient {insurer_pg:.3e} > {insurer_tol:.1e}"
    return None


def check_sweep(config, solved: dict, csv_path, reference_path=None) -> tuple[int, list[str]]:
    """The number of failed points, and one message per problem found.

    solved maps each sweep point to the (provider, insurer, converged)
    the solver returned for it.
    """
    points = harness.sweep_points(config)
    rows = _read_rows(csv_path)
    reference = _read_rows(reference_path) if reference_path else None
    messages = []
    if len(rows) != len(points):
        messages.append(f"CSV has {len(rows)} rows for {len(points)} points")
    if reference is not None and len(reference) != len(points):
        messages.append(f"reference has {len(reference)} rows for {len(points)} points")
    failed = 0
    graphs = {}
    for index, point in enumerate(points):
        problem = None
        row = rows[index] if index < len(rows) else None
        result = solved.get(point)
        if row is None:
            problem = "missing CSV row"
        elif result is None or not result[2] or row["converged"] != "true":
            problem = "not converged"
        elif any(_non_finite(value) for value in row.values()):
            problem = "non-finite value in CSV row"
        else:
            provider, insurer, _ = result
            written = (row["mean_price"], row["hbar_star"], row["gamma_star"])
            returned = (provider.mean_price, provider.investment_ratio, insurer.gamma)
            if tuple(_sig12(v) for v in written) != tuple(format(v, ".12g") for v in returned):
                problem = f"CSV strategy {written} differs from the solver's {returned}"
            else:
                key = point[:2]
                if key not in graphs:  # hold one graph at a time: n x n matrices
                    graphs = {key: harness.generate_instance(config, *key)}
                problem = stationarity_error(config, point, provider, insurer, graphs[key])
        if problem is None and reference is not None and index < len(reference):
            expected = reference[index]
            diff = [name for name in expected
                    if _sig12(expected[name]) != _sig12(row.get(name, ""))]
            if diff:
                problem = f"differs from the shipped CSV in {diff}"
        if problem is not None:
            failed += 1
            messages.append(f"point {point}: {problem}")
    return failed, messages
