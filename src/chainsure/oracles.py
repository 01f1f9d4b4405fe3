"""Independent verification oracles, and the `chainsure oracle` suites.

No solve calls anything here: no module of the package imports this one
at import time, and `chainsure oracle` loads it when it runs. Each oracle
takes a route that shares no code with the path it checks:

- brute_force_lcp enumerates every partition of the users, against the
  projected Gauss-Seidel of demand.lcp_demand;
- adaptive_simpson integrates adaptively, against risk's midpoint grid;
- provider_hessian and leader_jacobian are the leaders' exact second
  derivatives, behind the definiteness conditions;
- reputation_penalty and expected_loss are the insurer's overpricing
  penalty and undistorted premium as formulas of their own.

run_suites runs the three cross-verification suites of `chainsure oracle`.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

from .demand import DemandProfile, ExternalityGraph, Segment, _demand_rhs, lcp_demand
from .errors import UniquenessViolation
from .market import (
    InsurerStrategy,
    MarketParams,
    ProviderStrategy,
    _penalty_gamma_factor,
    insurer_curvature,
    insurer_gradient,
    insurer_profit,
    provider_gradient,
    provider_profit,
)
from .risk import RiskModel, attack_probability, premium

__all__ = [
    "BRUTE_FORCE_MAX_USERS",
    "adaptive_simpson",
    "brute_force_lcp",
    "expected_loss",
    "leader_jacobian",
    "provider_hessian",
    "reputation_penalty",
    "run_suites",
]

BRUTE_FORCE_MAX_USERS = 12
_SIMPSON_MAX_DEPTH = 50


def brute_force_lcp(graph: ExternalityGraph, hbar: float, p: np.ndarray) -> DemandProfile:
    """Demand equilibrium by exhaustive enumeration of user partitions.

    Tries all 3^n assignments of users to opt-out / interior / saturated,
    solves the linear subsystem on the interior set, and keeps assignments
    whose sign conditions all hold. Exactly one must survive; anything else
    is reported as a uniqueness violation. Assignments are grouped by their
    interior set: its block is factored once for the right-hand sides of
    every opt-out/saturated split of the other users, and the sign
    conditions are checked for all splits at once. Verification oracle
    only (n <= 12).
    """
    n = graph.n_users
    if n > BRUTE_FORCE_MAX_USERS:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_MAX_USERS} users, got {n}")
    b = _demand_rhs(graph, hbar, p)
    a_mat = graph.system_matrix
    consistent: list[tuple[np.ndarray, np.ndarray]] = []
    for free in itertools.product((False, True), repeat=n):
        free = np.array(free, dtype=bool)
        rest = np.flatnonzero(~free)
        # column k saturates the users of rest whose bit is set in k
        splits = np.arange(2**rest.size)
        ones = (splits[None, :] >> np.arange(rest.size)[:, None]) & 1 == 1
        x = np.zeros((n, splits.size))
        x[rest] = ones
        keep = np.ones(splits.size, dtype=bool)
        if free.any():
            sub = a_mat[np.ix_(free, free)]
            rhs = b[free, None] - a_mat[np.ix_(free, rest)] @ x[rest]
            try:
                x_free = np.linalg.solve(sub, rhs)
            except np.linalg.LinAlgError:
                continue
            # closed unit box, tiny slack for the solve's roundoff
            keep &= np.all(np.isfinite(x_free), axis=0)
            keep &= np.all((x_free >= -1e-12) & (x_free <= 1.0 + 1e-12), axis=0)
            x[free] = np.clip(x_free, 0.0, 1.0)
        residual = b[:, None] - a_mat @ x
        keep &= np.all(np.where(ones, residual[rest] > 0, residual[rest] < 0), axis=0)
        for k in np.flatnonzero(keep):
            partition = np.full(n, Segment.INTERIOR, dtype=np.int8)
            partition[rest] = np.where(ones[:, k], Segment.SATURATED, Segment.OPT_OUT)
            consistent.append((x[:, k], partition))
    if len(consistent) != 1:
        raise UniquenessViolation(
            f"expected exactly one consistent partition, found {len(consistent)}"
        )
    return DemandProfile(*consistent[0])  # copies x out of its batch


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 3.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f: Callable[[float], float], lo: float, hi: float,
                     tolerance: float) -> float:
    """Integral of f over [lo, hi] by adaptive Simpson with Richardson
    extrapolation, recursion depth capped at 50.

    The verification oracle for the risk layer's midpoint grid; no
    production path calls it.
    """
    if lo > hi:
        raise ValueError(f"integration bounds out of order: lo={lo} > hi={hi}")
    if not tolerance > 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    if lo == hi:
        return 0.0

    def recurse(a, b, fa, fb, fm, whole, tol, depth):
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = f(lm)
        frm = f(rm)
        h = 0.5 * (b - a)
        left = _simpson(fa, flm, fm, 0.5 * h)
        right = _simpson(fm, frm, fb, 0.5 * h)
        refined = left + right
        err = (refined - whole) / 15.0
        if depth >= _SIMPSON_MAX_DEPTH or abs(err) <= tol:
            return refined + err
        return recurse(a, m, fa, fm, flm, left, 0.5 * tol, depth + 1) + recurse(
            m, b, fm, fb, frm, right, 0.5 * tol, depth + 1
        )

    fa, fb = f(lo), f(hi)
    mid = 0.5 * (lo + hi)
    fm = f(mid)
    whole = _simpson(fa, fm, fb, 0.5 * (hi - lo))
    return recurse(lo, hi, fa, fb, fm, whole, tolerance, 0)


def provider_hessian(params: MarketParams, graph: ExternalityGraph,
                     s_p: ProviderStrategy) -> np.ndarray:
    """Exact Hessian of market.provider_profit in (prices, hbar).

    Price block -(M + M^T), mixed block M 1, corner -2a / (1 - hbar)^3.
    Negative definite at every hbar in [1/2, 1) exactly when A + A^T is positive
    definite (A = I - alpha G) and 16a > 1^T (A + A^T)^{-1} 1: for an asymmetric
    G, alpha * rho(G) < 1 and the existence condition do not imply that.
    """
    n = graph.n_users
    hess = np.empty((n + 1, n + 1))
    hess[:n, :n] = -graph.symmetric_influence
    hess[:n, n] = graph.ones_image
    hess[n, :n] = graph.ones_image
    hess[n, n] = -2.0 * params.attacker_resource / (1.0 - s_p.investment_ratio) ** 3
    return hess


def leader_jacobian(params: MarketParams, graph: ExternalityGraph,
                    s_p: ProviderStrategy, s_i: InsurerStrategy) -> np.ndarray:
    """Symmetrized second-derivative matrix of the two leaders' profits.

    J = D + D^T where D stacks the provider rows (over prices, hbar) and the
    insurer row (over gamma). The (price, gamma) coupling is structurally
    zero; the (hbar, gamma) coupling comes from the overpricing penalty.
    """
    n = graph.n_users
    hbar = s_p.investment_ratio
    gamma = s_i.gamma
    jac = np.zeros((n + 2, n + 2))
    jac[: n + 1, : n + 1] = 2.0 * provider_hessian(params, graph, s_p)
    cross = -3.0 * (hbar - 0.5) ** 2 * _penalty_gamma_factor(gamma, params.beta)
    jac[n, n + 1] = cross
    jac[n + 1, n] = cross
    jac[n + 1, n + 1] = 2.0 * insurer_curvature(params, s_p, s_i)
    return jac


def expected_loss(model: RiskModel) -> float:
    """Insurer's expected claim payout (the undistorted premium)."""
    return premium(model, 1.0)


def reputation_penalty(hbar: float, gamma: float, beta: float) -> float:
    """Penalty on the insurer for keeping the premium high while the chain
    is well defended: (hbar - 1/2)^3 * (gamma - 1) * gamma^beta.

    Zero at hbar = 1/2 and at gamma = 1; grows steeply in gamma (beta > 1).
    market.insurer_profit_curve inlines the same product.
    """
    if beta <= 1.0:
        raise ValueError(f"penalty exponent must exceed 1, got {beta}")
    if not 0.5 <= hbar <= 1.0:
        raise ValueError(f"investment ratio must lie in [1/2, 1], got {hbar}")
    # written so that NaN fails
    if not 1.0 <= gamma < math.inf:
        raise ValueError(f"premium coefficient must be >= 1 and finite, got {gamma}")
    return (hbar - 0.5) ** 3 * (gamma - 1.0) * gamma**beta


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
        grad = provider_gradient(params, graph, s_p, s_i)
        step = 1e-5
        for k in range(n + 1):
            base = np.concatenate([s_p.prices, [s_p.investment_ratio]])
            up, dn = base.copy(), base.copy()
            up[k] += step
            dn[k] -= step
            f_up = provider_profit(params, graph, ProviderStrategy(up[:n], up[n]), s_i)
            f_dn = provider_profit(params, graph, ProviderStrategy(dn[:n], dn[n]), s_i)
            fd = (f_up - f_dn) / (2 * step)
            worst = max(worst, abs(grad[k] - fd) / max(1.0, abs(fd)))
        gi = insurer_gradient(params, s_p, s_i)
        f_up = insurer_profit(params, s_p, InsurerStrategy(s_i.gamma + step))
        f_dn = insurer_profit(params, s_p, InsurerStrategy(s_i.gamma - step))
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


def run_suites(seed: int, verbose: bool) -> int:
    """Run the three suites on one generator seeded with seed, printing a
    PASS or FAIL line for each (and, if verbose, its worst deviation first);
    0 when all pass, else 1."""
    rng = np.random.default_rng(seed)
    checks = [
        ("demand solvers agree (partition enumeration vs projected Gauss-Seidel)",
         lambda: _oracle_lcp(rng, verbose)),
        ("analytic derivatives match finite differences",
         lambda: _oracle_gradients(rng, verbose)),
        ("midpoint grid matches adaptive quadrature",
         lambda: _oracle_quadrature(verbose)),
    ]
    failures = 0
    for label, run in checks:
        ok = run()
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1
