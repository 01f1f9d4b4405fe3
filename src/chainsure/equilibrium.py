"""Leader best responses and the Stackelberg solve.

Each leader's best response is an exact maximization of its own profit
over its box (the provider via block-coordinate ascent on its price QP
and investment root, the insurer via golden-section search). The premium
does not depend on the provider's variables, so the provider's best
response does not depend on gamma. The leader game is therefore solved
in order: the provider's optimum first, then the insurer's reply to it,
then the users' demand at those prices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .demand import (
    DemandProfile,
    ExternalityGraph,
    closed_form_demand,
    gauss_seidel_state,
    gauss_seidel_sweep,
    lcp_demand,
)
from .errors import ConvergenceError, is_real
from .market import (
    GAMMA_FLOOR,
    HBAR_CEILING,
    PRICE_FLOOR,
    InsurerStrategy,
    MarketParams,
    ProviderStrategy,
    insurer_profit,
    insurer_profit_curve,
    provider_profit,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
PROVIDER_ITER_CAP = 200


@dataclass(frozen=True)
class SolveOptions:
    """Tolerance for the leaders' best responses."""

    br_tolerance: float = 1e-8

    def __post_init__(self):
        if not is_real(self.br_tolerance) or not 0 < self.br_tolerance < math.inf:
            raise ValueError(f"br_tolerance must be a positive finite number, got {self.br_tolerance!r}")


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    """A solved market. rounds counts the provider passes (always 2); a solve
    that fails raises, so a returned report has converged=True."""

    provider: ProviderStrategy
    insurer: InsurerStrategy
    demand: DemandProfile
    profits: tuple[float, float]
    rounds: int
    converged: bool


def _projected_norm(x: np.ndarray, grad: np.ndarray, lo: float, hi: float) -> float:
    """Infinity norm of the gradient with components pointing out of the box zeroed."""
    if lo < x.min() and x.max() < hi:
        return float(np.abs(grad).max())
    pg = grad.copy()
    pg[(x <= lo) & (grad < 0)] = 0.0
    pg[(x >= hi) & (grad > 0)] = 0.0
    return float(np.abs(pg).max())


def best_response_provider(params: MarketParams, graph: ExternalityGraph,
                           start: ProviderStrategy,
                           opts: SolveOptions = SolveOptions()) -> ProviderStrategy:
    """Maximize the provider's profit over its price/investment box.

    The premium does not depend on the provider's variables, so neither
    does this best response: it takes no insurer strategy.

    Block-coordinate exact ascent. The profit is an exact quadratic in the
    prices, so the price block is a box-QP with curvature Q = M + M^T
    (graph.symmetric_influence, built once per graph), solved by projected
    Gauss-Seidel on its stationarity system Q p = (1 + hbar) M1. Each sweep
    is demand.gauss_seidel_sweep: BLAS triangular kernels that read Q once,
    predict the clamped prices from the Jacobi update, and fall back to a
    per-user sweep when that prediction fails; the iterates are those of
    the per-user sweep. The sweep returns the residual (1 + hbar) M1 - Q p,
    which is the price block of the exact gradient. The investment ratio
    then has a closed-form interior root (the cost pole makes its slope
    strictly decreasing), clamped to the box. The two blocks couple only
    through scalars, so the alternation contracts fast. Each pass ends on
    hbar's exact root, so the stopping test reads only the projected price
    gradient, floored at its round-off in (1 + hbar) M1. Moving hbar by dh
    shifts that gradient by dh * M1, so the test needs no linear solve.

    Plain projected gradient ascent was rejected here: the hbar curvature
    dwarfs the price curvature and capped prices make coupled Newton steps
    stall against the box. The closed-form price block (prices
    (1 + hbar) A^T (A + A^T)^{-1} 1 with A = I - alpha G) is not used
    either: it lands on the exact optimum, up to 7.9e-10 from where
    Gauss-Seidel stops on the shipped grids, which moves the 12-digit sweep
    CSVs in the 9th to 10th digit.
    """
    n = graph.n_users
    price_lo, price_hi = PRICE_FLOOR, params.price_cap
    m_ones = graph.ones_image
    quad = graph.symmetric_influence
    quad_diag = np.diagonal(quad)

    prices = np.clip(start.prices.astype(float), price_lo, price_hi)
    hbar = float(np.clip(start.investment_ratio, 0.5, HBAR_CEILING))
    tolerance = max(opts.br_tolerance, 16.0 * math.ulp(2.0 * float(m_ones.max())))

    # grad is the price gradient (1 + hbar) M1 - Q p at the current point
    target = (1.0 + hbar) * m_ones
    upper, grad = gauss_seidel_state(quad, target, prices)
    sweep_cap = 60 + 10 * n
    for _ in range(PROVIDER_ITER_CAP):
        # price block: maximize (1 + hbar) p.M1 - p.Mp over the price box
        for _ in range(sweep_cap):
            prices, upper, grad = gauss_seidel_sweep(
                quad, quad_diag, target, prices, upper, grad, price_lo, price_hi)
            if _projected_norm(prices, grad, price_lo, price_hi) < 0.25 * tolerance:
                break
        # investment block: slope p.M1 - a/(1-h)^2 + reward is strictly
        # decreasing, so the box maximizer is the clamped root (p, M1 > 0)
        slope_at_cost = float(prices @ m_ones) + params.risk.reward_scale
        root = 1.0 - math.sqrt(params.attacker_resource / slope_at_cost)
        new_hbar = float(np.clip(root, 0.5, HBAR_CEILING))
        grad = grad + (new_hbar - hbar) * m_ones
        hbar = new_hbar
        target = (1.0 + hbar) * m_ones

        residual = _projected_norm(prices, grad, price_lo, price_hi)
        if residual < tolerance:
            return ProviderStrategy(prices=prices, investment_ratio=hbar)
    raise ConvergenceError(
        "provider best response hit its iteration cap",
        last_iterate=ProviderStrategy(prices=prices, investment_ratio=hbar),
        residual=residual,
    )


def best_response_insurer(params: MarketParams, s_p: ProviderStrategy,
                          opts: SolveOptions = SolveOptions()) -> InsurerStrategy:
    """Maximize the insurer's profit over gamma by golden-section search.

    The profit is concave in gamma on the domain, so golden section with an
    argument tolerance of br_tolerance finds the maximizer (possibly the cap).
    The bracket cannot narrow below a few float spacings of the cap, so a
    smaller br_tolerance stops there instead of looping forever.
    """
    lo, hi = GAMMA_FLOOR, params.gamma_cap
    profit = insurer_profit_curve(params, s_p)
    tolerance = max(opts.br_tolerance, 4.0 * math.ulp(hi))

    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = profit(c), profit(d)
    while b - a > tolerance:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = profit(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = profit(d)
    gamma = 0.5 * (a + b)
    # the maximum may sit exactly on the cap; prefer the boundary when tied
    if profit(hi) >= profit(gamma):
        gamma = hi
    return InsurerStrategy(float(gamma))


def _refresh_demand(graph: ExternalityGraph, s_p: ProviderStrategy) -> DemandProfile:
    profile = closed_form_demand(graph, s_p.investment_ratio, s_p.prices)
    if profile.out_of_box():
        profile = lcp_demand(graph, s_p.investment_ratio, s_p.prices)
    return profile


def solve_stackelberg(params: MarketParams, graph: ExternalityGraph,
                      start_p: ProviderStrategy,
                      opts: SolveOptions = SolveOptions()) -> EquilibriumReport:
    """The provider's optimum, then the insurer's reply, then the demand.

    The provider's best response ignores gamma, so it is computed first,
    with no insurer start, and the insurer replies to it; no outer
    iteration is needed. The provider pass runs twice: the second restarts
    from the first pass's optimum and moves the prices only in about the
    tenth significant digit, which shows in the 12-digit sweep CSVs.
    The demand comes from the closed form, falling back to the clamped
    solver when a component leaves [0, 1].

    Raises ConvergenceError when a best response hits its iteration cap.
    """
    s_p = best_response_provider(params, graph, start_p, opts)
    s_p = best_response_provider(params, graph, s_p, opts)
    s_i = best_response_insurer(params, s_p, opts)
    return EquilibriumReport(
        provider=s_p,
        insurer=s_i,
        demand=_refresh_demand(graph, s_p),
        profits=(
            provider_profit(params, graph, s_p, s_i),
            insurer_profit(params, s_p, s_i),
        ),
        rounds=2,
        converged=True,
    )
